"""Batched sector-coverage kernel: all ``k·n`` antennae in pure array ops.

Replaces the per-antenna Python loop in ``coverage_matrix``: every sector
is evaluated against every point at once, reading angles and distances from
the shared :class:`~repro.kernels.geometry.PolarTables` instead of
recomputing trig per antenna.  Processed in antenna blocks so float
temporaries stay bounded; sectors of one sensor are OR-reduced with a
single ``logical_or.reduceat``.

The kernel is bit-identical to the loop it replaces (same elementwise
expressions in the same dtype; boolean reduction is exact) — the
equivalence suite in ``tests/test_kernels.py`` asserts this on randomized
instances against the loop oracle in ``tests/kernels_reference.py``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.angles import TWO_PI
from repro.geometry.sectors import radius_tolerance
from repro.kernels.geometry import PolarTables
from repro.kernels.instrument import COUNTERS

__all__ = ["batched_coverage"]

#: Elements per ``(block, n)`` float temporary inside the kernel.  Small on
#: purpose: ~2 MB blocks stay cache-resident, so the kernel's many cheap
#: elementwise passes do not become memory-bandwidth bound (the mistake
#: that would make it *slower* than the old cache-hot per-antenna loop).
_BLOCK_ELEMS = 262_144


def _ccw_from_start(ang: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``ccw_angle(start, ang)`` specialised to inputs already in [0, 2π).

    The difference then lies in (-2π, 2π), where ``np.mod(d, 2π)`` equals
    ``d + 2π if d < 0 else d`` *bit-exactly* (``fmod(d, 2π) == d`` for
    ``|d| < 2π``, and numpy's mod adds the modulus when signs differ), so
    this skips the expensive fmod.  The final wrap-fix mirrors
    :func:`~repro.geometry.angles.normalize_angle`: a tiny negative ``d``
    can round to exactly 2π.  Both fixes run in place on the difference.
    """
    d = np.subtract(ang, start)
    np.add(d, TWO_PI, out=d, where=d < 0.0)
    np.subtract(d, TWO_PI, out=d, where=d >= TWO_PI)
    return d


def batched_coverage(
    tables: PolarTables,
    sensor_idx: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    radius: np.ndarray,
    *,
    eps: float = 1e-9,
    ignore_radius: bool = False,
) -> np.ndarray:
    """Boolean ``(n, n)`` coverage matrix of a flattened antenna set.

    Parameters
    ----------
    tables:
        Shared polar geometry of the point set.
    sensor_idx, start, spread, radius:
        Flat per-antenna arrays (``AntennaAssignment.flattened()`` order).
    ignore_radius:
        Test angular containment only (candidate-edge enumeration).
    """
    n = tables.n
    cover = np.zeros((n, n), dtype=bool)
    a = int(sensor_idx.shape[0])
    if a == 0 or n == 0:
        return cover
    COUNTERS.coverage_calls += 1
    COUNTERS.sector_evals += a * n

    # ``flattened()`` yields antennae grouped by sensor already; re-sort only
    # if a caller hands us an ungrouped set (reduceat needs contiguous runs).
    if np.any(np.diff(sensor_idx) < 0):
        order = np.argsort(sensor_idx, kind="stable")
        sensor_idx = sensor_idx[order]
        start, spread, radius = start[order], spread[order], radius[order]

    hit = np.empty((a, n), dtype=bool)
    block = max(1, _BLOCK_ELEMS // max(n, 1))
    for lo in range(0, a, block):
        hi = min(lo + block, a)
        _coverage_block(
            tables,
            sensor_idx[lo:hi],
            start[lo:hi],
            spread[lo:hi],
            radius[lo:hi],
            eps,
            ignore_radius,
            hit[lo:hi],
        )

    sensors, first = np.unique(sensor_idx, return_index=True)
    cover[sensors] = np.logical_or.reduceat(hit, first, axis=0)
    np.fill_diagonal(cover, False)
    return cover


def _coverage_block(
    tables: PolarTables,
    idx: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    radius: np.ndarray,
    eps: float,
    ignore_radius: bool,
    out: np.ndarray,
) -> None:
    """Fill ``out[i, v]`` = antenna ``i`` covers point ``v``, for one block."""
    _fill_block(tables.ang[idx], tables.dist[idx], start, spread, radius,
                eps, ignore_radius, out)


def _fill_block(
    ang: np.ndarray,
    dist: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    radius: np.ndarray,
    eps: float,
    ignore_radius: bool,
    out: np.ndarray,
) -> None:
    """The block body on pre-gathered ``(b, n)`` angle/distance rows.

    Also run by the padded multi-instance coverage oracle in
    ``tests/kernels_reference.py`` — one set of elementwise expressions
    keeps the two bit-identical by construction (elementwise float ops are
    shape-independent).
    """
    b, n = out.shape

    # Full-circle sectors short-circuit before any angular arithmetic: an
    # omnidirectional antenna needs no ccw sweep at all.
    full = spread >= TWO_PI - eps
    ang_ok = np.empty((b, n), dtype=bool)
    ang_ok[full] = True
    nf = ~full
    if nf.any():
        rel = _ccw_from_start(ang[nf], start[nf, None])
        ang_ok[nf] = (rel <= spread[nf, None] + eps) | (rel >= TWO_PI - eps)

    if ignore_radius:
        np.logical_and(ang_ok, dist > 0.0, out=out)
        return
    rad_ok = np.ones((b, n), dtype=bool)
    fin = np.isfinite(radius)
    if fin.any():
        tol = radius_tolerance(radius[fin], eps)
        rad_ok[fin] = dist[fin] <= (radius[fin] + tol)[:, None]
    np.logical_and(ang_ok, rad_ok, out=out)
    np.logical_and(out, dist > 0.0, out=out)
