"""Many small instances, one kernel launch: packed multi-instance kernels.

Sweeps evaluate *ensembles* — hundreds of modest instances per ``(k, φ)``
grid cell — and at that scale the per-call overhead of one kernel launch
per instance dominates the actual array work.  This module packs a ragged
chunk of instances (:class:`BatchedInstances`: padded coords + counts),
builds one packed ``(M, n_max, n_max)`` polar table for the whole chunk
(:class:`PackedPolarTables`), and evaluates coverage / connectivity /
critical range for every instance in a *single* Python-level launch.

Bit-exactness contract (vs. the per-instance kernels, and hence vs. the
oracles in ``tests/kernels_reference.py``):

* packed polar tables run the same ``hypot`` / ``angle_of`` expressions on
  the same per-instance offsets — padding only adds rows/columns that are
  never read back;
* packed coverage reuses the per-instance kernel's block body
  (:func:`repro.kernels.coverage._fill_block`) on pre-gathered rows —
  elementwise float ops are shape-independent, so valid entries are
  bit-identical; pad columns are masked off explicitly;
* packed connectivity runs *one* ``connected_components`` call on the
  block-diagonal union graph — with no cross-instance edges the labels
  restricted to an instance's block are exactly its own component labels,
  so the per-instance boolean is exact;
* packed critical range runs the identical counter-free search body
  (:func:`repro.kernels.critical._critical_search_impl`) per instance on
  identical edge arrays.

Launch accounting: one packed call increments ``coverage_calls`` /
``critical_searches`` / ``scipy_scc_calls`` *once* for the whole chunk
(that is the point — the instrument counters are how CI judges the win),
while per-instance work counters (``sector_evals``, ``connectivity_probes``,
``trig_evals``) stay honest about the total work done.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.geometry.angles import angle_of
from repro.kernels.connectivity import union_connected
from repro.kernels.coverage import _fill_block
from repro.kernels.critical import _critical_search_impl
from repro.errors import InvalidParameterError
from repro.kernels.geometry import DENSE_LIMIT_ENV_VAR, _ROW_BLOCK_ELEMS, dense_element_limit
from repro.kernels.instrument import COUNTERS

__all__ = [
    "BatchedInstances",
    "PackedPolarTables",
    "pack_instances",
    "packed_polar_tables",
    "packed_coverage",
    "packed_connected",
    "packed_critical",
]


class BatchedInstances:
    """A chunk of ``M`` ragged point sets packed into padded arrays.

    Attributes
    ----------
    coords:
        ``(M, n_max, 2)`` float coords, zero-padded past each instance's
        ``counts[m]`` points.  Pad entries are never read back — every
        packed kernel masks on ``counts``.
    counts:
        ``(M,)`` int64 point counts per instance.
    key:
        Content hash over the packed payload (shapes + counts + coords
        bytes) — the :class:`~repro.engine.cache.ArtifactCache` key for
        the chunk's packed polar tables.
    """

    __slots__ = ("coords", "counts", "key")

    def __init__(self, coords: np.ndarray, counts: np.ndarray, key: str):
        self.coords = coords
        self.counts = counts
        self.key = key

    @property
    def m(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n_max(self) -> int:
        return int(self.coords.shape[1])

    def __repr__(self) -> str:
        return f"BatchedInstances(m={self.m}, n_max={self.n_max})"


def pack_instances(coords_list) -> BatchedInstances:
    """Pack a non-empty list of ``(n_i, 2)`` coord arrays into one batch."""
    if not coords_list:
        raise ValueError("pack_instances needs at least one instance")
    arrays = []
    for c in coords_list:
        a = np.ascontiguousarray(np.asarray(c, dtype=float))
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coordinates, got shape {a.shape}")
        arrays.append(a)
    counts = np.array([a.shape[0] for a in arrays], dtype=np.int64)
    n_max = int(counts.max())
    packed = np.zeros((len(arrays), max(n_max, 1), 2), dtype=float)
    for m, a in enumerate(arrays):
        packed[m, : a.shape[0]] = a
    h = hashlib.sha256()
    h.update(np.int64(packed.shape[0]).tobytes())
    h.update(np.int64(packed.shape[1]).tobytes())
    h.update(counts.tobytes())
    h.update(packed.tobytes())
    return BatchedInstances(packed, counts, h.hexdigest())


class PackedPolarTables:
    """Per-instance polar geometry for a packed chunk.

    ``dist[m, u, v]`` / ``ang[m, u, v]`` match instance ``m``'s own
    :class:`~repro.kernels.geometry.PolarTables` bit-for-bit on the valid
    ``[:counts[m], :counts[m]]`` block; pad entries are arbitrary and
    must never be read.
    """

    __slots__ = ("dist", "ang", "counts")

    def __init__(self, dist: np.ndarray, ang: np.ndarray, counts: np.ndarray):
        self.dist = dist
        self.ang = ang
        self.counts = counts

    @property
    def m(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n_max(self) -> int:
        return int(self.dist.shape[1])

    def __repr__(self) -> str:
        return f"PackedPolarTables(m={self.m}, n_max={self.n_max})"


def packed_polar_tables(batch: BatchedInstances) -> PackedPolarTables:
    """One launch building every instance's angle/distance tables.

    Counted as one ``packed_polar_builds`` launch (NOT ``polar_builds`` —
    the per-instance counter keeps meaning "per-instance table built").
    ``trig_evals`` counts the padded work actually done.
    """
    c = batch.coords
    m, n_max = c.shape[0], c.shape[1]
    limit = dense_element_limit()
    if n_max * n_max > limit:
        raise InvalidParameterError(
            f"packed polar tables for n_max={n_max:,} need n² = "
            f"{n_max * n_max:,} elements per instance table, over the "
            f"{limit:,}-element budget ({DENSE_LIMIT_ENV_VAR}); use the "
            "radius-bounded sparse backend for large instances "
            "(REPRO_BACKEND=sparse / --backend sparse, or the auto rule)"
        )
    dist = np.empty((m, n_max, n_max), dtype=float)
    ang = np.empty((m, n_max, n_max), dtype=float)
    # Same element budget as the per-instance builder, now over instances.
    block = max(1, _ROW_BLOCK_ELEMS // max(n_max * n_max, 1))
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        cs = c[lo:hi]
        off = cs[:, None, :, :] - cs[:, :, None, :]
        dist[lo:hi] = np.hypot(off[..., 0], off[..., 1])
        ang[lo:hi] = angle_of(off)
    COUNTERS.packed_polar_builds += 1
    COUNTERS.batched_instances += m
    COUNTERS.trig_evals += m * n_max * n_max
    dist.setflags(write=False)
    ang.setflags(write=False)
    return PackedPolarTables(dist, ang, batch.counts)


#: Same per-block element budget as the single-instance coverage kernel.
_BLOCK_ELEMS = 262_144


def packed_coverage(
    tables: PackedPolarTables,
    inst_idx: np.ndarray,
    sensor_idx: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    radius: np.ndarray,
    *,
    eps: float = 1e-9,
    ignore_radius: bool = False,
) -> np.ndarray:
    """Boolean ``(M, n_max, n_max)`` coverage of a chunk-flattened antenna set.

    ``inst_idx[a]`` names the instance antenna ``a`` belongs to; the other
    per-antenna arrays are the usual ``flattened()`` columns.  One
    ``coverage_calls`` launch for the whole chunk.  ``cover[m]`` restricted
    to the valid block is bit-identical to the per-instance kernel; pad
    rows/columns and the diagonal are always False.
    """
    m, n_max = tables.m, tables.n_max
    cover = np.zeros((m, n_max, n_max), dtype=bool)
    a = int(inst_idx.shape[0])
    if a == 0 or n_max == 0:
        return cover
    COUNTERS.coverage_calls += 1
    COUNTERS.sector_evals += a * n_max

    # Group key over (instance, sensor); reduceat needs contiguous runs.
    inst_idx = np.asarray(inst_idx, dtype=np.int64)
    sensor_idx = np.asarray(sensor_idx, dtype=np.int64)
    key = inst_idx * n_max + sensor_idx
    if np.any(np.diff(key) < 0):
        order = np.argsort(key, kind="stable")
        key = key[order]
        inst_idx, sensor_idx = inst_idx[order], sensor_idx[order]
        start, spread, radius = start[order], spread[order], radius[order]

    ang = tables.ang[inst_idx, sensor_idx]  # (a, n_max) gathers
    dist = tables.dist[inst_idx, sensor_idx]
    valid = np.arange(n_max, dtype=np.int64)[None, :] < tables.counts[inst_idx][:, None]

    hit = np.empty((a, n_max), dtype=bool)
    block = max(1, _BLOCK_ELEMS // max(n_max, 1))
    for lo in range(0, a, block):
        hi = min(lo + block, a)
        _fill_block(ang[lo:hi], dist[lo:hi], start[lo:hi], spread[lo:hi],
                    radius[lo:hi], eps, ignore_radius, hit[lo:hi])
    # Pad columns carry garbage polar entries (offsets against zero-padded
    # coords) — ``dist > 0`` does NOT exclude them, so mask explicitly.
    hit &= valid

    groups, first = np.unique(key, return_index=True)
    cover[groups // n_max, groups % n_max] = np.logical_or.reduceat(hit, first, axis=0)
    diag = np.arange(n_max)
    cover[:, diag, diag] = False
    return cover


def packed_connected(
    cover: np.ndarray, counts: np.ndarray, *, mode: str = "strong"
) -> np.ndarray:
    """Per-instance connectivity under ``mode``, one component call per chunk.

    Builds the block-diagonal union graph of all instances and runs a
    single ``connected_components`` call; instance ``m`` is connected iff
    the labels inside its vertex block are constant.  No cross-instance
    edges exist, so this is exactly the per-instance answer.  Strong mode
    asks strong connectivity of the coverage digraph; symmetric mode first
    keeps the mutual edges (elementwise AND with the per-instance
    transpose) and asks undirected connectivity.  Instances with
    ``counts[m] <= 1`` are trivially connected.
    """
    connection = "strong"
    if mode == "symmetric":
        cover = cover & cover.swapaxes(1, 2)
        connection = "weak"
    counts = np.asarray(counts, dtype=np.int64)
    base = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
    mi, u, v = np.nonzero(cover)  # pads and diagonal are already False
    src = base[mi] + u  # row-major: already sorted by union vertex
    indptr = np.zeros(int(base[-1]) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=int(base[-1])), out=indptr[1:])
    return union_connected(counts, indptr, base[mi] + v, connection=connection)


def packed_critical(
    tables: PackedPolarTables,
    cover_ang: np.ndarray,
    *,
    eps: float = 1e-9,
    mode: str = "strong",
) -> np.ndarray:
    """Per-instance critical range under ``mode`` from an angular coverage chunk.

    ``cover_ang`` is the ``ignore_radius=True`` packed coverage.  One
    ``critical_searches`` launch for the whole chunk; each instance runs
    the identical search body as :func:`critical_range_search` on the same
    edge arrays, so results are bit-identical (``0.0`` for ``n <= 1``,
    ``inf`` when deficient).
    """
    counts = tables.counts
    m = int(counts.shape[0])
    out = np.empty(m, dtype=float)
    COUNTERS.critical_searches += 1
    for i in range(m):
        n = int(counts[i])
        if n <= 1:
            out[i] = 0.0
            continue
        src, dst = np.nonzero(cover_ang[i, :n, :n])
        if src.shape[0] == 0:
            out[i] = np.inf
            continue
        dists = tables.dist[i][src, dst]
        out[i] = _critical_search_impl(n, src, dst, dists, eps, mode)
    return out
