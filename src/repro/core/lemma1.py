"""Lemma 1: node degree versus sum of antennae spreads.

For a node ``u`` of degree ``d`` equipped with ``k ≤ d`` antennae whose
range reaches all its neighbours, a total angular sum of ``2π(d−k)/d`` is
always sufficient — and, on a regular ``d``-gon, necessary — to point an
antenna at every neighbour.

Two constructions are provided:

* :func:`lemma1_orientation` — the paper's: find the window of ``k``
  consecutive gaps with maximum total Σ ≥ 2πk/d; park ``k−1`` zero-spread
  antennae on the window's interior neighbours and sweep one big antenna of
  spread ``2π − Σ`` over everything else.
* :func:`optimal_star_cover` — the exact optimum: exclude the ``k``
  *largest* gaps (consecutive or not) and cover each remaining arc with its
  own snug sector; total spread ``2π − (sum of k largest gaps)``, which is
  the true minimum (:func:`optimal_star_spread`).

Both stay within the Lemma-1 budget; the optimal variant is what
``Theorem 2`` uses by default, the paper-faithful variant is kept for the
Figure-1 reproduction and the ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.angles import TWO_PI, ccw_angle, ccw_gaps, circular_windows_sum
from repro.geometry.sectors import Sector
from repro.spanning.bounded_angle import segment_wedges

__all__ = [
    "lemma1_required_spread",
    "optimal_star_spread",
    "lemma1_orientation",
    "optimal_star_cover",
]


def lemma1_required_spread(d: int, k: int) -> float:
    """The Lemma-1 budget ``2π(d−k)/d`` (0 when ``k ≥ d``)."""
    if d < 0 or k < 1:
        raise InvalidParameterError(f"need d >= 0 and k >= 1, got d={d}, k={k}")
    if k >= d:
        return 0.0
    return TWO_PI * (d - k) / d


def optimal_star_spread(angles: np.ndarray, k: int) -> float:
    """Exact minimal total spread of ``k`` sectors covering all ``angles``.

    Equals ``2π − (sum of the k largest ccw gaps)``; 0 when ``k ≥ d``.
    """
    a = np.asarray(angles, dtype=float)
    d = a.size
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if d == 0 or k >= d:
        return 0.0
    _, gaps = ccw_gaps(a)
    top = np.sort(gaps)[::-1][:k]
    return float(max(0.0, TWO_PI - top.sum()))


def _neighbor_angles(apex, neighbor_points) -> np.ndarray:
    apex = np.asarray(apex, dtype=float)
    pts = np.asarray(neighbor_points, dtype=float).reshape(-1, 2)
    diff = pts - apex
    if np.any(np.hypot(diff[:, 0], diff[:, 1]) == 0.0):
        raise InvalidParameterError("a neighbour coincides with the apex")
    return np.arctan2(diff[:, 1], diff[:, 0])


def lemma1_orientation(
    apex, neighbor_points, k: int, *, radius: float = np.inf
) -> list[Sector]:
    """The paper's Lemma-1 construction (consecutive-gap window).

    Returns ≤ ``k`` sectors at ``apex`` jointly covering every neighbour,
    with total spread ≤ ``2π(d−k)/d``.
    """
    ang = _neighbor_angles(apex, neighbor_points)
    d = ang.size
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if d == 0:
        return []
    if k >= d:
        return [Sector(a, 0.0, radius) for a in ang]
    order, gaps = ccw_gaps(ang)
    sorted_ang = ang[order]
    wsum = circular_windows_sum(gaps, k)
    i = int(np.argmax(wsum))
    # Window points p_1..p_{k+1} are sorted_ang[i], ..., sorted_ang[i+k] (cyclic).
    sectors: list[Sector] = []
    for j in range(1, k):  # k-1 zero-spread antennae on interior points
        sectors.append(Sector(float(sorted_ang[(i + j) % d]), 0.0, radius))
    start = float(sorted_ang[(i + k) % d])  # p_{k+1}
    end = float(sorted_ang[i])  # p_1
    sweep = float(ccw_angle(start, end))
    sectors.append(Sector(start, sweep, radius))
    return sectors


def optimal_star_cover(
    apex, neighbor_points, k: int, *, radius: float = np.inf
) -> list[Sector]:
    """Minimal-total-spread cover of the neighbours by ≤ ``k`` sectors.

    Excludes the ``k`` largest gaps; each run of consecutive neighbours
    between two excluded gaps is covered by one snug sector.  This is the
    one-star case of :func:`repro.spanning.bounded_angle.segment_wedges`
    (``raw_angles=True``), the kernel Theorem 2 runs over the whole tree.
    """
    ang = _neighbor_angles(apex, neighbor_points)
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    _, start, spread = segment_wedges([0, ang.size], ang, k, raw_angles=True)
    return [Sector(a, b, radius) for a, b in zip(start.tolist(), spread.tolist())]
