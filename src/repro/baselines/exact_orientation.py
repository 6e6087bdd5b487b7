"""Brute-force optima for tiny instances.

Two exact searches used to gauge how tight the paper's constructions are:

* :func:`exact_min_spread_star` — for a single hub with ``d`` neighbours and
  ``k`` antennae of *unbounded* range, the minimal total spread to reach all
  neighbours is closed-form (``2π − sum of k largest gaps``); this wraps the
  formula with an independent O(d^k) verification by enumerating which gap
  set to exclude, used as a test oracle and in the Figure-1 bench.
* :func:`exact_min_range_single_antenna` — for k = 1 and given spread φ,
  the minimal range achieving strong connectivity, by discretized search
  over per-sensor orientations (each sensor's sector boundary aligned with
  one of the rays towards another sensor — an optimal orientation can always
  be rotated so this holds).  Exponential in n; intended for n ≤ 7.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.angles import TWO_PI, angle_of, ccw_angle, ccw_gaps
from repro.geometry.points import PointSet, pairwise_distances
from repro.graph.connectivity import is_strongly_connected
from repro.graph.digraph import DiGraph

__all__ = ["exact_min_spread_star", "exact_min_range_single_antenna"]


def exact_min_spread_star(angles: np.ndarray, k: int) -> float:
    """Exact minimal total spread of ``k`` sectors covering all directions.

    Enumerates every set of ``k`` gaps to exclude (the optimum always
    excludes whole gaps) and returns the best.  Agrees with the closed form
    ``2π − (sum of k largest gaps)``; kept brute-force on purpose as an
    independent oracle.
    """
    a = np.asarray(angles, dtype=float)
    d = a.size
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if d == 0 or k >= d:
        return 0.0
    _, gaps = ccw_gaps(a)
    best = TWO_PI
    for excl in combinations(range(d), k):
        spread = TWO_PI - float(sum(gaps[list(excl)]))
        best = min(best, spread)
    return max(0.0, best)


def exact_min_range_single_antenna(
    points: PointSet | np.ndarray, phi: float, *, max_n: int = 7
) -> float:
    """Optimal range for k = 1, spread ``phi``, by exhaustive orientation search.

    For each sensor the candidate orientations place the sector's *starting*
    boundary ray on the direction towards one of the other sensors (a
    standard exchange argument: rotating a sector clockwise until its
    boundary hits a covered sensor changes nothing).  For every candidate
    orientation profile we binary-search the minimal uniform range over the
    covered-pair distances.

    Exponential (``(n-1)^n`` profiles); guarded by ``max_n``.
    """
    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if n > max_n:
        raise InvalidParameterError(
            f"exact search is exponential; n={n} exceeds max_n={max_n}"
        )
    if n <= 1:
        return 0.0
    coords = ps.coords
    dist = pairwise_distances(coords)
    others = [[v for v in range(n) if v != u] for u in range(n)]
    dirs = np.zeros((n, n))
    for u in range(n):
        for v in others[u]:
            dirs[u, v] = float(angle_of(coords[v] - coords[u]))

    # cover[u][v_start] = boolean row over targets w covered when u's sector
    # starts at the ray towards v_start.
    cover: list[dict[int, np.ndarray]] = []
    for u in range(n):
        row: dict[int, np.ndarray] = {}
        for v in others[u]:
            covered = np.zeros(n, dtype=bool)
            for w in others[u]:
                rel = float(ccw_angle(dirs[u, v], dirs[u, w]))
                covered[w] = rel <= phi + 1e-9 or rel >= TWO_PI - 1e-9
            row[v] = covered
        cover.append(row)

    cand_ranges = np.unique(dist[np.triu_indices(n, 1)])
    best = np.inf
    top = len(cand_ranges) - 1  # the largest candidate below the incumbent
    for profile in product(*(others[u] for u in range(n))):
        mask = np.stack([cover[u][profile[u]] for u in range(n)])
        np.fill_diagonal(mask, False)
        # Branch and bound: only a range below the incumbent can improve it,
        # and a profile disconnected at the largest such candidate cannot.
        lo, hi = 0, top
        if not _connected_at(mask, dist, float(cand_ranges[hi])):
            continue
        # Binary search the smallest candidate range keeping strong connectivity.
        while lo < hi:
            mid = (lo + hi) // 2
            if _connected_at(mask, dist, float(cand_ranges[mid])):
                hi = mid
            else:
                lo = mid + 1
        best, top = float(cand_ranges[hi]), hi - 1
        if best <= cand_ranges[0] + 1e-12:
            break
    return float(best)


def _connected_at(mask: np.ndarray, dist: np.ndarray, r: float) -> bool:
    adj = mask & (dist <= r + 1e-9 * max(1.0, r))
    src, dst = np.nonzero(adj)
    g = DiGraph(mask.shape[0], np.stack([src, dst], axis=1) if src.size else
                np.empty((0, 2), dtype=np.int64))
    return is_strongly_connected(g)
