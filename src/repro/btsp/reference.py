"""Reference (pre-vectorization) bottleneck-tour search, kept as a test oracle.

These are the exact implementations :mod:`repro.btsp.heuristic` replaced:
the pure-Python 2-opt double loop, and the lower bound's bisection over
every pair distance with a Python Hopcroft–Tarjan articulation check per
probe.  ``tests/test_btsp_oracles.py`` runs them against the array versions
and asserts identical tours and bounds.  Do not "optimize" this module; its
value is being the unchanged original.

Not imported by the library itself (tests only).
"""

from __future__ import annotations

import numpy as np

from repro.btsp.exact import held_karp_bottleneck
from repro.btsp.heuristic import (
    TourResult,
    _coords,
    _second_nearest_bound,
    nearest_neighbor_tour,
    tour_bottleneck,
)
from repro.geometry.points import pairwise_distances

__all__ = [
    "two_opt_bottleneck_loop",
    "is_biconnected_at_loop",
    "bottleneck_lower_bound_dense",
    "best_tour_loop",
]


def two_opt_bottleneck_loop(
    dist: np.ndarray, order: list[int], *, max_rounds: int = 60
) -> list[int]:
    """2-opt local search minimizing (bottleneck, total length) lexicographically.

    A 2-opt move replaces edges (a,b),(c,d) with (a,c),(b,d) and reverses the
    middle segment; it is accepted if it strictly improves the objective.
    """
    n = len(order)
    if n < 4:
        return list(order)
    tour = list(order)

    def edge(i: int) -> float:
        return float(dist[tour[i], tour[(i + 1) % n]])

    for _ in range(max_rounds):
        improved = False
        current_bn = tour_bottleneck(dist, tour)
        for i in range(n - 1):
            a, b = tour[i], tour[i + 1]
            d_ab = float(dist[a, b])
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                c, d = tour[j], tour[(j + 1) % n]
                d_cd = float(dist[c, d])
                d_ac = float(dist[a, c])
                d_bd = float(dist[b, d])
                old_m = max(d_ab, d_cd)
                new_m = max(d_ac, d_bd)
                # Accept if it lowers the larger of the two touched edges and
                # does not create a new global bottleneck.
                if new_m < old_m - 1e-12 and (
                    old_m >= current_bn - 1e-12 or new_m < current_bn
                ):
                    tour[i + 1 : j + 1] = reversed(tour[i + 1 : j + 1])
                    improved = True
                    current_bn = tour_bottleneck(dist, tour)
                    break
            if improved:
                break
        if not improved:
            break
    return tour


def is_biconnected_at_loop(dist: np.ndarray, t: float) -> bool:
    """Is the threshold graph (edges ≤ t) spanning and 2-connected?"""
    n = dist.shape[0]
    if n < 3:
        return bool(np.all(dist[np.triu_indices(n, 1)] <= t)) if n == 2 else True
    adj = [np.flatnonzero((dist[v] <= t) & (np.arange(n) != v)) for v in range(n)]
    if any(len(a) < 2 for a in adj):
        return False
    # Iterative Hopcroft–Tarjan articulation check.
    disc = np.full(n, -1)
    low = np.zeros(n, dtype=np.int64)
    parent = np.full(n, -1)
    timer = 0
    stack = [(0, 0)]
    disc[0] = low[0] = timer
    timer += 1
    root_children = 0
    it = [0] * n
    while stack:
        u, _ = stack[-1]
        if it[u] < len(adj[u]):
            v = int(adj[u][it[u]])
            it[u] += 1
            if disc[v] == -1:
                parent[v] = u
                disc[v] = low[v] = timer
                timer += 1
                if u == 0:
                    root_children += 1
                stack.append((v, 0))
            elif v != parent[u]:
                low[u] = min(low[u], disc[v])
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if p != 0 and low[u] >= disc[p]:
                    return False  # articulation point
    if np.any(disc == -1):
        return False  # disconnected
    return root_children < 2


def bottleneck_lower_bound_dense(points) -> float:
    """Certified lower bound on the bottleneck of any Hamiltonian cycle."""
    coords = _coords(points)
    n = coords.shape[0]
    if n <= 1:
        return 0.0
    dist = pairwise_distances(coords)
    lb = _second_nearest_bound(dist)
    # Binary search the biconnectivity threshold over candidate distances.
    cand = np.unique(dist[np.triu_indices(n, 1)])
    cand = cand[cand >= lb - 1e-12]
    lo, hi = 0, len(cand) - 1
    if hi < 0 or is_biconnected_at_loop(dist, float(cand[0]) if len(cand) else 0.0):
        return max(lb, float(cand[0]) if len(cand) else lb)
    while lo < hi:
        mid = (lo + hi) // 2
        if is_biconnected_at_loop(dist, float(cand[mid])):
            hi = mid
        else:
            lo = mid + 1
    return max(lb, float(cand[hi]))


def best_tour_loop(points, *, exact_threshold: int = 12, seeds: int = 4) -> TourResult:
    """Best available bottleneck tour for the instance size.

    Exact DP for ``n ≤ exact_threshold``; otherwise multi-start
    nearest-neighbour + bottleneck 2-opt.
    """
    coords = _coords(points)
    n = coords.shape[0]
    lb = bottleneck_lower_bound_dense(points)
    if n <= 2:
        return TourResult(list(range(n)), lb, lb, "trivial")
    dist = pairwise_distances(coords)
    if n <= exact_threshold:
        order, bn = held_karp_bottleneck(coords)
        return TourResult(order, bn, lb, "held-karp")
    best_order: list[int] | None = None
    best_bn = np.inf
    starts = np.linspace(0, n - 1, num=min(seeds, n), dtype=int)
    for s in starts:
        order = nearest_neighbor_tour(dist, int(s))
        order = two_opt_bottleneck_loop(dist, order)
        bn = tour_bottleneck(dist, order)
        if bn < best_bn:
            best_bn, best_order = bn, order
        if best_bn <= lb * (1.0 + 1e-9):
            break
    assert best_order is not None
    return TourResult(best_order, float(best_bn), lb, "nn+2opt")
