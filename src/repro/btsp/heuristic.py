"""Bottleneck-TSP heuristics with a certified lower bound.

``best_tour`` is the entry point: exact DP for tiny instances, otherwise
nearest-neighbour seeding plus bottleneck-aware 2-opt, compared against
:func:`bottleneck_lower_bound` so callers can report approximation quality
honestly (the paper's "range 2" row for k = 1 is evaluated this way).

The lower bound combines two necessities for any Hamiltonian cycle:

* every vertex needs two distinct tour neighbours, so the bottleneck is at
  least every vertex's second-nearest-neighbour distance;
* the threshold graph at the bottleneck must be spanning-biconnected
  (a Hamiltonian cycle is 2-connected), found by binary search.

Both searches are array programs.  The 2-opt scan tests a block of rows
against every column per numpy call.  The biconnectivity search is
bracketed above by a 2-opt tour's bottleneck: it collects the pairs below
that once, as one CSR, and bisects their sorted distances with a mask of
the CSR and one scipy DFS per probe.  The replaced Python loops are kept
in ``tests/btsp_reference.py``; the tests assert that both produce the
same tours and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order

from repro.btsp.exact import held_karp_bottleneck
from repro.geometry.points import PointSet, pairwise_distances

__all__ = [
    "TourResult",
    "nearest_neighbor_tour",
    "two_opt_bottleneck",
    "bottleneck_lower_bound",
    "best_tour",
]

#: Rows in the first block of a 2-opt scan, and the most elements of one
#: ``(rows, n)`` block.
_SCAN_FIRST_ROWS = 8
_SCAN_BLOCK_ELEMS = 1 << 15


@dataclass
class TourResult:
    """A tour plus its quality metrics."""

    order: list[int]
    bottleneck: float
    lower_bound: float
    method: str

    @property
    def ratio(self) -> float:
        """Approximation ratio versus the certified lower bound (≥ 1)."""
        if self.lower_bound <= 0:
            return 1.0
        return self.bottleneck / self.lower_bound


def _coords(points) -> np.ndarray:
    return points.coords if isinstance(points, PointSet) else np.asarray(points, float)


def tour_bottleneck(dist: np.ndarray, order: list[int]) -> float:
    """Longest edge of the closed tour ``order``."""
    n = len(order)
    if n <= 1:
        return 0.0
    idx = np.asarray(order + [order[0]], dtype=np.int64)
    return float(dist[idx[:-1], idx[1:]].max())


def nearest_neighbor_tour(dist: np.ndarray, start: int = 0) -> list[int]:
    """Greedy nearest-neighbour tour (seed for local search)."""
    n = dist.shape[0]
    unvisited = np.ones(n, dtype=bool)
    unvisited[start] = False
    order = [start]
    cur = start
    for _ in range(n - 1):
        masked = np.where(unvisited, dist[cur], np.inf)
        nxt = int(np.argmin(masked))
        order.append(nxt)
        unvisited[nxt] = False
        cur = nxt
    return order


def _first_improving_move(dist: np.ndarray, tour: np.ndarray) -> tuple[int, int] | None:
    """The first improving 2-opt move ``(i, j)`` in row-major order, if any.

    The move replaces the edges at positions ``i`` and ``j`` of the tour,
    ``(a, b)`` and ``(c, d)``, by ``(a, c)`` and ``(b, d)``.  It improves
    when the longer new edge is shorter than the longer old one.
    """
    n = tour.shape[0]
    succ = np.concatenate((tour[1:], tour[:1]))  # succ[j] follows tour[j]
    edge = dist[tour, succ]
    cols = np.arange(n)
    # Improving moves usually sit in the first rows, so the blocks start
    # small and double.
    i0, rows = 0, _SCAN_FIRST_ROWS
    while i0 < n - 1:
        i1 = min(i0 + rows, n - 1)
        new_m = np.maximum(dist[tour[i0:i1, None], tour], dist[succ[i0:i1, None], succ])
        old_m = np.maximum(edge[i0:i1, None], edge)
        hit = (new_m < old_m - 1e-12) & (cols >= np.arange(i0 + 2, i1 + 2)[:, None])
        if i0 == 0:
            hit[0, n - 1] = False  # the first and last edges share tour[0]
        first = int(np.argmax(hit))
        if hit.flat[first]:
            return i0 + first // n, first % n
        i0, rows = i1, min(2 * rows, max(1, _SCAN_BLOCK_ELEMS // n))
    return None


def two_opt_bottleneck(
    dist: np.ndarray, order: list[int], *, max_rounds: int = 60
) -> list[int]:
    """2-opt local search that lowers the tour's long edges.

    Each round applies the first improving move ``(i, j)`` in row-major
    order: it replaces edges ``(a,b),(c,d)`` with ``(a,c),(b,d)`` and
    reverses the middle segment.  A move is improving when it strictly
    lowers the larger of the two touched edges.  Both touched edges are
    tour edges, so a move never raises the bottleneck.
    """
    n = len(order)
    if n < 4:
        return list(order)
    tour = np.array(order, dtype=np.int64)
    for _ in range(max_rounds):
        move = _first_improving_move(dist, tour)
        if move is None:
            break
        i, j = move
        tour[i + 1 : j + 1] = tour[j:i:-1]
    return tour.tolist()


def _second_nearest_bound(dist: np.ndarray) -> float:
    """max over v of (second-smallest positive distance from v)."""
    n = dist.shape[0]
    if n < 3:
        return float(dist.max()) if n == 2 else 0.0
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    two_smallest = np.partition(d, 1, axis=1)[:, :2]
    return float(two_smallest[:, 1].max())


def _threshold_csr(
    dist: np.ndarray, upper: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs at distance ≤ ``upper``, both directions, as a CSR.

    Returns ``(indptr, indices, weights)``; the threshold graph at any
    ``t ≤ upper`` is the mask ``weights <= t`` of it.
    """
    n = dist.shape[0]
    within = dist <= upper
    np.fill_diagonal(within, False)
    src, dst = np.nonzero(within)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(within.sum(axis=1), out=indptr[1:])
    return indptr, dst, dist[src, dst]


def _is_biconnected_at(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray, t: float
) -> bool:
    """Is the threshold graph (edges ≤ t) of a CSR spanning and 2-connected?"""
    n = indptr.shape[0] - 1
    keep = weights <= t
    degree = np.add.reduceat(keep, indptr[:-1], dtype=np.int64)  # rows are non-empty
    if degree.min() < 2:
        return False
    sub_ptr = np.concatenate(([0], np.cumsum(degree)))
    sub_idx = indices[keep]
    graph = csr_matrix((np.ones(sub_idx.size), sub_idx, sub_ptr), shape=(n, n))
    root = 0
    order, parent = depth_first_order(graph, root, directed=True, return_predecessors=True)
    if order.size < n:
        return False  # disconnected
    pre = np.empty(n, dtype=np.int64)
    pre[order] = np.arange(n)
    # low[v]: the smallest preorder number adjacent to v's DFS subtree.  A
    # DFS leaves no cross edges, so a non-root parent p of v is a cut vertex
    # iff low[v] >= pre[p].  Counting the tree edge to p itself adds only
    # pre[p], which leaves that test unchanged.
    low = np.minimum.reduceat(pre[sub_idx], sub_ptr[:-1]).tolist()
    pre_of, parent_of = pre.tolist(), parent.tolist()
    for v in order[:0:-1].tolist():  # reverse preorder: v's subtree is done
        p = parent_of[v]
        if p != root and low[v] >= pre_of[p]:
            return False  # p is a cut vertex
        low[p] = min(low[p], low[v])
    return np.count_nonzero(parent == root) < 2  # else the root is a cut vertex


def _lower_bound(dist: np.ndarray, upper: float) -> float:
    """The certified lower bound, given ``upper``, some Hamiltonian cycle's bottleneck.

    That cycle lies in the threshold graph at ``upper``, which is therefore
    biconnected, so only the pairs up to ``upper`` are candidates.
    Biconnectivity is monotone in the threshold, so the smallest biconnected
    candidate, and with it the bound, does not depend on the bracket.
    Needs ``n ≥ 3``.
    """
    lb = _second_nearest_bound(dist)
    indptr, indices, weights = _threshold_csr(dist, upper)
    cand = np.unique(weights)
    cand = cand[cand >= lb - 1e-12]
    lo, hi = 0, len(cand) - 1  # cand[hi] == upper is biconnected
    while lo < hi:
        mid = (lo + hi) // 2
        if _is_biconnected_at(indptr, indices, weights, float(cand[mid])):
            hi = mid
        else:
            lo = mid + 1
    return max(lb, float(cand[hi]))


def _bracket_tour(dist: np.ndarray) -> tuple[list[int], float]:
    """The 2-opt tour from vertex 0 and its bottleneck, an upper bracket."""
    order = two_opt_bottleneck(dist, nearest_neighbor_tour(dist, 0))
    return order, tour_bottleneck(dist, order)


def bottleneck_lower_bound(points) -> float:
    """Certified lower bound on the bottleneck of any Hamiltonian cycle."""
    coords = _coords(points)
    n = coords.shape[0]
    if n <= 1:
        return 0.0
    dist = pairwise_distances(coords)
    if n == 2:
        return float(dist.max())
    return _lower_bound(dist, _bracket_tour(dist)[1])


def best_tour(points, *, exact_threshold: int = 12, seeds: int = 4) -> TourResult:
    """Best available bottleneck tour for the instance size.

    Exact DP for ``n ≤ exact_threshold``; otherwise multi-start
    nearest-neighbour + bottleneck 2-opt.
    """
    coords = _coords(points)
    n = coords.shape[0]
    if n <= 2:
        lb = bottleneck_lower_bound(points)
        return TourResult(list(range(n)), lb, lb, "trivial")
    dist = pairwise_distances(coords)
    first = _bracket_tour(dist)  # also the first start's tour below
    lb = _lower_bound(dist, first[1])
    if n <= exact_threshold:
        order, bn = held_karp_bottleneck(coords)
        return TourResult(order, bn, lb, "held-karp")
    best_order: list[int] | None = None
    best_bn = np.inf
    starts = np.linspace(0, n - 1, num=min(seeds, n), dtype=int)
    for s in starts:
        if s == 0:
            order, bn = first
        else:
            order = two_opt_bottleneck(dist, nearest_neighbor_tour(dist, int(s)))
            bn = tour_bottleneck(dist, order)
        if bn < best_bn:
            best_bn, best_order = bn, order
        if best_bn <= lb * (1.0 + 1e-9):
            break
    assert best_order is not None
    return TourResult(best_order, float(best_bn), lb, "nn+2opt")
