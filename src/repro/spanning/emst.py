"""Euclidean minimum spanning trees with maximum degree ≤ 5.

The paper relies on a well-known geometric fact: every planar point set has
an MST of maximum degree at most 5 (two MST edges at a vertex subtend an
angle ≥ π/3, with equality only under distance ties).  We realize this as:

1. fast path: Kruskal restricted to Delaunay edges (the EMST is a subgraph
   of the Delaunay triangulation), O(n log n);
2. fallback for degenerate inputs (collinear, tiny n): dense Prim;
3. tie repair (:mod:`repro.spanning.degree_repair`) if any vertex ends up
   with degree 6 — only possible under exact distance ties — followed by a
   deterministic-jitter rebuild as a last resort.

A :class:`SpanningTree` stores edges, lengths, ``lmax`` (the paper's
normalization unit) and an adjacency structure reused by all orientation
algorithms: neighbour lists for the per-vertex builders, and the same
neighbours as an arc CSR (:class:`TreeArcs`) for the array-native ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from repro.errors import DegreeBoundError, InvalidPointSetError
from repro.geometry.points import PointSet
from repro.spanning.union_find import UnionFind

__all__ = [
    "SpanningTree",
    "TreeArcs",
    "euclidean_mst",
    "prim_mst_edges",
    "kruskal_on_edges",
]


class TreeArcs(NamedTuple):
    """Both directions of every tree edge, grouped by source vertex.

    The arcs leaving ``v`` are ``src[indptr[v]:indptr[v + 1]]`` (all equal
    to ``v``) and ``dst[...]``, in ``adjacency()[v]`` order.  Read-only.
    """

    indptr: np.ndarray
    src: np.ndarray
    dst: np.ndarray


@dataclass
class SpanningTree:
    """A spanning tree over a :class:`PointSet`.

    Attributes
    ----------
    points:
        The underlying point set.
    edges:
        ``(n-1, 2)`` int array of undirected edges ``(u, v)`` with ``u < v``.
    lengths:
        Euclidean length of each edge.
    """

    points: PointSet
    edges: np.ndarray
    lengths: np.ndarray = field(default=None)  # type: ignore[assignment]
    _adj: list[list[int]] = field(default=None, repr=False)  # type: ignore[assignment]
    _arcs: TreeArcs = field(default=None, repr=False)  # type: ignore[assignment]
    _degrees: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        n = len(self.points)
        if self.edges.shape[0] != max(n - 1, 0):
            raise InvalidPointSetError(
                f"a spanning tree over {n} points needs {n - 1} edges, "
                f"got {self.edges.shape[0]}"
            )
        self.edges = np.sort(self.edges, axis=1)
        if self.lengths is None:
            diff = self.points.coords[self.edges[:, 0]] - self.points.coords[self.edges[:, 1]]
            self.lengths = np.hypot(diff[:, 0], diff[:, 1])
        self.lengths = np.asarray(self.lengths, dtype=float)
        self._adj = None
        self._arcs = None
        self._degrees = None
        self._validate_tree()

    def _validate_tree(self) -> None:
        n = len(self.points)
        if n == 1:
            return
        # n - 1 edges form a spanning tree iff they leave one component: one
        # scipy call.  The union-find replay runs only to name the failure.
        graph = csr_matrix(
            (np.ones(n - 1), (self.edges[:, 0], self.edges[:, 1])), shape=(n, n)
        )
        if connected_components(graph, directed=False, return_labels=False) == 1:
            return
        uf = UnionFind(n)
        for u, v in self.edges:
            if not uf.union(int(u), int(v)):
                raise InvalidPointSetError(f"edge ({u}, {v}) creates a cycle")
        if uf.components != 1:
            raise InvalidPointSetError("edges do not span all points")

    # -- structure ----------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def lmax(self) -> float:
        """Longest edge length — the paper's normalization unit (lmax)."""
        return float(self.lengths.max()) if self.lengths.size else 0.0

    @property
    def total_weight(self) -> float:
        return float(self.lengths.sum())

    def adjacency(self) -> list[list[int]]:
        """Neighbour lists (cached); ``adjacency()[u]`` lists u's neighbours.

        Each list follows the order of the edges in ``edges``.
        """
        if self._adj is None:
            arcs = self.arcs()
            dst, ptr = arcs.dst.tolist(), arcs.indptr.tolist()
            self._adj = [dst[a:b] for a, b in zip(ptr[:-1], ptr[1:])]
        return self._adj

    def arcs(self) -> TreeArcs:
        """The arc CSR of the tree (cached), in :meth:`adjacency` order."""
        if self._arcs is None:
            # Arc 2i is edge i forwards, arc 2i+1 backwards; a stable sort
            # by source keeps each vertex's arcs in edge order.
            src = self.edges.reshape(-1)
            dst = self.edges[:, ::-1].reshape(-1)
            order = np.argsort(src, kind="stable")
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
            arcs = TreeArcs(indptr, src[order], dst[order])
            for arr in arcs:
                arr.setflags(write=False)
            self._arcs = arcs
        return self._arcs

    def degrees(self) -> np.ndarray:
        """Vertex degrees (cached; repeated ``leaves()``/``max_degree()`` are free)."""
        if self._degrees is None:
            deg = np.bincount(self.edges.ravel(), minlength=self.n)
            deg.setflags(write=False)
            self._degrees = deg
        return self._degrees

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n > 1 else 0

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(u), int(v)) for u, v in self.edges}

    def leaves(self) -> np.ndarray:
        """Indices of degree-1 vertices (any leaf may serve as the root RT)."""
        if self.n == 1:
            return np.array([0], dtype=np.int64)
        return np.flatnonzero(self.degrees() == 1)

    def replace_edge(self, old: tuple[int, int], new: tuple[int, int]) -> "SpanningTree":
        """Return a new tree with ``old`` swapped for ``new`` (must stay a tree)."""
        u, v = sorted(int(x) for x in old)
        keep = ~((self.edges[:, 0] == u) & (self.edges[:, 1] == v))
        if keep.all():
            raise KeyError(f"edge {old} not in tree")
        edges = np.vstack([self.edges[keep], np.sort(np.asarray(new, dtype=np.int64))])
        return SpanningTree(self.points, edges)


def kruskal_on_edges(
    n: int, cand: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Kruskal over candidate edges; returns the chosen ``(n-1, 2)`` edges.

    Ties are broken deterministically by (weight, u, v) so repeated runs give
    identical trees.  Each candidate's 1-based rank in that order is its
    weight for ``scipy``'s minimum spanning tree: the ranks are distinct
    integers, exact in float64, so the minimum spanning tree is unique and
    is Kruskal's; the chosen edges come back in rank order, Kruskal's
    output order.
    """
    cand = np.asarray(cand, dtype=np.int64).reshape(-1, 2)
    cand = np.sort(cand, axis=1)
    order = np.lexsort((cand[:, 1], cand[:, 0], weights))
    ranked = cand[order]
    # Kruskal takes a pair's first occurrence in rank order and never a
    # loop; only those enter the graph.  Their keys come out of np.unique
    # sorted by (u, v): already the CSR's row order.
    _, first = np.unique(ranked[:, 0] * np.int64(n) + ranked[:, 1], return_index=True)
    first = first[ranked[first, 0] != ranked[first, 1]]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ranked[first, 0], minlength=n), out=indptr[1:])
    graph = csr_matrix((first + 1.0, ranked[first, 1], indptr), shape=(n, n))
    tree = minimum_spanning_tree(graph, overwrite=True)
    if tree.nnz != n - 1:
        raise InvalidPointSetError("candidate edges do not connect the point set")
    return ranked[np.sort(tree.data).astype(np.int64) - 1]


def prim_mst_edges(coords: np.ndarray) -> np.ndarray:
    """Dense O(n²) Prim — robust fallback for degenerate configurations.

    Vectorized: one distance row per extraction, no Python inner loop over
    candidate edges.
    """
    c = np.asarray(coords, dtype=float)
    n = c.shape[0]
    if n <= 1:
        return np.empty((0, 2), dtype=np.int64)
    in_tree = np.zeros(n, dtype=bool)
    best_dist = np.full(n, np.inf)
    best_from = np.full(n, -1, dtype=np.int64)
    in_tree[0] = True
    diff = c - c[0]
    best_dist = np.hypot(diff[:, 0], diff[:, 1])
    best_from[:] = 0
    best_dist[0] = np.inf
    edges = []
    for _ in range(n - 1):
        nxt = int(np.argmin(np.where(in_tree, np.inf, best_dist)))
        edges.append((int(best_from[nxt]), nxt))
        in_tree[nxt] = True
        diff = c - c[nxt]
        d = np.hypot(diff[:, 0], diff[:, 1])
        closer = (~in_tree) & (d < best_dist)
        best_dist[closer] = d[closer]
        best_from[closer] = nxt
    return np.asarray(edges, dtype=np.int64)


def _delaunay_candidate_edges(coords: np.ndarray) -> np.ndarray | None:
    """Unique Delaunay edges, or None if qhull cannot triangulate."""
    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(coords)
    except (QhullError, ValueError):
        return None
    simplices = tri.simplices
    e = np.vstack(
        [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]]
    )
    e = np.sort(e, axis=1)
    # One int64 key per edge, u·n + v: sorted unique keys are the rows of
    # np.unique(e, axis=0), in the same (u, v) order.
    n = np.int64(coords.shape[0])
    keys = np.unique(e[:, 0].astype(np.int64) * n + e[:, 1])
    return np.stack([keys // n, keys % n], axis=1)


def euclidean_mst(
    points: PointSet | np.ndarray,
    *,
    max_degree: int | None = 5,
    _jitter_attempts: int = 3,
) -> SpanningTree:
    """Compute a Euclidean MST, enforcing ``max_degree`` (default 5).

    Parameters
    ----------
    points:
        A :class:`PointSet` or raw ``(n, 2)`` coordinates.
    max_degree:
        If not None, repair distance ties so no vertex exceeds this degree
        (5 always suffices for MSTs of distinct points; the module
        docstring gives the reason and :mod:`repro.spanning.degree_repair`
        the repair).

    Returns
    -------
    SpanningTree
    """
    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if n == 1:
        return SpanningTree(ps, np.empty((0, 2), dtype=np.int64))

    coords = ps.coords
    cand = _delaunay_candidate_edges(coords) if n >= 4 else None
    if cand is not None:
        diff = coords[cand[:, 0]] - coords[cand[:, 1]]
        w = np.hypot(diff[:, 0], diff[:, 1])
        try:
            edges = kruskal_on_edges(n, cand, w)
        except InvalidPointSetError:
            # Near-degenerate inputs (e.g. almost-collinear points) can make
            # qhull return a triangulation whose edges miss some points
            # entirely; dense Prim is always correct there.
            edges = prim_mst_edges(coords)
    else:
        edges = prim_mst_edges(coords)
    tree = SpanningTree(ps, edges)

    if max_degree is None or tree.max_degree() <= max_degree:
        return tree

    from repro.spanning.degree_repair import repair_degree

    tree = repair_degree(tree, max_degree=max_degree)
    if tree.max_degree() <= max_degree:
        return tree

    # Exact-tie pathologies (e.g. perfect hexagonal lattices): deterministic
    # tiny jitter breaks ties; the tree topology on the jittered points is a
    # valid MST of the original points up to the jitter magnitude.
    rng = np.random.default_rng(0xD15EA5E)
    scale = float(np.max(np.abs(coords))) or 1.0
    for attempt in range(_jitter_attempts):
        jitter = rng.normal(scale=scale * 1e-9 * (10.0**attempt), size=coords.shape)
        jittered = PointSet(coords + jitter)
        jt = euclidean_mst(jittered, max_degree=None)
        candidate = SpanningTree(ps, jt.edges)
        candidate = repair_degree(candidate, max_degree=max_degree)
        if candidate.max_degree() <= max_degree:
            return candidate
    raise DegreeBoundError(
        f"could not reduce MST maximum degree to {max_degree} "
        f"(stuck at {tree.max_degree()})"
    )
