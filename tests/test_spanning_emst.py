"""Unit tests for repro.spanning.emst (including the networkx oracle)."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import InvalidPointSetError
from repro.experiments.workloads import hexagonal_lattice
from repro.geometry.points import PointSet
from repro.spanning.emst import (
    SpanningTree,
    euclidean_mst,
    kruskal_on_edges,
    prim_mst_edges,
)


def nx_mst_weight(coords: np.ndarray) -> float:
    g = nx.Graph()
    n = coords.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j, weight=float(np.hypot(*(coords[i] - coords[j]))))
    t = nx.minimum_spanning_tree(g)
    return sum(d["weight"] for _, _, d in t.edges(data=True))


class TestSpanningTreeStructure:
    def test_edge_count_enforced(self):
        ps = PointSet([[0, 0], [1, 0], [2, 0]])
        with pytest.raises(InvalidPointSetError):
            SpanningTree(ps, np.array([[0, 1]]))

    def test_cycle_rejected(self):
        ps = PointSet([[0, 0], [1, 0], [2, 0], [3, 0]])
        with pytest.raises(InvalidPointSetError):
            SpanningTree(ps, np.array([[0, 1], [1, 2], [0, 2]]))

    def test_disconnected_rejected(self):
        ps = PointSet([[0, 0], [1, 0], [5, 0], [6, 0]])
        with pytest.raises(InvalidPointSetError):
            SpanningTree(ps, np.array([[0, 1], [2, 3], [2, 3]]))

    def test_lengths_computed(self):
        ps = PointSet([[0, 0], [3, 4]])
        t = SpanningTree(ps, np.array([[0, 1]]))
        assert t.lengths[0] == pytest.approx(5.0)
        assert t.lmax == pytest.approx(5.0)

    def test_adjacency_and_degrees(self):
        ps = PointSet([[0, 0], [1, 0], [2, 0]])
        t = SpanningTree(ps, np.array([[0, 1], [1, 2]]))
        assert t.adjacency()[1] == [0, 2]
        assert list(t.degrees()) == [1, 2, 1]
        assert t.max_degree() == 2
        assert set(t.leaves()) == {0, 2}

    def test_arcs_follow_adjacency(self, rng):
        t = euclidean_mst(PointSet(rng.random((40, 2))))
        arcs = t.arcs()
        assert arcs is t.arcs()
        assert arcs.indptr[0] == 0 and arcs.indptr[-1] == 2 * (t.n - 1)
        for v, nbrs in enumerate(t.adjacency()):
            lo, hi = arcs.indptr[v], arcs.indptr[v + 1]
            assert arcs.src[lo:hi].tolist() == [v] * len(nbrs)
            assert arcs.dst[lo:hi].tolist() == nbrs
        with pytest.raises(ValueError):
            arcs.dst[0] = 0
        single = euclidean_mst(PointSet([[0.0, 0.0]])).arcs()
        assert single.indptr.tolist() == [0, 0] and single.dst.size == 0

    def test_replace_edge(self):
        ps = PointSet([[0, 0], [1, 0], [1, 1]])
        t = SpanningTree(ps, np.array([[0, 1], [1, 2]]))
        t2 = t.replace_edge((1, 2), (0, 2))
        assert (0, 2) in t2.edge_set()
        assert (1, 2) not in t2.edge_set()
        with pytest.raises(KeyError):
            t.replace_edge((0, 2), (1, 2))

    def test_single_point(self):
        t = euclidean_mst(PointSet([[0.0, 0.0]]))
        assert t.edges.shape == (0, 2)
        assert t.lmax == 0.0


class TestEuclideanMst:
    @pytest.mark.parametrize("n", [2, 3, 5, 20, 60])
    def test_weight_matches_networkx(self, n, rng):
        coords = rng.random((n, 2)) * 10
        tree = euclidean_mst(PointSet(coords))
        assert tree.total_weight == pytest.approx(nx_mst_weight(coords), rel=1e-9)

    def test_collinear_points_fall_back(self):
        coords = np.stack([np.arange(10.0), np.zeros(10)], axis=1)
        tree = euclidean_mst(PointSet(coords))
        assert tree.total_weight == pytest.approx(9.0)
        assert tree.max_degree() == 2

    def test_max_degree_five_generic(self, rng):
        for _ in range(5):
            coords = rng.random((80, 2))
            assert euclidean_mst(PointSet(coords)).max_degree() <= 5

    def test_hexagonal_ties_repaired(self):
        tree = euclidean_mst(PointSet(hexagonal_lattice(2)))
        assert tree.max_degree() <= 5
        # Weight must equal the unrepaired MST weight (ties swap at equal length).
        raw = euclidean_mst(PointSet(hexagonal_lattice(2)), max_degree=None)
        assert tree.total_weight == pytest.approx(raw.total_weight, rel=1e-9)

    def test_prim_matches_kruskal(self, rng):
        coords = rng.random((30, 2)) * 4
        prim_edges = prim_mst_edges(coords)
        ps = PointSet(coords)
        t_prim = SpanningTree(ps, prim_edges)
        t_delaunay = euclidean_mst(ps, max_degree=None)
        assert t_prim.total_weight == pytest.approx(t_delaunay.total_weight, rel=1e-9)

    def test_accepts_raw_arrays(self, rng):
        tree = euclidean_mst(rng.random((12, 2)))
        assert tree.n == 12


class TestKruskalOnEdges:
    def test_disconnected_candidates_raise(self):
        with pytest.raises(InvalidPointSetError):
            kruskal_on_edges(4, np.array([[0, 1], [2, 3]]), np.array([1.0, 1.0]))

    def test_deterministic_tie_breaking(self):
        cand = np.array([[0, 1], [1, 2], [0, 2]])
        w = np.array([1.0, 1.0, 1.0])
        e1 = kruskal_on_edges(3, cand, w)
        e2 = kruskal_on_edges(3, cand, w)
        assert np.array_equal(e1, e2)


class TestDegenerateDelaunayFallback:
    def test_near_collinear_qhull_gap_falls_back_to_prim(self):
        # Hypothesis-discovered: qhull triangulates this almost-collinear set
        # but the resulting edges miss a point, so Delaunay-restricted
        # Kruskal cannot span; euclidean_mst must fall back to dense Prim.
        coords = [
            (0.0, 0.0),
            (0.0, 1.0),
            (5.960464477539063e-08, 0.0),
            (1e-07, 0.0),
        ]
        tree = euclidean_mst(PointSet(coords))
        assert tree.n == 4
        assert tree.max_degree() <= 5


class TestSpanningTreeCaches:
    def test_degrees_cached_and_reused(self):
        ps = PointSet([[0, 0], [1, 0], [2, 0], [2, 1]])
        tree = SpanningTree(ps, [[0, 1], [1, 2], [2, 3]])
        d1 = tree.degrees()
        assert d1 is tree.degrees()  # cached object, not recomputed
        assert list(d1) == [1, 2, 2, 1]
        assert list(tree.leaves()) == [0, 3]
        assert tree.max_degree() == 2

    def test_replace_edge_vectorized_semantics(self):
        ps = PointSet([[0, 0], [1, 0], [2, 0], [2, 1]])
        tree = SpanningTree(ps, [[0, 1], [1, 2], [2, 3]])
        # Accepts either endpoint order for the old edge.
        swapped = tree.replace_edge((2, 1), (0, 2))
        assert {(0, 1), (0, 2), (2, 3)} == swapped.edge_set()
        # Fresh caches on the new tree.
        assert list(swapped.degrees()) == [2, 1, 2, 1]
        with pytest.raises(KeyError):
            tree.replace_edge((0, 3), (0, 2))
