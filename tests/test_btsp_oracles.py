"""The array bottleneck-tour search against two independent oracles.

* ``tests/btsp_reference.py`` keeps the replaced pure-Python 2-opt loop and
  the dense Hopcroft–Tarjan bisection verbatim: the array versions must
  return the identical tour, bottleneck, lower bound and method.
* networkx decides biconnectivity for the lower bound on small
  hypothesis-drawn point sets, ties and duplicates included.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btsp.heuristic import (
    _is_biconnected_at,
    _second_nearest_bound,
    _threshold_csr,
    best_tour,
    bottleneck_lower_bound,
    nearest_neighbor_tour,
    two_opt_bottleneck,
)
from tests.btsp_reference import (
    best_tour_loop,
    bottleneck_lower_bound_dense,
    two_opt_bottleneck_loop,
)
from repro.experiments.workloads import make_workload, spider_points
from repro.geometry.points import pairwise_distances


def _collinear(n: int, seed: int) -> np.ndarray:
    x = np.sort(np.random.default_rng(seed).random(n))
    return np.stack([x, 2.0 * x], axis=1)


FAMILIES = {
    "random": lambda n, seed: np.random.default_rng(seed).random((n, 2)),
    "uniform": lambda n, seed: make_workload("uniform", n, seed),
    "clustered": lambda n, seed: make_workload("clustered", n, seed),
    "grid": lambda n, seed: make_workload("grid", n, seed),
    "annulus": lambda n, seed: make_workload("annulus", n, seed),
    "collinear": _collinear,
}

#: Trivial, Held–Karp and 2-opt sizes.
SIZES = (2, 3, 4, 7, 12, 13, 24, 40, 70)


def assert_same_tour(new, old) -> None:
    assert new.order == old.order
    assert new.bottleneck == old.bottleneck
    assert new.lower_bound == old.lower_bound
    assert new.method == old.method


class TestAgainstReference:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_best_tour_matches_reference(self, family):
        for n in SIZES:
            coords = FAMILIES[family](n, n)
            assert_same_tour(best_tour(coords), best_tour_loop(coords))

    @pytest.mark.parametrize("legs,leg_len", [(3, 2), (4, 3), (5, 4), (6, 8)])
    def test_spiders_match_reference(self, legs, leg_len):
        coords = spider_points(legs, leg_len)
        assert_same_tour(best_tour(coords), best_tour_loop(coords))

    def test_ties_and_duplicates_match_reference(self):
        exact_grid = np.array([[i % 7, i // 7] for i in range(49)], dtype=float)
        dup = make_workload("uniform", 30, 9)
        for coords in (exact_grid, np.vstack([dup, dup[:8]]), np.zeros((15, 2))):
            assert_same_tour(best_tour(coords), best_tour_loop(coords))
            assert bottleneck_lower_bound(coords) == bottleneck_lower_bound_dense(coords)

    def test_two_opt_matches_loop_from_any_tour(self):
        rng = np.random.default_rng(5)
        for n in (4, 5, 9, 17, 33, 60):
            dist = pairwise_distances(rng.random((n, 2)))
            for max_rounds in (1, 7, 60, 400):
                order = [int(v) for v in rng.permutation(n)]
                assert two_opt_bottleneck(dist, order, max_rounds=max_rounds) == (
                    two_opt_bottleneck_loop(dist, order, max_rounds=max_rounds)
                )
            nn = nearest_neighbor_tour(dist, n // 2)
            assert two_opt_bottleneck(dist, nn) == two_opt_bottleneck_loop(dist, nn)


points = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=9
)


def _nx_biconnected(dist: np.ndarray, t: float) -> bool:
    n = dist.shape[0]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(
        (u, v) for u in range(n) for v in range(u + 1, n) if dist[u, v] <= t
    )
    return nx.is_biconnected(g)


class TestAgainstNetworkx:
    @settings(max_examples=60, deadline=None)
    @given(points)
    def test_lower_bound_is_the_biconnectivity_threshold(self, pts):
        coords = np.asarray(pts, dtype=float)
        n = len(coords)
        dist = pairwise_distances(coords)
        second = _second_nearest_bound(dist)
        cand = np.unique(dist[np.triu_indices(n, 1)])
        threshold = min(
            float(c) for c in cand if c >= second - 1e-12 and _nx_biconnected(dist, c)
        )
        assert bottleneck_lower_bound(coords) == max(second, threshold)

    @settings(max_examples=60, deadline=None)
    @given(points)
    def test_articulation_check_matches_networkx(self, pts):
        dist = pairwise_distances(np.asarray(pts, dtype=float))
        indptr, indices, weights = _threshold_csr(dist, float(dist.max()))
        for t in np.unique(dist):
            assert _is_biconnected_at(indptr, indices, weights, float(t)) == (
                _nx_biconnected(dist, t)
            )
