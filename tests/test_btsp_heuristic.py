"""Unit tests for repro.btsp.heuristic."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.btsp.exact import held_karp_bottleneck
from repro.btsp.heuristic import (
    best_tour,
    bottleneck_lower_bound,
    nearest_neighbor_tour,
    tour_bottleneck,
    two_opt_bottleneck,
)
from repro.experiments.workloads import make_workload, spider_points, uniform_points
from repro.geometry.points import PointSet, pairwise_distances

TOUR_FIXTURE = Path(__file__).parent / "fixtures" / "btsp_tours.json"

#: ``(workload, n, seed)`` instances whose ``best_tour`` output is pinned.
PINNED_TOURS = (
    ("uniform", 2, 1),
    ("uniform", 9, 2),
    ("clustered", 12, 3),
    ("uniform", 64, 4),
    ("grid", 81, 5),
    ("annulus", 96, 6),
    ("clustered", 128, 7),
    ("uniform", 200, 8),
)


class TestNearestNeighbor:
    def test_valid_permutation(self, rng):
        coords = rng.random((15, 2))
        d = pairwise_distances(coords)
        order = nearest_neighbor_tour(d, 0)
        assert sorted(order) == list(range(15))

    def test_different_starts(self, rng):
        coords = rng.random((10, 2))
        d = pairwise_distances(coords)
        assert nearest_neighbor_tour(d, 3)[0] == 3


class TestTwoOpt:
    def test_never_worse(self, rng):
        for _ in range(10):
            coords = rng.random((12, 2))
            d = pairwise_distances(coords)
            seed_order = nearest_neighbor_tour(d)
            improved = two_opt_bottleneck(d, seed_order)
            assert tour_bottleneck(d, improved) <= tour_bottleneck(d, seed_order) + 1e-12
            assert sorted(improved) == list(range(12))

    def test_small_instances_passthrough(self, rng):
        d = pairwise_distances(rng.random((3, 2)))
        assert two_opt_bottleneck(d, [0, 1, 2]) == [0, 1, 2]


class TestLowerBound:
    def test_at_most_optimum(self, rng):
        for _ in range(8):
            coords = rng.random((8, 2)) * 4
            lb = bottleneck_lower_bound(coords)
            _, opt = held_karp_bottleneck(coords)
            assert lb <= opt + 1e-9

    def test_square_is_tight(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert bottleneck_lower_bound(pts) == pytest.approx(1.0)

    def test_trivial(self):
        assert bottleneck_lower_bound(np.array([[0.0, 0.0]])) == 0.0


class TestBestTour:
    def test_exact_on_small(self, rng):
        coords = rng.random((9, 2))
        res = best_tour(coords)
        assert res.method == "held-karp"
        _, opt = held_karp_bottleneck(coords)
        assert res.bottleneck == pytest.approx(opt)

    def test_heuristic_on_large(self, rng):
        coords = uniform_points(50, seed=rng)
        res = best_tour(coords)
        assert res.method == "nn+2opt"
        assert sorted(res.order) == list(range(50))
        assert res.ratio >= 1.0 - 1e-12

    def test_quality_on_uniform(self):
        # Heuristic stays within 3x of the certified lower bound here.
        coords = uniform_points(60, seed=11)
        res = best_tour(coords)
        assert res.ratio <= 3.0

    def test_spider_optimum_exceeds_two_lmax(self):
        ps = PointSet(spider_points(3, 2))
        res = best_tour(ps)
        # lmax = 1 for the spider's unit legs.
        assert res.bottleneck > 2.0
        assert res.lower_bound > 2.0


def tour_digest(res) -> str:
    """SHA-256 prefix over a tour's order, exact floats and method."""
    blob = json.dumps(
        {
            "order": [int(v) for v in res.order],
            "bottleneck": float(res.bottleneck).hex(),
            "lower_bound": float(res.lower_bound).hex(),
            "method": res.method,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf8")).hexdigest()[:16]


def pinned_tours() -> list[dict]:
    rows = []
    for workload, n, seed in PINNED_TOURS:
        res = best_tour(make_workload(workload, n, seed))
        rows.append({
            "workload": workload, "n": n, "seed": seed, "method": res.method,
            "bottleneck": res.bottleneck, "lower_bound": res.lower_bound,
            "digest": tour_digest(res),
        })
    return rows


def write_tour_fixture() -> None:
    """Rewrite the pinned fixture; run only for a deliberate change to the tour:
    ``PYTHONPATH=src python -c "from tests.test_btsp_heuristic import
    write_tour_fixture; write_tour_fixture()"``."""
    TOUR_FIXTURE.write_text(json.dumps(pinned_tours(), indent=2) + "\n")


class TestPinnedTours:
    def test_best_tour_matches_fixture(self):
        """Every tour, bottleneck, lower bound and method is pinned; a change to
        any of them must update ``fixtures/btsp_tours.json`` on purpose."""
        assert pinned_tours() == json.loads(TOUR_FIXTURE.read_text())
