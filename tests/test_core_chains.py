"""Unit tests for repro.core.chains."""

import numpy as np
import pytest

from repro.core.chains import ChainPartition, arc_chains, best_chain_partition
from repro.errors import InvalidParameterError
from repro.experiments.fig56_chains import adversarial_gap_star

TWO_PI = 2 * np.pi


def dist_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


class TestBestChainPartition:
    def test_empty(self):
        part = best_chain_partition(np.zeros((0, 0)), 2)
        assert part.chains == [] and part.max_edge == 0.0

    def test_singletons_when_budget_allows(self):
        d = dist_matrix(np.random.default_rng(0).random((3, 2)))
        part = best_chain_partition(d, 3)
        assert part.max_edge == 0.0
        assert sorted(map(tuple, part.chains)) == [(0,), (1,), (2,)]

    def test_partition_is_exact_minimax(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = rng.random((5, 2))
            d = dist_matrix(pts)
            part = best_chain_partition(d, 2)
            # Brute-force check against all permutations and split points.
            from itertools import permutations

            best = np.inf
            for perm in permutations(range(5)):
                for cut in range(1, 5):
                    cost = 0.0
                    for chain in (perm[:cut], perm[cut:]):
                        for a, b in zip(chain[:-1], chain[1:]):
                            cost = max(cost, d[a, b])
                    best = min(best, cost)
            assert part.max_edge == pytest.approx(best)

    def test_every_child_appears_once(self):
        d = dist_matrix(np.random.default_rng(2).random((5, 2)))
        part = best_chain_partition(d, 2)
        flat = [c for ch in part.chains for c in ch]
        assert sorted(flat) == [0, 1, 2, 3, 4]

    def test_edges_helper(self):
        part = ChainPartition([[0, 1, 2], [3]], 1.0)
        assert part.edges() == [(0, 1), (1, 2)]
        assert part.n_chains == 2

    def test_invalid_budget(self):
        with pytest.raises(InvalidParameterError):
            best_chain_partition(np.zeros((2, 2)), 0)

    def test_too_many_children(self):
        with pytest.raises(InvalidParameterError):
            best_chain_partition(np.zeros((9, 9)), 2)


class TestArcChains:
    def test_no_big_gap_single_chain(self):
        ang = np.linspace(0, TWO_PI, 6, endpoint=False)
        chains = arc_chains(ang, gap_threshold=TWO_PI)  # nothing is big
        assert len(chains) == 1
        assert sorted(chains[0]) == list(range(6))

    def test_splits_at_big_gaps(self):
        # Two tight clusters separated by two big gaps.
        ang = np.array([0.0, 0.2, 0.4, np.pi, np.pi + 0.2])
        chains = arc_chains(ang, gap_threshold=1.0)
        assert len(chains) == 2
        groups = {frozenset(c) for c in chains}
        assert frozenset({0, 1, 2}) in groups
        assert frozenset({3, 4}) in groups

    def test_runs_are_ccw_consecutive(self):
        ang = np.array([0.0, 0.5, 1.0, 3.0, 3.5])
        chains = arc_chains(ang, gap_threshold=1.5)
        for ch in chains:
            a = ang[ch]
            assert np.all(np.diff(a) > 0)

    def test_empty(self):
        assert arc_chains(np.empty(0), 1.0) == []

    def test_adversarial_star_within_budget_for_k3(self):
        pts = adversarial_gap_star()
        hub, kids = pts[0], pts[1:]
        ang = np.arctan2(kids[:, 1] - hub[1], kids[:, 0] - hub[0])
        chains = arc_chains(ang, 2 * np.pi / 3)
        assert len(chains) <= 2  # the 2+2 split the theorem needs


class TestTheoryGuarantees:
    """Theorems 5 and 6's chain bounds (two chains within √3, three within
    √2) hold on random MST stars."""

    def test_five_children_two_chains_sqrt3(self, rng):
        for _ in range(60):
            ang = np.sort(rng.uniform(0, TWO_PI, 5))
            gaps = np.diff(np.concatenate([ang, [ang[0] + TWO_PI]]))
            if gaps.min() < np.pi / 3:
                continue  # not MST-feasible
            radii = rng.uniform(0.7, 1.0, 5)
            pts = np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1)
            part = best_chain_partition(dist_matrix(pts), 2)
            assert part.max_edge <= np.sqrt(3.0) + 1e-9

    def test_five_children_three_chains_sqrt2(self, rng):
        for _ in range(60):
            ang = np.sort(rng.uniform(0, TWO_PI, 5))
            gaps = np.diff(np.concatenate([ang, [ang[0] + TWO_PI]]))
            if gaps.min() < np.pi / 3:
                continue
            radii = rng.uniform(0.7, 1.0, 5)
            pts = np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1)
            part = best_chain_partition(dist_matrix(pts), 3)
            assert part.max_edge <= np.sqrt(2.0) + 1e-9
