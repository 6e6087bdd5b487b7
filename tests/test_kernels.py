"""Tests for the vectorized kernel layer (repro.kernels).

Three concerns:

* **Equivalence** — the batched coverage kernel and the rebuild-free
  critical-range search must be *bit-identical* to the original loop
  kernels preserved in ``tests/kernels_reference.py``, on randomized
  instances mixing finite/infinite radii, full-circle sectors and
  zero-spread rays.
* **Edge cases** — deficient orientations (``inf``), single candidate
  distance, exact distance ties at the bottleneck.
* **Perf regression by counters** — wall-clock is meaningless on the
  single-core CI container, so we assert work counts: ``critical_range``
  performs exactly one covered-pairs computation and O(log m) connectivity
  probes with zero per-probe ``DiGraph`` constructions.
"""

import math

import numpy as np
import pytest

from repro.antenna.coverage import (
    coverage_matrix,
    covered_pairs,
    critical_range,
)
from repro.antenna.model import AntennaAssignment
from repro.geometry.points import PointSet
from repro.geometry.sectors import Sector, radius_tolerance, sector_toward
from repro.graph.connectivity import is_strongly_connected
from repro.graph.digraph import DiGraph
from repro.graph.scc import scc_count, strongly_connected_components
from repro.kernels import (
    polar_tables,
    recording,
    strongly_connected_csr,
    strongly_connected_edges,
)
from tests.kernels_reference import (
    bfs_strongly_connected,
    coverage_matrix_loop,
    critical_range_rebuild,
)


def random_instance(seed: int, n: int | None = None):
    """A random point set plus a random antenna assignment (adversarial mix)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 36)) if n is None else n
    ps = PointSet(rng.random((n, 2)) * 10.0)
    a = AntennaAssignment(n)
    for i in range(n):
        for _ in range(int(rng.integers(0, 4))):
            spread = float(rng.choice([0.0, rng.random() * 2 * np.pi, 2 * np.pi]))
            radius = float(rng.choice([np.inf, rng.random() * 8.0]))
            a.add(i, Sector(float(rng.random() * 7.0), spread, radius))
    return ps, a


def square_ring(radius: float = 100.0):
    """Unit square, each sensor aiming a zero-spread ray at the next."""
    ps = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
    a = AntennaAssignment(4)
    for i in range(4):
        a.add(i, sector_toward(ps[i], ps[(i + 1) % 4], radius=radius))
    return ps, a


class TestCoverageEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("ignore_radius", [False, True])
    def test_bit_identical_to_loop(self, seed, ignore_radius):
        ps, a = random_instance(seed)
        new = coverage_matrix(ps, a, ignore_radius=ignore_radius)
        old = coverage_matrix_loop(ps, a, ignore_radius=ignore_radius)
        assert np.array_equal(new, old)

    def test_precomputed_tables_same_result(self):
        ps, a = random_instance(99)
        tables = polar_tables(ps.coords)
        assert np.array_equal(
            coverage_matrix(ps, a, tables=tables), coverage_matrix(ps, a)
        )

    def test_tables_size_mismatch_rejected(self):
        ps, a = random_instance(7)
        wrong = polar_tables(np.random.default_rng(0).random((len(ps) + 1, 2)))
        with pytest.raises(ValueError):
            coverage_matrix(ps, a, tables=wrong)

    def test_empty_assignment(self):
        ps, _ = random_instance(3)
        cover = coverage_matrix(ps, AntennaAssignment(len(ps)))
        assert cover.shape == (len(ps), len(ps)) and not cover.any()

    def test_covered_pairs_distances_from_tables(self):
        ps, a = random_instance(5)
        pairs, dists = covered_pairs(ps, a)
        if pairs.size:
            diff = ps.coords[pairs[:, 0]] - ps.coords[pairs[:, 1]]
            assert np.array_equal(dists, np.hypot(diff[:, 0], diff[:, 1]))


class TestCriticalEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_rebuild(self, seed):
        ps, a = random_instance(seed)
        new = critical_range(ps, a)
        old = critical_range_rebuild(ps, a)
        assert new == old or (math.isinf(new) and math.isinf(old))

    def test_deficient_orientation_is_inf(self):
        # One antenna total: nobody can reach sensor 0, at any radius.
        ps = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
        a = AntennaAssignment(4)
        a.add(0, sector_toward(ps[0], ps[1]))
        assert critical_range(ps, a) == np.inf

    def test_no_antennae_is_inf(self):
        ps = PointSet([[0, 0], [1, 0]])
        assert critical_range(ps, AntennaAssignment(2)) == np.inf

    def test_single_candidate_distance(self):
        # Two sensors aiming rays at each other: exactly one candidate.
        ps = PointSet([[0, 0], [3, 4]])
        a = AntennaAssignment(2)
        a.add(0, sector_toward(ps[0], ps[1]))
        a.add(1, sector_toward(ps[1], ps[0]))
        with recording() as rec:
            assert critical_range(ps, a) == 5.0
        # One candidate => the top-of-range feasibility probe is the search.
        assert rec.connectivity_probes == 1

    def test_exact_tie_distances_at_bottleneck(self):
        # All four ring edges have length exactly 1: the bottleneck is a
        # 4-way tie and must collapse to a single candidate value.
        ps, a = square_ring()
        assert critical_range(ps, a) == 1.0

    def test_single_point_zero(self):
        assert critical_range(PointSet([[0.0, 0.0]]), AntennaAssignment(1)) == 0.0

    def test_scales_with_instance(self):
        ps, _ = square_ring()
        big = PointSet(ps.coords * 7.0)
        a = AntennaAssignment(4)
        for i in range(4):
            a.add(i, sector_toward(big[i], big[(i + 1) % 4]))
        assert critical_range(big, a) == pytest.approx(7.0)


class TestCriticalCounters:
    """The acceptance criterion: 1 covered-pairs pass, O(log m) probes, 0 builds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rebuild_free_search(self, seed):
        ps, a = random_instance(seed, n=30)
        pairs, dists = covered_pairs(ps, a)
        if pairs.shape[0] == 0:
            pytest.skip("degenerate draw: no covered pairs")
        ncand = np.unique(dists).size
        with recording() as rec:
            critical_range(ps, a)
        assert rec.graph_builds == 0  # zero per-probe DiGraph constructions
        assert rec.coverage_calls == 1  # exactly one covered-pairs computation
        assert rec.polar_builds == 1
        assert rec.critical_searches == 1
        # 1 feasibility probe + ceil(log2(ncand)) bisection probes at most.
        assert rec.connectivity_probes <= 1 + math.ceil(math.log2(max(ncand, 1))) + 1

    def test_shared_tables_skip_trig(self):
        ps, a = random_instance(4, n=20)
        tables = polar_tables(ps.coords)
        with recording() as rec:
            critical_range(ps, a, tables=tables)
            coverage_matrix(ps, a, tables=tables)
        assert rec.polar_builds == 0
        assert rec.trig_evals == 0

    def test_reference_kernel_rebuilds_per_probe(self):
        # The old search really did build one DiGraph per probe — the
        # counter contrast the benchmarks report.
        ps, a = square_ring()
        with recording() as rec:
            critical_range_rebuild(ps, a)
        assert rec.graph_builds >= 1
        with recording() as rec:
            critical_range(ps, a)
        assert rec.graph_builds == 0


class TestConnectivityKernels:
    @pytest.mark.parametrize("seed", range(8))
    def test_edges_kernel_matches_digraph_check(self, seed):
        rng = np.random.default_rng(seed)
        n = 25
        e = rng.integers(0, n, size=(int(rng.integers(0, 120)), 2))
        e = e[e[:, 0] != e[:, 1]]
        e = np.unique(e, axis=0) if e.size else e.reshape(0, 2)
        g = DiGraph(n, e)
        assert strongly_connected_edges(n, e[:, 0], e[:, 1]) == is_strongly_connected(g)

    def test_bfs_fallback_agrees_with_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            e = rng.integers(0, 12, size=(40, 2))
            e = e[e[:, 0] != e[:, 1]]
            g = DiGraph(12, e)
            indptr, indices = g.csr()
            scipy_ans = strongly_connected_csr(12, indptr, indices)
            assert scipy_ans == bfs_strongly_connected(g)

    def test_trivial_sizes(self):
        assert strongly_connected_csr(0, np.zeros(1, np.int64), np.zeros(0, np.int64))
        assert strongly_connected_csr(1, np.zeros(2, np.int64), np.zeros(0, np.int64))
        assert strongly_connected_edges(2, np.array([0, 1]), np.array([1, 0]))
        assert not strongly_connected_edges(2, np.array([0]), np.array([1]))

    @pytest.mark.parametrize("seed", range(5))
    def test_scc_count_matches_tarjan(self, seed):
        rng = np.random.default_rng(seed)
        e = rng.integers(0, 30, size=(70, 2))
        e = e[e[:, 0] != e[:, 1]]
        g = DiGraph(30, e)
        tarjan = int(strongly_connected_components(g).max()) + 1
        assert scc_count(g) == tarjan

    def test_scc_count_empty(self):
        assert scc_count(DiGraph(0)) == 0


class TestRadiusTolerance:
    def test_matches_legacy_scalar_rule(self):
        eps = 1e-9
        assert radius_tolerance(0.5, eps) == eps * 1.0
        assert radius_tolerance(3.0, eps) == eps * 3.0
        assert radius_tolerance(np.inf, eps) == eps  # inf contributes no scaling

    def test_vectorized(self):
        out = radius_tolerance(np.array([0.25, 2.0, np.inf]), 1e-6)
        assert np.allclose(out, [1e-6, 2e-6, 1e-6])

    def test_sector_and_kernel_agree_at_boundary(self):
        # A point exactly at radius + tol/2 must be covered by both paths.
        eps = 1e-9
        r = 2.0
        ps = PointSet([[0.0, 0.0], [r + radius_tolerance(r, eps) / 2, 0.0]])
        a = AntennaAssignment(2)
        sec = Sector(-0.1, 0.2, r)
        a.add(0, sec)
        cover = coverage_matrix(ps, a, eps=eps)
        assert bool(cover[0, 1]) == sec.covers_point(ps[0], ps[1], eps=eps) == True  # noqa: E712


class TestPolarTables:
    def test_tables_match_rowwise_geometry(self):
        rng = np.random.default_rng(2)
        c = rng.random((17, 2)) * 5
        t = polar_tables(c)
        ps = PointSet(c)
        for u in (0, 7, 16):
            assert np.array_equal(t.dist[u], ps.distances_from(u))
            assert np.array_equal(t.ang[u], ps.angles_from(u))

    def test_read_only(self):
        t = polar_tables(np.random.default_rng(0).random((5, 2)))
        with pytest.raises(ValueError):
            t.dist[0, 0] = 1.0

    def test_counts_one_build(self):
        with recording() as rec:
            polar_tables(np.random.default_rng(1).random((9, 2)))
        assert rec.polar_builds == 1
        assert rec.trig_evals == 81
