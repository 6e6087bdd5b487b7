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
  performs exactly one angular-mask pass and O(log m) connectivity probes
  with zero per-probe ``DiGraph`` constructions.
"""

import math

import numpy as np
import pytest

from repro.antenna.coverage import coverage_matrix, critical_range
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
from repro.kernels.critical import _critical_search_impl
from tests.kernels_reference import (
    bfs_strongly_connected,
    coverage_matrix_loop,
    critical_range_rebuild,
    critical_range_rebuild_symmetric,
    critical_search_reference,
    mutual_mask,
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


def wide_instance(seed: int):
    """A random point set in which every sensor holds 1–2 antennae of
    spread at least π/2 (some full circles), and some sensors also a ray
    aimed exactly at another sensor.  Most critical ranges are finite,
    unlike :func:`random_instance`'s, whose sensors without antennae make
    most of them ``inf``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 36))
    ps = PointSet(rng.random((n, 2)) * 10.0)
    a = AntennaAssignment(n)
    for i in range(n):
        for _ in range(int(rng.integers(1, 3))):
            spread = float(rng.choice([np.pi * (0.5 + 1.5 * rng.random()), 2 * np.pi]))
            radius = float(rng.choice([np.inf, rng.random() * 8.0]))
            a.add(i, Sector(float(rng.random() * 2 * np.pi), spread, radius))
        if rng.random() < 0.3:
            j = int(rng.integers(0, n - 1))
            a.add(i, sector_toward(ps[i], ps[j + (j >= i)]))
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
        # Infinite radii are the kernel's angular-only mask.
        new = coverage_matrix(ps, a.with_uniform_radius(np.inf) if ignore_radius else a)
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


def same_range(new: float, old: float) -> bool:
    return new == old or (math.isinf(new) and math.isinf(old))


class TestCriticalEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_rebuild(self, seed):
        ps, a = random_instance(seed)
        with recording() as rec:
            new = critical_range(ps, a)
        assert rec.graph_builds == 0
        assert same_range(new, critical_range_rebuild(ps, a))

    @pytest.mark.parametrize("seed", range(12))
    def test_symmetric_bit_identical_to_rebuild(self, seed):
        for ps, a in (random_instance(seed), wide_instance(seed)):
            with recording() as rec:
                new = critical_range(ps, a, mode="symmetric")
            assert rec.graph_builds == 0
            assert same_range(new, critical_range_rebuild_symmetric(ps, a))

    def test_one_way_ring_is_strong_but_not_symmetric(self):
        ps, a = square_ring()
        assert critical_range(ps, a) == 1.0
        assert critical_range(ps, a, mode="symmetric") == np.inf

    @pytest.mark.parametrize("mode", ["strong", "symmetric"])
    @pytest.mark.parametrize("seed", range(12))
    def test_short_finite_radii_widen_to_the_rebuild_value(self, mode, seed):
        """Every radius 0.5: the stored radii start the candidate cutoff
        below the critical range, so the measurement widens it and must
        still return the oracle's float (the oracle ignores the radii)."""
        rebuild = {
            "strong": critical_range_rebuild,
            "symmetric": critical_range_rebuild_symmetric,
        }[mode]
        ps, a = wide_instance(seed)
        with recording() as rec:
            new = critical_range(ps, a.with_uniform_radius(0.5), mode=mode)
        assert rec.graph_builds == 0
        assert same_range(new, rebuild(ps, a))
        if np.isfinite(new):  # every finite range here lies past 0.5
            assert rec.rcut_widenings > 0

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
    """The acceptance criterion: 1 angular-mask pass, O(log m) probes, 0 builds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rebuild_free_search(self, seed):
        ps, a = random_instance(seed, n=30)
        src, dst = np.nonzero(coverage_matrix_loop(ps, a, ignore_radius=True))
        if src.shape[0] == 0:
            pytest.skip("degenerate draw: no covered pairs")
        diff = ps.coords[src] - ps.coords[dst]
        ncand = np.unique(np.hypot(diff[:, 0], diff[:, 1])).size
        with recording() as rec:
            critical_range(ps, a)
        assert rec.graph_builds == 0  # zero per-probe DiGraph constructions
        assert rec.coverage_calls == 1  # exactly one angular-mask pass
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


def lattice_edges(rng, mode: str):
    """Random directed edges on integer-lattice points: many equal distances.

    Each edge's length is divided by a factor in {0.5, 1, 2} of its source,
    as fading does; in symmetric mode a pair takes its worse direction.
    Returns ``(n, src, dst, dist)`` with the edges grouped by source.
    """
    side = int(rng.integers(2, 9))
    xs, ys = np.meshgrid(np.arange(side), np.arange(side))
    grid = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
    n = int(rng.integers(2, min(40, side * side) + 1))
    coords = grid[rng.choice(side * side, size=n, replace=False)]
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    keep = rng.random(src.shape[0]) < rng.uniform(0.2, 1.0)
    src, dst = src[keep], dst[keep]
    off = coords[dst] - coords[src]
    length = np.hypot(off[:, 0], off[:, 1])
    factor = rng.choice([0.5, 1.0, 2.0], size=n)
    dist = length / factor[src]
    if mode == "symmetric":
        dist = np.maximum(dist, length / factor[dst])
    return n, src, dst, dist


class TestSearchTieOrder:
    """The single-sort search body against the two-stable-sort body it
    replaced (``tests/kernels_reference.py``), bit for bit, where ties are
    the rule: whatever order an unstable sort leaves equal distances in,
    every probe keeps the same edges.  ``eps = 0`` puts tied edges exactly
    on each probe's radius."""

    @pytest.mark.parametrize("mode", ["strong", "symmetric"])
    def test_matches_reference_on_lattices(self, mode):
        rng = np.random.default_rng(2609 if mode == "strong" else 2610)
        finite = 0
        for case in range(300):
            n, src, dst, dist = lattice_edges(rng, mode)
            if src.shape[0] == 0:
                continue
            eps = (0.0, 1e-9)[case % 2]
            with recording() as old:
                want = critical_search_reference(n, src, dst, dist, eps, mode)
            # Symmetric callers pass the mutual edges; the reference masks
            # the raw ones itself.
            keep = mutual_mask(n, src, dst) if mode == "symmetric" else slice(None)
            with recording() as new:
                got = (
                    _critical_search_impl(n, src[keep], dst[keep], dist[keep], eps, mode)
                    if src[keep].shape[0] else math.inf
                )
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (case, got, want)
            assert new.connectivity_probes == old.connectivity_probes, case
            finite += math.isfinite(want)
        assert finite >= 100  # the bisection ran, not just the first probe

    @pytest.mark.parametrize("mode", ["strong", "symmetric"])
    def test_ungrouped_edges_are_regrouped_with_their_distances(self, mode):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n, src, dst, dist = lattice_edges(rng, mode)
            if mode == "symmetric":
                keep = mutual_mask(n, src, dst)
                src, dst, dist = src[keep], dst[keep], dist[keep]
            if src.shape[0] < 2:
                continue
            shuffle = rng.permutation(src.shape[0])
            want = _critical_search_impl(n, src, dst, dist, 1e-9, mode)
            got = _critical_search_impl(
                n, src[shuffle], dst[shuffle], dist[shuffle], 1e-9, mode
            )
            assert got == want


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
