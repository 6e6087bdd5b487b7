"""Tests for the batch planning engine (spec, cache, executor)."""

import numpy as np
import pytest

from repro.analysis.metrics import OrientationMetrics, orientation_metrics
from repro.core.planner import orient_antennae
from repro.engine import (
    ArtifactCache,
    GridCell,
    PlanRequest,
    Scenario,
    content_hash,
    execute_plan,
    run_instance_grid,
)
from repro.errors import InvalidParameterError
from repro.experiments.workloads import uniform_points
from repro.geometry.points import PointSet
from tests.kernels_reference import per_instance_sweep


def small_request(**kwargs) -> PlanRequest:
    return PlanRequest(
        scenarios=(
            Scenario("uniform", 20, seeds=2, tag="test-engine"),
            Scenario("grid", 16, seeds=1, tag="test-engine"),
        ),
        grid=(GridCell(1, np.pi), GridCell(2, 2 * np.pi / 3), GridCell(3, 0.0)),
        **kwargs,
    )


class TestScenario:
    def test_instances_deterministic(self):
        s = Scenario("uniform", 12, seeds=3, tag="t")
        a = list(s.instances())
        b = list(s.instances())
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_tag_namespaces_seeds(self):
        a = Scenario("uniform", 12, seeds=1, tag="a").instance(0)
        b = Scenario("uniform", 12, seeds=1, tag="b").instance(0)
        assert not np.array_equal(a, b)

    def test_seed_offset_shards(self):
        whole = Scenario("uniform", 12, seeds=4, tag="t")
        shard = Scenario("uniform", 12, seeds=2, tag="t", seed_offset=2)
        assert np.array_equal(whole.instance(2), shard.instance(0))

    def test_matches_legacy_table1_seeding(self):
        # Scenario seeding must reproduce the historical experiment
        # instances: stable_seed(tag, workload, n, index).
        from repro.experiments.workloads import make_workload
        from repro.utils.rng import stable_seed

        s = Scenario("uniform", 24, seeds=1, tag="table1")
        legacy = make_workload("uniform", 24, stable_seed("table1", "uniform", 24, 0))
        assert np.array_equal(s.instance(0), legacy)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workload": "nope", "n": 10},
            {"workload": "uniform", "n": 0},
            {"workload": "uniform", "n": 10, "seeds": 0},
            {"workload": "uniform", "n": 10, "seed_offset": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            Scenario(**kwargs)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Scenario("uniform", 10, seeds=2).instance(2)


class TestGridCell:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GridCell(0, np.pi)
        with pytest.raises(InvalidParameterError):
            GridCell(1, -0.1)
        with pytest.raises(InvalidParameterError):
            GridCell(1, 7.0)

    def test_phi_clamped_at_two_pi(self):
        """Values inside the acceptance slop above 2π snap to 2π exactly —
        downstream sector construction assumes φ ≤ 2π."""
        two_pi = 2.0 * np.pi
        assert GridCell(1, two_pi).phi == two_pi
        assert GridCell(1, two_pi + 1e-13).phi == two_pi
        assert GridCell(1, np.nextafter(two_pi, 7.0)).phi == two_pi
        with pytest.raises(InvalidParameterError):
            GridCell(1, two_pi + 1e-9)  # outside the slop: still rejected

    def test_label_is_display_only_identity_lives_elsewhere(self):
        """Two φ values closer than the 4-digit display precision collide in
        the display label — identity is carried by full-precision rendering
        (CLI tables, see test_cli) and by the exact-bits plan fingerprint."""
        from repro.store import plan_fingerprint

        a = GridCell(2, 3.14159)
        b = GridCell(2, 3.14161)
        assert a.label == b.label
        scenario = (Scenario("uniform", 8, tag="label-id"),)
        assert plan_fingerprint(PlanRequest(scenario, (a,))) != plan_fingerprint(
            PlanRequest(scenario, (b,))
        )


class TestPlanRequest:
    def test_counts(self):
        req = small_request()
        assert req.total_instances == 3
        assert req.total_runs == 9

    def test_needs_scenarios_and_cells(self):
        with pytest.raises(InvalidParameterError):
            PlanRequest((), (GridCell(1, np.pi),))
        with pytest.raises(InvalidParameterError):
            PlanRequest((Scenario("uniform", 10),), ())

    def test_sweep_builder(self):
        req = PlanRequest.sweep(
            workloads=["uniform", "grid"], sizes=[10, 20], seeds=2,
            ks=[1, 2], phis=[0.0, np.pi],
        )
        assert len(req.scenarios) == 4
        assert len(req.grid) == 4
        assert req.total_runs == 4 * 2 * 4

    def test_describe(self):
        assert "instances" in small_request().describe()


class TestContentHash:
    def test_stable_and_content_addressed(self):
        pts = uniform_points(10, seed=3)
        assert content_hash(pts) == content_hash(pts.copy())
        assert content_hash(pts) == content_hash(PointSet(pts))
        assert content_hash(pts) != content_hash(pts + 1e-12)


class TestArtifactCache:
    def test_one_build_per_instance(self):
        cache = ArtifactCache()
        pts = uniform_points(15, seed=1)
        t1 = cache.tree(pts)
        t2 = cache.tree(pts.copy())
        assert t1 is t2
        assert cache.stats.tree_builds == 1
        assert cache.stats.hits == 1
        p1 = cache.polar(pts)
        p2 = cache.polar(pts)
        assert p1 is p2
        assert cache.stats.polar_builds == 1
        assert cache.stats.distance_builds == 0  # no dense distance matrix

    def test_distances_match_pointset(self):
        """The cached distances are the polar tables' ``dist``."""
        cache = ArtifactCache()
        pts = uniform_points(8, seed=5)
        assert np.allclose(cache.polar(pts).dist, PointSet(pts).distance_matrix())

    def test_lru_eviction(self):
        cache = ArtifactCache(maxsize=2)
        a, b, c = (uniform_points(6, seed=s) for s in range(3))
        cache.tree(a), cache.tree(b), cache.tree(c)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.tree(a)  # evicted -> rebuilt
        assert cache.stats.tree_builds == 4


class TestRunInstanceGrid:
    def test_one_emst_per_instance_across_grid(self):
        """The tentpole cache guarantee: 1 EMST build per instance per sweep."""
        cache = ArtifactCache()
        grid = (GridCell(1, np.pi), GridCell(2, np.pi), GridCell(3, 0.0),
                GridCell(4, 0.0))
        for seed in range(3):
            metrics, facts = run_instance_grid(
                uniform_points(18, seed=seed), grid, cache=cache
            )
            assert len(metrics) == len(grid)
            assert facts["lmax"] > 0
            assert facts["diameter"] >= facts["lmax"]
        assert cache.stats.tree_builds == 3
        # The engine now reads diameters from the kernel polar tables; the
        # legacy einsum distance matrix is only built for callers who ask.
        assert cache.stats.polar_builds == 3
        assert cache.stats.distance_builds == 0
        # One miss per instance (first touch), then tree + polar hit.
        assert cache.stats.misses == 3
        assert cache.stats.hits == 2 * 3


class TestPhiFreeRegimeReuse:
    """A sweep measures each φ-free dispatch regime once per instance."""

    GRID = (
        GridCell(1, 0.0), GridCell(1, 2 * np.pi / 3), GridCell(1, 1.0),
        GridCell(2, np.pi),
    )

    @staticmethod
    def request(grid, mode="strong") -> PlanRequest:
        return PlanRequest(
            scenarios=(
                Scenario("uniform", 24, seeds=2, tag="test-reuse"),
                Scenario("clustered", 18, seeds=1, tag="test-reuse"),
            ),
            grid=grid,
            mode=mode,
        )

    @staticmethod
    def records(request, batched):
        """The packed executor's records, or the per-instance reference's."""
        if batched:
            return execute_plan(request).records
        return per_instance_sweep(request)[0]

    @staticmethod
    def count_calls(monkeypatch, module, name) -> list:
        calls: list = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("batched", [True, False])
    def test_reused_cells_identical_to_fresh_evaluation(self, batched, monkeypatch):
        import repro.core.kone

        tours = self.count_calls(monkeypatch, repro.core.kone, "best_tour")
        request = self.request(self.GRID)
        records = self.records(request, batched)
        # (1, 0), (1, 2pi/3) and (1, 1.0) share the k1-tour regime.
        assert len(tours) == request.total_instances
        assert [rec.metrics.algorithm for rec in records[:4]] == [
            "k1-tour", "k1-tour", "k1-tour", "theorem3.part1",
        ]
        for rec in records:
            coords = rec.scenario.instance(rec.instance_index)
            fresh = orientation_metrics(orient_antennae(coords, rec.cell.k, rec.cell.phi))
            assert rec.metrics.identical(fresh), rec.cell

    @pytest.mark.parametrize("batched", [True, False])
    def test_symmetric_sweeps_never_reuse_a_cell(self, batched, monkeypatch):
        import repro.engine.executor

        built = self.count_calls(monkeypatch, repro.engine.executor, "orient_for_mode")
        request = self.request(
            (GridCell(2, 4.0), GridCell(2, 6.0), GridCell(3, 0.5), GridCell(3, 1.0)),
            mode="symmetric",
        )
        self.records(request, batched)
        assert len(built) == request.total_instances * len(request.grid)


class TestPackedChunkTiming:
    def test_instances_are_timed_on_their_own(self):
        """A packed chunk times each instance's artifacts and construction
        separately and splits only the fused remainder evenly: the k1-tour
        instance of n = 512 ledgers more time than the n = 16 one, and the
        times sum to the chunk's wall time.  Metrics and facts equal the
        per-instance path's; cache deltas are the packed path's as before
        (one point set and one tree per instance, packed tables excluded)."""
        import time

        from repro.engine.executor import _sweep_chunk

        coords = [uniform_points(16, seed=3), uniform_points(512, seed=4)]
        chunk = [(0, 0, 0, coords[0]), (1, 0, 1, coords[1])]
        request = PlanRequest(
            (Scenario("uniform", 16, seeds=2, tag="test-timing"),),
            (GridCell(1, 0.0),),
        )
        list(_sweep_chunk(chunk, request, "numpy", ArtifactCache()))  # imports and first calls
        t0 = time.perf_counter()
        packed = list(_sweep_chunk(chunk, request, "numpy", ArtifactCache()))
        wall = time.perf_counter() - t0
        cache = ArtifactCache()
        single = [run_instance_grid(c, request.grid, cache=cache) for c in coords]

        (_, small), (_, large) = packed
        assert large.elapsed > small.elapsed > 0.0
        assert small.elapsed + large.elapsed <= wall
        delta = {"hits": 1, "misses": 1, "pointset_builds": 1, "tree_builds": 1,
                 "distance_builds": 0, "polar_builds": 0, "sparse_polar_builds": 0,
                 "evictions": 0}
        for (slot_p, p), (slot_s, (metrics, facts)) in zip(packed, enumerate(single)):
            assert slot_p == slot_s
            assert [m.identical(r) for m, r in zip(p.cell_metrics(), metrics)] == [True]
            assert p.facts == facts and p.cache == delta and p.backend == "numpy"


class TestExecutePlan:
    def test_serial_results_in_plan_order(self):
        req = small_request()
        batch = execute_plan(req, jobs=1)
        assert len(batch.records) == req.total_runs
        expected = [
            (s.label, i, cell)
            for s in req.scenarios
            for i in range(s.seeds)
            for cell in req.grid
        ]
        got = [
            (r.scenario.label, r.instance_index, r.cell) for r in batch.records
        ]
        assert got == expected

    def test_parallel_bit_identical_to_serial(self):
        """Determinism: jobs=3 returns bit-identical OrientationMetrics."""
        req = small_request()
        serial = execute_plan(req, jobs=1)
        parallel = execute_plan(req, jobs=3)
        assert parallel.fallback_reason is None
        a = [r.metrics for r in serial.records]
        b = [r.metrics for r in parallel.records]
        assert a == b  # exact float equality, field by field

    def test_cache_hit_accounting(self):
        req = small_request()
        cache = ArtifactCache()
        execute_plan(req, jobs=1, cache=cache)
        assert cache.stats.tree_builds == req.total_instances
        assert cache.stats.misses == req.total_instances

    def test_parallel_merges_worker_cache_stats(self):
        req = small_request()
        batch = execute_plan(req, jobs=2)
        assert batch.cache_stats.tree_builds == req.total_instances

    def test_result_stats_are_per_run_deltas(self):
        """A reused caller cache must not inflate a later result's stats."""
        req = small_request()
        cache = ArtifactCache()
        first = execute_plan(req, jobs=1, cache=cache)
        second = execute_plan(req, jobs=1, cache=cache)
        assert first.cache_stats.tree_builds == req.total_instances
        assert second.cache_stats.tree_builds == 0  # warm cache: all hits
        assert second.cache_stats.misses == 0
        # And the first result's record did not mutate retroactively.
        assert first.cache_stats.tree_builds == req.total_instances

    def test_aggregate_by_cell_row_per_cell(self):
        req = small_request()
        batch = execute_plan(req)
        rows = batch.aggregate_by_cell()
        assert len(rows) == len(req.grid)
        assert all(row["runs"] == req.total_instances for row in rows)

    def test_aggregate_by_scenario_cell(self):
        req = small_request()
        batch = execute_plan(req)
        rows = batch.aggregate_by_scenario_cell()
        assert len(rows) == len(req.scenarios) * len(req.grid)
        assert rows[0]["workload"] == "uniform"
        assert rows[-1]["workload"] == "grid"
        assert all(r["runs"] == s.seeds
                   for s, block in zip(req.scenarios, _chunks(rows, len(req.grid)))
                   for r in block)

    def test_skip_critical_propagates(self):
        req = small_request(compute_critical=False)
        batch = execute_plan(req)
        assert all(np.isnan(r.metrics.critical_range) for r in batch.records)
        rows = batch.aggregate_by_cell()
        assert all(row["critical_max"] is None for row in rows)
        assert all(row["bound_ok"] is None for row in rows)

    def test_on_instance_progress_hook(self):
        seen = []
        execute_plan(small_request(), on_instance=seen.append)
        assert len(seen) == 3
        assert {(r.scenario_index, r.instance_index) for r in seen} == {
            (0, 0), (0, 1), (1, 0)
        }

    def test_identical_predicate_handles_nan(self):
        req = small_request(compute_critical=False)
        a = execute_plan(req).records[0].metrics
        b = execute_plan(req).records[0].metrics
        assert isinstance(a, OrientationMetrics)
        assert a != b          # dataclass == is poisoned by NaN
        assert a.identical(b)  # the engine's determinism predicate


def _chunks(seq, size):
    return [seq[i : i + size] for i in range(0, len(seq), size)]
