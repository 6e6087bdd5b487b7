"""Tests for the adaptive φ-frontier solver, executor, store and CLI.

Determinism claims follow the single-core CI convention: resumed, sharded
and parallel runs are validated by bit-identical results and kernel/cache
work counters, never wall-clock.
"""

import json
import math

import pytest

from repro.__main__ import main
from repro.analysis.metrics import orientation_metrics
from repro.api import assemble_rows
from repro.core.planner import choose_algorithm, orient_antennae
from repro.engine import FrontierRequest, GridCell, PlanRequest, Scenario
from repro.errors import InvalidParameterError
from repro.frontier import (
    PHI_FREE_ALGORITHMS,
    dispatch_regime,
    execute_frontier,
    solve_instance_frontier,
)
from repro.frontier._solver import ProbeEngine
from repro.kernels.instrument import recording
from repro.store import (
    RunStore,
    StoreError,
    frontier_from_dict,
    frontier_to_dict,
    merge_stores,
    plan_fingerprint,
    plan_kind,
)

TWO_PI = 2.0 * math.pi


def k2_request(**kwargs) -> FrontierRequest:
    base = dict(
        scenarios=(Scenario("uniform", 20, seeds=3, tag="test-frontier"),),
        ks=(2,),
        metric="range_bound",
        target=math.sqrt(2.0),
        phi_lo=2.8,
        phi_hi=3.3,
        tol=1e-3,
    )
    base.update(kwargs)
    return FrontierRequest(**base)


class TestFrontierRequest:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            k2_request(ks=())
        with pytest.raises(InvalidParameterError):
            k2_request(ks=(0,))
        with pytest.raises(InvalidParameterError):
            k2_request(metric="edges")
        with pytest.raises(InvalidParameterError):
            k2_request(phi_lo=3.3, phi_hi=2.8)
        with pytest.raises(InvalidParameterError):
            k2_request(tol=0.0)
        with pytest.raises(InvalidParameterError):
            k2_request(tol=1.0)  # >= interval width
        with pytest.raises(InvalidParameterError):
            k2_request(phi_hi=TWO_PI + 1e-6)
        with pytest.raises(InvalidParameterError):
            FrontierRequest(scenarios=(), ks=(1,))

    def test_phi_hi_clamped_to_two_pi(self):
        req = k2_request(phi_hi=TWO_PI + 1e-13)
        assert req.phi_hi == TWO_PI

    def test_non_finite_target_rejected(self):
        """A NaN target would skip both bisection guards (every comparison
        is False) and fabricate a 'located' result at phi_hi."""
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameterError, match="finite"):
                k2_request(target=bad)

    def test_modes(self):
        assert k2_request().search_mode == "threshold"
        assert k2_request(target=None).search_mode == "staircase"
        assert k2_request(metric="critical_range").compute_critical
        assert not k2_request().compute_critical

    def test_round_trips_through_dict(self):
        for req in (k2_request(), k2_request(target=None, metric="realized_range")):
            again = frontier_from_dict(
                json.loads(json.dumps(frontier_to_dict(req)))
            )
            assert again == req
            assert plan_fingerprint(again) == plan_fingerprint(req)

    def test_fingerprint_separates_kinds_and_specs(self):
        req = k2_request()
        assert plan_kind(req) == "frontier"
        plan = PlanRequest(req.scenarios, (GridCell(2, 3.0),))
        assert plan_fingerprint(req) != plan_fingerprint(plan)
        assert plan_fingerprint(req) != plan_fingerprint(k2_request(tol=2e-3))
        assert plan_fingerprint(req) != plan_fingerprint(
            k2_request(target=1.4142)
        )


class TestWarmStart:
    def test_phi_free_regimes_are_truly_phi_independent(self, uniform50):
        """The memo's soundness condition: within a φ-free dispatch regime
        every metric field except the recorded φ itself is unchanged."""
        probes = {  # (k, phi_a, phi_b) landing in one φ-free regime
            (2, 3.2, 3.5): "theorem3.part1",
            (2, 4.0, 6.0): "theorem2",
            (2, 0.1, 1.9): "k2-zero-spread",
            (3, 0.3, 2.0): "theorem5",
            (4, 0.2, 1.0): "theorem6",
            (1, 0.1, 2.0): "k1-tour",
        }
        for (k, a, b), algo in probes.items():
            assert choose_algorithm(k, a) == choose_algorithm(k, b) == algo
            assert algo in PHI_FREE_ALGORITHMS
            assert dispatch_regime(k, a) == dispatch_regime(k, b)
            ma = orientation_metrics(orient_antennae(uniform50, k, a)).as_dict()
            mb = orientation_metrics(orient_antennae(uniform50, k, b)).as_dict()
            diff = [f for f in ma if f != "phi" and ma[f] != mb[f]]
            assert not diff, f"{algo} depends on phi via {diff}"

    def test_phi_dependent_regimes_are_not_reused(self, uniform50):
        # theorem3.part2 widens its sectors with φ: distinct φ, distinct work.
        assert dispatch_regime(2, 2.2) == dispatch_regime(2, 2.6)
        assert dispatch_regime(2, 2.2)[0] not in PHI_FREE_ALGORITHMS

    def test_probe_engine_memoizes(self, uniform50):
        from repro.kernels.geometry import polar_tables
        from repro.spanning.emst import euclidean_mst

        tree = euclidean_mst(uniform50)
        tables = polar_tables(uniform50.coords)
        engine = ProbeEngine(uniform50, tree, tables, 3, "range_bound", False)
        with recording() as rec1:
            first = engine(2.6)  # theorem2 regime (phi >= 4pi/5)
        assert not first.reused and rec1.coverage_calls > 0
        with recording() as rec2:
            same_regime = engine(2.9)
            exact_repeat = engine(2.6)
        assert same_regime.reused and exact_repeat.reused
        assert rec2.coverage_calls == 0, "warm-started probes ran kernels"
        assert same_regime.value == first.value
        # A different regime still pays.
        with recording() as rec3:
            other = engine(2.45)  # theorem3.part2 via k'=2
        assert not other.reused and rec3.coverage_calls > 0

    def test_k1_tour_probes_change_only_the_reused_flag(self, uniform50):
        """k1-tour is φ-free: a memoised probe reports exactly what a fresh
        engine evaluates at its φ, flagged as reused."""
        from repro.kernels.geometry import polar_tables
        from repro.spanning.emst import euclidean_mst

        tree = euclidean_mst(uniform50)
        tables = polar_tables(uniform50.coords)

        def engine():
            return ProbeEngine(uniform50, tree, tables, 1, "critical_range", True)

        warm = engine()
        probes = [warm(phi) for phi in (0.0, 0.5, 2.0, 3.5, 4.0, 2.0)]
        assert [p.algorithm for p in probes] == (
            ["k1-tour"] * 3 + ["k1-pairs"] * 2 + ["k1-tour"]
        )
        assert [p.reused for p in probes] == [False, True, True, False, False, True]
        for probe in probes:
            fresh = engine()(probe.phi)
            assert not fresh.reused
            assert (probe.phi, probe.value, probe.algorithm) == (
                fresh.phi, fresh.value, fresh.algorithm
            )

    def test_regime_memo_is_shared_across_ks(self):
        """k budgets clamping to the same dispatch (k > 5 behaves like 5)
        share the instance's regime memo: the second k evaluates nothing."""
        req = FrontierRequest(
            scenarios=(Scenario("uniform", 20, seeds=1, tag="test-frontier"),),
            ks=(5, 7),  # both dispatch to Theorem 2 with 5 antennae
            metric="range_bound",
            target=1.0,
            phi_lo=1.0,
            phi_hi=2.0,
            tol=1e-2,
        )
        [outcome] = execute_frontier(req).outcomes
        k5, k7 = outcome.frontiers
        assert dispatch_regime(5, 1.5) == dispatch_regime(7, 1.5)
        assert k5.evaluated_count == 1  # one regime, measured once
        assert k7.evaluated_count == 0, "second k re-ran a shared regime"
        assert k7.reused_count == k7.probe_count
        assert [p.value for p in k7.probes] == [p.value for p in k5.probes]


class TestSolver:
    def test_locates_the_k2_crossover(self):
        req = k2_request()
        batch = execute_frontier(req)
        assert len(batch.outcomes) == 3
        for outcome in batch.outcomes:
            [f] = outcome.frontiers
            assert f.status == "located"
            # The k=2 bound reaches sqrt(2) exactly at phi = pi.
            assert math.pi < f.phi_star <= math.pi + req.tol
            assert f.value_lo > req.target >= f.value_hi
            assert f.probe_count <= 2 + math.ceil(
                math.log2((req.phi_hi - req.phi_lo) / req.tol)
            )

    def test_below_lo_and_unattained(self):
        below = execute_frontier(k2_request(target=10.0)).outcomes[0].frontiers[0]
        assert below.status == "below_lo" and below.phi_star == 2.8
        unatt = execute_frontier(k2_request(target=0.5)).outcomes[0].frontiers[0]
        assert unatt.status == "unattained" and unatt.phi_star is None

    def test_staircase_maps_plateaus(self):
        # k=3 bound over [2.0, 3.0]: theorem5/part2 territory then the flat
        # range-1 plateau from 4pi/5; the transition must be bracketed to tol.
        req = FrontierRequest(
            scenarios=(Scenario("uniform", 20, seeds=1, tag="test-frontier"),),
            ks=(3,),
            metric="range_bound",
            phi_lo=2.5,
            phi_hi=3.0,
            tol=1e-2,
        )
        [outcome] = execute_frontier(req).outcomes
        [f] = outcome.frontiers
        assert f.status == "mapped" and f.phi_star is None
        assert f.steps[0]["phi_lo"] == 2.5 and f.steps[-1]["phi_hi"] == 3.0
        values = [s["value"] for s in f.steps]
        assert values == sorted(values, reverse=True), "bound not monotone"
        assert values[-1] == 1.0
        # The flat Theorem-2 plateau starts within tol of 4pi/5.
        assert abs(f.steps[-1]["phi_lo"] - 4 * math.pi / 5) <= 2e-2
        assert f.reused_count > 0

    def test_solve_instance_matches_executor(self):
        req = k2_request()
        frontiers, facts = solve_instance_frontier(
            req.scenarios[0].instance(0), req
        )
        batch = execute_frontier(req)
        assert [f.as_dict() for f in frontiers] == [
            f.as_dict() for f in batch.outcomes[0].frontiers
        ]
        assert facts["n"] == 20.0


class TestExecutor:
    def test_parallel_matches_serial(self):
        req = k2_request()
        serial = execute_frontier(req, jobs=1)
        parallel = execute_frontier(req, jobs=2)
        assert serial.aggregate_rows() == parallel.aggregate_rows()
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert [f.as_dict() for f in a.frontiers] == [
                f.as_dict() for f in b.frontiers
            ]

    def test_shards_partition_the_plan(self):
        req = k2_request()
        whole = execute_frontier(req)
        shards = [execute_frontier(req, shard=(i, 2)) for i in range(2)]
        assert sum(len(s.outcomes) for s in shards) == len(whole.outcomes)
        merged = {
            (o.scenario_index, o.instance_index): o
            for s in shards
            for o in s.outcomes
        }
        for o in whole.outcomes:
            twin = merged[(o.scenario_index, o.instance_index)]
            assert [f.as_dict() for f in o.frontiers] == [
                f.as_dict() for f in twin.frontiers
            ]

    def test_aggregate_rows_shape(self):
        req = FrontierRequest(
            scenarios=(
                Scenario("uniform", 20, seeds=2, tag="test-frontier"),
                Scenario("grid", 16, seeds=2, tag="test-frontier"),
            ),
            ks=(2, 3),
            metric="range_bound",
            target=1.5,
            phi_lo=2.0,
            phi_hi=3.5,
            tol=1e-2,
        )
        rows = execute_frontier(req).aggregate_rows()
        assert [(r["workload"], r["k"]) for r in rows] == [
            ("uniform", 2), ("uniform", 3), ("grid", 2), ("grid", 3)
        ]
        for r in rows:
            assert r["runs"] == 2
            assert r["probes"] == r["evaluated"] + r["reused"]
            assert r["found"] == 2 and r["phi_star_mean"] is not None


class TestStore:
    def test_resume_replays_with_zero_kernels(self, tmp_path):
        req = k2_request()
        store = RunStore(tmp_path / "runs")
        cold = execute_frontier(req, store=store)
        with recording() as rec:
            warm = execute_frontier(req, store=store, resume=True)
        assert warm.replayed_instances == 3
        assert rec.coverage_calls == 0 and rec.graph_builds == 0
        assert rec.polar_builds == 0
        assert warm.aggregate_rows() == cold.aggregate_rows()
        assert warm.cache_stats.as_dict() == cold.cache_stats.as_dict()

    def test_rerun_without_resume_is_refused(self, tmp_path):
        req = k2_request()
        store = RunStore(tmp_path / "runs")
        execute_frontier(req, store=store)
        with pytest.raises(StoreError, match="resume"):
            execute_frontier(req, store=store)

    def test_merge_shards_equals_unsharded(self, tmp_path):
        req = k2_request()
        reference = execute_frontier(req)
        store = RunStore(tmp_path / "runs")
        for i in range(2):
            execute_frontier(req, store=store, shard=(i, 2))
        key, loaded, rows = merge_stores([tmp_path / "runs"])
        assert isinstance(loaded, FrontierRequest) and loaded == req
        assembled = assemble_rows(loaded, rows)
        assert assembled.aggregate_rows() == reference.aggregate_rows()
        for a, b in zip(assembled.outcomes, reference.outcomes):
            assert [f.as_dict() for f in a.frontiers] == [
                f.as_dict() for f in b.frontiers
            ]

    def test_assemble_partial_requires_flag(self, tmp_path):
        req = k2_request()
        store = RunStore(tmp_path / "runs")
        execute_frontier(req, store=store, shard=(0, 2))
        key, loaded, rows = merge_stores([tmp_path / "runs"])
        with pytest.raises(StoreError, match="run the remaining"):
            assemble_rows(loaded, rows)
        partial = assemble_rows(loaded, rows, allow_partial=True)
        assert len(partial.outcomes) == 2  # slots 0 and 2 of 3

    def test_sweep_and_frontier_share_a_run_dir(self, tmp_path):
        """Distinct kinds get distinct plan files and ledgers."""
        store = RunStore(tmp_path / "runs")
        freq = k2_request()
        plan = PlanRequest(freq.scenarios, (GridCell(2, 3.0),))
        execute_frontier(freq, store=store)
        from repro.engine import execute_plan

        execute_plan(plan, store=store)
        assert len(store.plan_keys()) == 2
        # Loading by key prefix retrieves the right kind.
        key_f = plan_fingerprint(freq)
        _, loaded = store.load_request(key_f[:12])
        assert isinstance(loaded, FrontierRequest)


class TestFrontierCLI:
    ARGS = ["frontier", "--workload", "uniform", "--n", "18", "--seeds", "2",
            "--k", "2", "--metric", "range_bound", "--target", "1.4142",
            "--phi-lo", "2.8", "--phi-hi", "3.3", "--tol", "1e-2",
            "--tag", "cli-frontier"]

    def test_markdown_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "| workload |" in out and "phi_star_mean" in out

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][0]["found"] == 2
        assert data["rows"][0]["k"] == 2

    def test_resume_requires_run_dir(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "--run-dir" in capsys.readouterr().err

    def test_run_dir_resume_and_merge_round_trip(self, tmp_path, capsys):
        run_dir = str(tmp_path / "rd")
        out_a = str(tmp_path / "a.md")
        out_b = str(tmp_path / "b.md")
        out_m = str(tmp_path / "m.md")
        assert main(self.ARGS + ["--run-dir", run_dir, "--output", out_a]) == 0
        assert main(
            self.ARGS + ["--run-dir", run_dir, "--resume", "--output", out_b]
        ) == 0
        assert main(["merge", "--run-dir", run_dir, "--output", out_m]) == 0
        a = open(out_a).read()
        assert a == open(out_b).read() == open(out_m).read()

    def test_bad_interval_is_a_clean_error(self, capsys):
        rc = main(["frontier", "--phi-lo", "3.0", "--phi-hi", "2.0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_metric_choices_track_the_spec(self):
        """The parser's literal --metric choices (kept literal so --help
        stays import-light) must match the spec's FRONTIER_METRICS exactly:
        a metric added to the spec must be added to the CLI mirror too."""
        from repro.__main__ import _FRONTIER_METRIC_CHOICES, build_parser
        from repro.engine._spec import FRONTIER_METRICS

        assert _FRONTIER_METRIC_CHOICES == FRONTIER_METRICS
        parser = build_parser()
        for metric in FRONTIER_METRICS:
            args = parser.parse_args(["frontier", "--metric", metric])
            assert args.metric == metric


class TestRegistry:
    def test_x7_runs_and_supports_engine_features(self):
        from repro.experiments.registry import (
            run_experiment,
            supports_jobs,
            supports_store,
        )

        assert supports_jobs("X7") and supports_store("X7")
        rec = run_experiment("X7")
        assert rec.experiment_id == "X7"
        assert len(rec.rows) == 3
        # k=2 row: the located phi* sits at the analytic crossover pi.
        k2 = next(r for r in rec.rows if r[0] == 2)
        assert abs(float(k2[3]) - round(math.pi, 4)) <= 2e-3

    def test_x7_resume_is_identical(self, tmp_path):
        from repro.experiments.registry import run_experiment

        store = RunStore(tmp_path / "runs")
        first = run_experiment("X7", store=store)
        with recording() as rec:
            again = run_experiment("X7", store=store, resume=True)
        assert rec.coverage_calls == 0
        assert first.rows == again.rows
