"""Tests for the Monte-Carlo ensemble layer (spec, trials, solver, executor).

Determinism conventions match the store/service tests: resume and
idempotency claims are validated with the process-wide kernel counters
(zero re-execution means zero coverage calls AND zero ``ensemble_trials``),
shard and worker-count invariance by bit-identical aggregate tables
against a serial reference — never by wall-clock.
"""

import json
import math

import numpy as np
import pytest

from repro.api import assemble, assemble_rows, submit
from repro.core.kone import orient_k1_pairs
from repro.engine import GridCell, Scenario
from repro.ensemble import (
    EnsembleRequest,
    Perturbation,
    execute_ensemble,
    wilson_interval,
)
from repro.ensemble.trials import draw_trials, measure_trials
from repro.errors import InvalidParameterError, PlanCancelled
from repro.geometry.points import PointSet
from repro.kernels.geometry import polar_tables
from repro.kernels.instrument import recording
from repro.store import RunStore, StoreError, merge_stores

PI = math.pi


def curve_request(**overrides) -> EnsembleRequest:
    base = dict(
        scenarios=(Scenario("uniform", 20, seeds=2, tag="ens-test"),),
        grid=(GridCell(1, 1.2 * PI), GridCell(2, 0.7 * PI)),
        trials=8,
        chunk=4,
        perturbation=Perturbation(rotate=True, edge_fail=0.1),
    )
    base.update(overrides)
    return EnsembleRequest(**base)


def threshold_request(**overrides) -> EnsembleRequest:
    base = dict(
        scenarios=(Scenario("uniform", 20, seeds=2, tag="ens-test"),),
        ks=(1,),
        metric="critical_range",
        quantile=0.5,
        target=1.25,
        phi_lo=2.0,
        phi_hi=2 * PI,
        tol=0.05,
        trials=12,
        chunk=6,
        perturbation=Perturbation(fade_sigma=0.05),
    )
    base.update(overrides)
    return EnsembleRequest(**base)


class TestEnsembleRequest:
    def test_exactly_one_mode(self):
        with pytest.raises(InvalidParameterError, match="exactly one"):
            curve_request(ks=(1,))
        with pytest.raises(InvalidParameterError, match="exactly one"):
            curve_request(grid=())

    def test_threshold_needs_one_predicate(self):
        with pytest.raises(InvalidParameterError):
            threshold_request(p_target=0.9)  # both targets set
        with pytest.raises(InvalidParameterError):
            threshold_request(target=None)  # neither set

    def test_curve_mode_forbids_predicates(self):
        with pytest.raises(InvalidParameterError):
            curve_request(p_target=0.9)

    def test_perturbation_validation(self):
        with pytest.raises(InvalidParameterError, match="edge_fail"):
            Perturbation(edge_fail=1.0)
        with pytest.raises(InvalidParameterError, match="fade_sigma"):
            Perturbation(fade_sigma=-0.1)
        assert Perturbation().is_identity
        assert not Perturbation(rotate=True).is_identity

    def test_round_trips_through_wire(self):
        for request in (curve_request(), threshold_request()):
            clone = EnsembleRequest.from_dict(
                json.loads(json.dumps(request.to_dict()))
            )
            assert clone == request
            assert clone.fingerprint() == request.fingerprint()

    def test_identity_includes_trial_machinery(self):
        """trials/chunk/perturbation/early_stop all shape ledger rows."""
        base = curve_request()
        assert base.fingerprint() != curve_request(trials=16).fingerprint()
        assert base.fingerprint() != curve_request(chunk=2).fingerprint()
        assert base.fingerprint() != curve_request(
            perturbation=Perturbation(rotate=True, edge_fail=0.2)
        ).fingerprint()
        t = threshold_request()
        assert t.fingerprint() != threshold_request(
            early_stop=False
        ).fingerprint()
        # backend stays outside identity, like every other kind
        assert base.fingerprint() == curve_request(
            backend="numpy"
        ).fingerprint()

    def test_curve_slots_are_per_trial_chunk(self):
        request = curve_request()  # 2 instances x ceil(8/4)=2 chunks
        assert request.n_chunks == 2
        assert request.total_instances == 2
        assert request.total_slots == 4
        assert list(request.chunk_trials(1)) == [4, 5, 6, 7]

    def test_threshold_slots_are_per_instance(self):
        request = threshold_request()
        assert request.total_slots == request.total_instances == 2


class TestTrialDeterminism:
    def test_draws_depend_only_on_key_slot_trial(self):
        pert = Perturbation(rotate=True, node_fail=0.2, fade_sigma=0.1)
        a = draw_trials("key", 3, range(4, 8), 10, pert)
        b = draw_trials("key", 3, [6, 7], 10, pert)
        assert np.array_equal(a.rotation[2:], b.rotation)
        assert np.array_equal(a.alive[2:], b.alive)
        assert np.array_equal(a.fade[2:], b.fade)
        assert np.array_equal(a.edge_seeds[2:], b.edge_seeds)

    def test_dense_and_sparse_backends_agree(self):
        """Edge draws go through the indexed virtual-uniform table, so the
        dense n^2 path and the sparse candidate-only path see identical
        per-pair coin flips."""
        request = curve_request(
            perturbation=Perturbation(
                rotate=True, edge_fail=0.1, node_fail=0.1, fade_sigma=0.1
            )
        )
        dense = execute_ensemble(request, backend="numpy")
        sparse = execute_ensemble(request, backend="sparse")
        assert dense.aggregate_rows() == sparse.aggregate_rows()
        for a, b in zip(dense.outcomes, sparse.outcomes):
            assert a.results == b.results

    def test_identity_perturbation_reproduces_deterministic_network(self):
        request = curve_request(
            grid=(GridCell(2, 2 * PI),), perturbation=Perturbation()
        )
        batch = execute_ensemble(request)
        [row] = batch.aggregate_rows()
        # Full-circle antennae at the construction radius: every trial is
        # the deterministic (connected) network.
        assert row["p_connected"] == 1.0
        assert row["trials"] == request.trials * request.total_instances

    def test_trial_counters_account_for_work(self):
        request = curve_request()
        with recording() as rec:
            execute_ensemble(request)
        # Curve mode measures every grid cell on every trial, so the
        # counter ticks per (instance, trial, cell).
        assert rec.ensemble_trials == (
            request.trials * request.total_instances * len(request.grid)
        )


class TestEdgeFailureOracle:
    @pytest.mark.parametrize("mode", ["strong", "symmetric"])
    @pytest.mark.parametrize("phi", [PI, 1.5 * PI])
    @pytest.mark.parametrize("edge_fail", [0.0, 0.2, 0.5])
    def test_two_sensor_connection_rate(self, mode, phi, edge_fail):
        """Two sensors in range, one beam of spread φ each, rotated and
        failing per trial: a beam covers its partner with probability
        φ/2π (plus the kernel's ``2 eps`` boundary slack) and a covered
        link survives with probability 1 − p, independently per direction.
        Both directions are needed in either mode, so
        P(connected) = ((φ/2π)(1 − p))²: the count over 4,000 trials of
        :func:`measure_trials` lies in its two-sided binomial interval at
        ``alpha = 1e-3``."""
        from scipy.stats import binom

        eps, trials, alpha = 1e-9, 4000, 1e-3
        ps = PointSet(np.array([[0.0, 0.0], [1.0, 0.3]]))
        result = orient_k1_pairs(ps, phi)
        _, _, spread, radius = result.assignment.flattened()
        assert np.array_equal(spread, [phi, phi])
        assert (radius >= np.hypot(1.0, 0.3)).all()  # in range both ways
        m = measure_trials(
            ps, polar_tables(ps.coords), result,
            Perturbation(rotate=True, edge_fail=edge_fail), "edge-fail-oracle",
            0, range(trials), mode=mode,
        )
        got = int(m.connected.sum())
        keep = 1.0 - edge_fail
        lo = binom.ppf(alpha / 2, trials, (phi / (2 * PI) * keep) ** 2)
        hi = binom.ppf(1 - alpha / 2, trials,
                       ((phi + 2 * eps) / (2 * PI) * keep) ** 2)
        assert lo <= got <= hi, (got, lo, hi)


class TestSparseTrialExactness:
    """The sparse trial path returns the dense path's numbers, bit for bit,
    also where the critical range lies beyond the instance cutoff or an
    antenna's radius is infinite."""

    @staticmethod
    def _instance():
        from repro.core.symmetric import orient_for_mode
        from repro.experiments.workloads import make_workload
        from repro.geometry.points import PointSet
        from repro.kernels.geometry import polar_tables
        from repro.kernels.sparse import default_instance_cutoff, sparse_polar_tables
        from repro.spanning.emst import euclidean_mst

        ps = PointSet(make_workload("uniform", 60, 3))
        tree = euclidean_mst(ps)
        result = orient_for_mode(ps, 1, PI, tree=tree)
        sparse = sparse_polar_tables(ps.coords, default_instance_cutoff(tree.lmax))
        return ps, result, polar_tables(ps.coords), sparse

    @staticmethod
    def _both(ps, result, dense, sparse, pert, **kwargs):
        from repro.engine.cache import ArtifactCache
        from repro.ensemble.trials import measure_trials

        a = measure_trials(ps, dense, result, pert, "k", 0, range(16), **kwargs)
        with recording() as rec:
            b = measure_trials(ps, sparse, result, pert, "k", 0, range(16),
                               cache=ArtifactCache(), **kwargs)
        return a, b, rec

    def test_inf_beyond_the_cutoff_is_widened(self):
        """Trial 12's critical range (~6.05 absolute) lies past the default
        cutoff (~4.83): the sparse search sees only inf there, which is not
        a certified answer."""
        ps, result, dense, sparse = self._instance()
        a, b, rec = self._both(ps, result, dense, sparse,
                               Perturbation(rotate=True), want_critical=True)
        assert math.isfinite(a.critical[12])
        assert a.critical[12] * result.lmax > sparse.r_cut
        assert a.critical.tobytes() == b.critical.tobytes()
        assert rec.rcut_widenings > 0

    def test_infinite_radius_forces_the_complete_cutoff(self):
        import dataclasses

        ps, result, dense, sparse = self._instance()
        unbounded = dataclasses.replace(
            result, assignment=result.assignment.with_uniform_radius(np.inf)
        )
        a, b, _ = self._both(ps, unbounded, dense, sparse, Perturbation(rotate=True))
        assert a.connected.sum() == 9
        assert np.array_equal(a.connected, b.connected)

    def test_dead_end_certifies_inf_without_widening(self):
        """A sensor with no antenna reaches nobody at any radius: inf is
        exact at the default cutoff, in both modes."""
        import dataclasses

        from repro.antenna.model import AntennaAssignment

        ps, result, dense, sparse = self._instance()
        sensor, start, spread, radius = result.assignment.flattened()
        keep = sensor != 7
        mute = dataclasses.replace(result, assignment=AntennaAssignment.from_columns(
            len(ps), sensor[keep], start[keep], spread[keep], radius[keep]
        ))
        for mode in ("strong", "symmetric"):
            a, b, rec = self._both(ps, mute, dense, sparse,
                                   Perturbation(rotate=True, edge_fail=0.1),
                                   want_critical=True, mode=mode)
            assert np.isinf(a.critical).all()
            assert a.critical.tobytes() == b.critical.tobytes()
            assert rec.rcut_widenings == 0


class TestRegimeMemo:
    def test_k1_tour_probes_change_only_the_reused_flag(self):
        """k1-tour is φ-free: a memoised probe carries exactly the trial
        outcomes a fresh engine draws at its φ, flagged as reused."""
        from repro.engine.cache import ArtifactCache
        from repro.engine.executor import instance_artifacts
        from repro.ensemble.solver import EnsembleProbeEngine

        request = threshold_request()
        cache = ArtifactCache()
        ps, tree, tables, _ = instance_artifacts(cache, request.scenarios[0].instance(0))

        def engine():
            return EnsembleProbeEngine(ps, tree, tables, 1, request, "k", 0, cache)

        warm = engine()
        probes = [warm(phi) for phi in (0.0, 0.5, 2.0, 3.5, 4.0, 2.0)]
        assert [p.algorithm for p in probes] == (
            ["k1-tour"] * 3 + ["k1-pairs"] * 2 + ["k1-tour"]
        )
        assert [p.reused for p in probes] == [False, True, True, False, False, True]
        for probe in probes:
            fresh = engine()(probe.phi)
            assert not fresh.reused
            assert probe.as_list()[:-1] == fresh.as_list()[:-1]


class TestExecutor:
    def test_parallel_matches_serial(self):
        request = curve_request()
        serial = execute_ensemble(request)
        parallel = execute_ensemble(request, jobs=2)
        assert parallel.jobs_used == 2
        assert serial.aggregate_rows() == parallel.aggregate_rows()
        assert [o.results for o in serial.outcomes] == [
            o.results for o in parallel.outcomes
        ]

    def test_threshold_solver_through_executor(self):
        batch = execute_ensemble(threshold_request())
        for _, frontiers in batch.frontiers():
            for f in frontiers:
                assert f.status in ("located", "below_lo", "unattained")
                assert f.trials_used + f.trials_saved == (
                    f.evaluated_count * 12
                )

    def test_curve_aggregate_row_shape(self):
        request = curve_request()
        rows = execute_ensemble(request).aggregate_rows()
        assert len(rows) == len(request.grid)
        for row in rows:
            lo, hi = row["p_lo"], row["p_hi"]
            assert 0.0 <= lo <= row["p_connected"] <= hi <= 1.0
            assert (lo, hi) == wilson_interval(
                round(row["p_connected"] * row["trials"]),
                row["trials"],
                request.confidence,
            )


class TestDurability:
    def test_kill_mid_chunk_resume_bit_identical(self, tmp_path):
        """Acceptance: losing a trial-chunk row mid-run costs exactly that
        chunk on resume, and a completed ledger replays with zero kernel
        work AND zero trials."""
        request = curve_request()
        store = RunStore(tmp_path / "runs")
        cold = execute_ensemble(request, store=store)
        reference = cold.aggregate_rows()

        [ledger_path] = (tmp_path / "runs").glob("ledger-*.jsonl")
        lines = ledger_path.read_text("utf8").splitlines(keepends=True)
        rows = [ln for ln in lines if '"type": "ensemble"' in ln]
        assert len(rows) == request.total_slots == 4
        ledger_path.write_text("".join(rows[:3]), "utf8")

        with recording() as rec_partial:
            partial = execute_ensemble(request, store=store, resume=True)
        assert partial.replayed_instances == 3
        # Exactly the lost chunk re-runs: chunk trials x each grid cell.
        assert rec_partial.ensemble_trials == (
            request.chunk * len(request.grid)
        )
        assert partial.aggregate_rows() == reference

        with recording() as rec_full:
            full = execute_ensemble(request, store=store, resume=True)
        assert full.replayed_instances == 4
        assert rec_full.coverage_calls == 0
        assert rec_full.graph_builds == 0
        assert rec_full.polar_builds == 0
        assert rec_full.ensemble_trials == 0
        assert full.aggregate_rows() == reference
        assert assemble(request, store).aggregate_rows() == reference

    def test_rerun_without_resume_is_refused(self, tmp_path):
        request = curve_request()
        store = RunStore(tmp_path / "runs")
        execute_ensemble(request, store=store)
        with pytest.raises(StoreError, match="resume"):
            execute_ensemble(request, store=store)

    def test_two_shard_merge_equals_unsharded(self, tmp_path):
        for request in (curve_request(), threshold_request()):
            reference = execute_ensemble(request).aggregate_rows()
            run_dir = tmp_path / f"runs-{request.objective}"
            store = RunStore(run_dir)
            for i in range(2):
                execute_ensemble(request, store=store, shard=(i, 2))
            key, loaded, rows = merge_stores([run_dir])
            assert isinstance(loaded, EnsembleRequest) and loaded == request
            merged = assemble_rows(loaded, rows)
            assert merged.aggregate_rows() == reference

    def test_cancellation_tombstone_stops_the_run(self, tmp_path):
        request = curve_request()
        store = RunStore(tmp_path / "runs")
        store.cancel(request.fingerprint())
        with pytest.raises(PlanCancelled):
            execute_ensemble(request, store=store)

    def test_threshold_resume_zero_kernels(self, tmp_path):
        request = threshold_request()
        store = RunStore(tmp_path / "runs")
        cold = execute_ensemble(request, store=store)
        with recording() as rec:
            warm = execute_ensemble(request, store=store, resume=True)
        assert rec.coverage_calls == 0 and rec.ensemble_trials == 0
        assert warm.aggregate_rows() == cold.aggregate_rows()


class TestService:
    def test_double_submit_attaches_idempotently(self, tmp_path):
        """An EnsembleRequest rides the unchanged service: same job id,
        attached=True, zero kernel work and zero trials the second time."""
        from repro.service import ServiceClient, create_app, submit_payload

        store = RunStore(tmp_path / "run")
        try:
            client = ServiceClient(create_app(store))
            request = curve_request()
            payload = submit_payload(request)
            first = client.post("/plans", json_body=payload).raise_for_status()
            assert first.json["id"] == request.fingerprint()
            assert first.json["kind"] == "ensemble"
            assert first.json["attached"] is False
            client.app.manager.join(first.json["id"], timeout=120.0)

            with recording() as counters:
                second = client.post(
                    "/plans", json_body=payload
                ).raise_for_status()
                client.app.manager.join(second.json["id"], timeout=120.0)
                result = client.get(
                    f"/plans/{second.json['id']}/result"
                ).raise_for_status()
            assert second.json["id"] == first.json["id"]
            assert second.json["attached"] is True
            assert counters.coverage_calls == 0
            assert counters.ensemble_trials == 0
            assert len(result.json["rows"]) == len(request.grid)
        finally:
            store.close()


class TestEarlyStopping:
    def test_saves_at_least_3x_trials(self):
        """Acceptance: the Wilson stopper runs >= 3x fewer trials (and
        hence proportionally fewer coverage kernel calls; the full
        counter-level comparison lives in benchmarks/bench_ensemble.py)."""
        request = threshold_request(trials=60, chunk=6)
        batch = execute_ensemble(request)
        used, saved = batch.trial_totals()
        fixed_budget = used + saved
        assert saved > 0
        assert fixed_budget >= 3 * used, (used, saved)

    def test_early_stop_off_runs_full_budget(self):
        batch = execute_ensemble(
            threshold_request(trials=12, chunk=6, early_stop=False)
        )
        used, saved = batch.trial_totals()
        assert saved == 0
        for _, frontiers in batch.frontiers():
            for f in frontiers:
                assert f.trials_used == f.evaluated_count * 12


class TestX8:
    def test_p_to_1_limit_recovers_table1_thresholds(self):
        """The probabilistic frontier with the identity perturbation must
        land on the deterministic Table-1 thresholds 8pi/5, pi, 4pi/5."""
        from repro.experiments.ensemble_experiment import run_ensemble

        rec = run_ensemble(n=16, seeds=1, trials=24, tol=0.02)
        limit_rows = [r for r in rec.rows if r[0] == "p->1"]
        expected = {1: 1.6, 2: 1.0, 3: 0.8}
        assert len(limit_rows) == 3
        for row in limit_rows:
            k, phi_star_over_pi = row[1], row[4]
            assert abs(phi_star_over_pi - expected[k]) <= 0.01, row
            assert row[6] >= 3 * row[5], row  # saved >= 3x used

    def test_facade_submits_ensembles(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        request = curve_request()
        batch = submit(request, store=store)
        assert batch.aggregate_rows() == (
            assemble(request, store).aggregate_rows()
        )
