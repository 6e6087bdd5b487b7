"""Tests for the persistent run store: ledger, resume, sharding, merge.

The determinism claims follow the single-core CI convention: resumed and
sharded runs are validated by bit-identical results and by kernel/cache
*work counters* (no re-execution of ledgered chunks), never by wall-clock.
"""

import json

import numpy as np
import pytest

from repro.api import assemble_rows
from repro.engine import GridCell, PlanRequest, Scenario, Shard, execute_plan
from repro.errors import InvalidParameterError
from repro.kernels.instrument import recording
from repro.store import (
    RunStore,
    StoreError,
    merge_stores,
    plan_fingerprint,
    request_from_dict,
    request_to_dict,
    rows_equal,
)

GRID = (GridCell(1, np.pi), GridCell(2, 2 * np.pi / 3), GridCell(3, 0.0))


def one_scenario_request(seeds=3, **kwargs) -> PlanRequest:
    return PlanRequest(
        (Scenario("uniform", 20, seeds=seeds, tag="test-store"),), GRID, **kwargs
    )


def two_scenario_request() -> PlanRequest:
    return PlanRequest(
        scenarios=(
            Scenario("uniform", 20, seeds=3, tag="test-store"),
            Scenario("grid", 16, seeds=2, tag="test-store"),
        ),
        grid=GRID,
    )


def assert_batches_identical(a, b) -> None:
    """Bit-identical records and aggregate tables (NaN-tolerant)."""
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.scenario == rb.scenario
        assert ra.instance_index == rb.instance_index
        assert ra.cell == rb.cell
        assert ra.metrics.identical(rb.metrics)
    assert rows_equal(a.aggregate_by_cell(), b.aggregate_by_cell())
    assert rows_equal(
        a.aggregate_by_scenario_cell(), b.aggregate_by_scenario_cell()
    )


def truncate_after_instances(run_dir, keep: int) -> None:
    """Rewrite the single ledger file keeping ``keep`` instance rows, then a
    torn partial line — the on-disk state of a run killed mid-checkpoint."""
    (ledger,) = run_dir.glob("ledger-*.jsonl")
    rows = [
        line
        for line in ledger.read_text(encoding="utf8").splitlines(True)
        if '"type": "instance"' in line
    ]
    assert len(rows) > keep, "test needs more completed instances to truncate"
    ledger.write_text(
        "".join(rows[:keep]) + rows[keep][: len(rows[keep]) // 2],
        encoding="utf8",
    )


class TestPlanFingerprint:
    def test_round_trip(self):
        req = two_scenario_request()
        rebuilt = request_from_dict(json.loads(json.dumps(request_to_dict(req))))
        assert rebuilt == req
        assert plan_fingerprint(rebuilt) == plan_fingerprint(req)

    def test_sensitive_to_every_field(self):
        base = one_scenario_request()
        variants = [
            one_scenario_request(seeds=4),
            one_scenario_request(compute_critical=False),
            PlanRequest(base.scenarios, GRID[:2]),
            PlanRequest(
                (Scenario("uniform", 20, seeds=3, tag="other"),), GRID
            ),
            PlanRequest(
                base.scenarios, (GridCell(1, np.nextafter(np.pi, 4)),) + GRID[1:]
            ),
        ]
        keys = {plan_fingerprint(v) for v in variants}
        assert plan_fingerprint(base) not in keys
        assert len(keys) == len(variants)


class TestShard:
    def test_partition_is_disjoint_and_complete(self):
        shards = [Shard(i, 3) for i in range(3)]
        owned = [{s for s in range(10) if sh.owns(s)} for sh in shards]
        assert set().union(*owned) == set(range(10))
        assert sum(len(o) for o in owned) == 10

    def test_parse(self):
        assert Shard.parse("1/4") == Shard(1, 4)
        for bad in ("1", "a/b", "2/2", "-1/2", "1/0"):
            with pytest.raises(InvalidParameterError):
                Shard.parse(bad)

    def test_of_normalizes(self):
        assert Shard.of(None) == Shard(0, 1)
        assert Shard.of((1, 2)) == Shard(1, 2)
        assert Shard.of(Shard(1, 2)) == Shard(1, 2)


class TestCheckpointAndResume:
    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        req = two_scenario_request()
        uninterrupted = execute_plan(req)

        run_dir = tmp_path / "runs"
        execute_plan(req, store=RunStore(run_dir))
        truncate_after_instances(run_dir, keep=2)

        resumed = execute_plan(req, store=RunStore(run_dir), resume=True)
        assert resumed.replayed_instances == 2
        assert_batches_identical(uninterrupted, resumed)
        # Cache accounting is also restart-invariant: ledgered deltas plus
        # fresh deltas equal the uninterrupted totals.
        assert (
            resumed.cache_stats.as_dict() == uninterrupted.cache_stats.as_dict()
        )
        # Resuming over a torn tail must not glue the next row onto the
        # fragment: the run directory stays fully readable afterwards.
        _, request, rows = merge_stores([run_dir])
        assert_batches_identical(uninterrupted, assemble_rows(request, rows))
        replay = execute_plan(req, store=RunStore(run_dir), resume=True)
        assert replay.replayed_instances == req.total_instances

    def test_resume_does_not_reexecute_completed_chunks(self, tmp_path):
        """Kernel counters during resume == a fresh run of only the missing
        instances (via seed_offset, which addresses the same ensemble)."""
        req = one_scenario_request(seeds=3)
        run_dir = tmp_path / "runs"
        execute_plan(req, store=RunStore(run_dir))
        truncate_after_instances(run_dir, keep=1)

        remainder = PlanRequest(
            (Scenario("uniform", 20, seeds=2, tag="test-store", seed_offset=1),),
            GRID,
        )
        with recording() as expected:
            execute_plan(remainder)
        with recording() as actual:
            resumed = execute_plan(req, store=RunStore(run_dir), resume=True)
        assert resumed.replayed_instances == 1
        assert actual.as_dict() == expected.as_dict()
        assert actual.coverage_calls > 0  # the fresh instances did run

    def test_full_replay_performs_zero_kernel_work(self, tmp_path):
        req = one_scenario_request()
        store = RunStore(tmp_path / "runs")
        first = execute_plan(req, store=store)
        with recording() as rec:
            replay = execute_plan(req, store=store, resume=True)
        assert replay.replayed_instances == req.total_instances
        assert all(v == 0 for v in rec.as_dict().values()), rec.as_dict()
        assert replay.cache_stats.tree_builds == first.cache_stats.tree_builds
        assert_batches_identical(first, replay)

    def test_rerun_without_resume_is_refused(self, tmp_path):
        req = one_scenario_request()
        execute_plan(req, store=RunStore(tmp_path / "runs"))
        with pytest.raises(StoreError, match="resume"):
            execute_plan(req, store=RunStore(tmp_path / "runs"))

    def test_parallel_execution_checkpoints_too(self, tmp_path):
        req = one_scenario_request(seeds=4, compute_critical=False)
        serial = execute_plan(req)
        batch = execute_plan(req, store=RunStore(tmp_path / "runs"), jobs=2)
        if batch.fallback_reason is None:
            assert batch.jobs_used > 1
        with recording() as rec:
            replay = execute_plan(
                req, store=RunStore(tmp_path / "runs"), resume=True
            )
        assert replay.replayed_instances == 4
        assert all(v == 0 for v in rec.as_dict().values())
        assert_batches_identical(serial, replay)


class TestSharding:
    def test_two_shards_merge_bit_identical_to_unsharded(self, tmp_path):
        req = two_scenario_request()
        unsharded = execute_plan(req)

        run_dir = tmp_path / "runs"
        s0 = execute_plan(req, store=RunStore(run_dir), shard=(0, 2))
        s1 = execute_plan(req, store=RunStore(run_dir), shard=(1, 2))
        assert s0.shard == Shard(0, 2) and s1.shard == Shard(1, 2)
        assert len(s0.instance_reports) + len(s1.instance_reports) == 5

        key, request, rows = merge_stores([run_dir])
        assert request == req
        merged = assemble_rows(request, rows)
        assert_batches_identical(unsharded, merged)
        assert merged.cache_stats.as_dict() == unsharded.cache_stats.as_dict()

    def test_shards_in_separate_dirs_merge(self, tmp_path):
        req = one_scenario_request(seeds=4, compute_critical=False)
        unsharded = execute_plan(req)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for i, d in enumerate(dirs):
            execute_plan(req, store=RunStore(d), shard=Shard(i, 2))
        _, request, rows = merge_stores(dirs)
        assert_batches_identical(unsharded, assemble_rows(request, rows))

    def test_sharded_result_covers_only_its_instances(self):
        req = one_scenario_request(seeds=5, compute_critical=False)
        batch = execute_plan(req, shard=(1, 2))  # shards work without a store
        assert [r.instance_index for r in batch.instance_reports] == [1, 3]
        assert len(batch.records) == 2 * len(GRID)
        rows = batch.aggregate_by_cell()
        assert all(row["runs"] == 2 for row in rows)

    def test_merge_refuses_mismatched_plans(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        execute_plan(one_scenario_request(), store=RunStore(a))
        execute_plan(two_scenario_request(), store=RunStore(b))
        with pytest.raises(StoreError, match="different plans|expected"):
            merge_stores([a, b])

    def test_incomplete_merge_requires_allow_partial(self, tmp_path):
        req = one_scenario_request(seeds=4, compute_critical=False)
        run_dir = tmp_path / "runs"
        execute_plan(req, store=RunStore(run_dir), shard=(0, 2))
        _, request, rows = merge_stores([run_dir])
        with pytest.raises(StoreError, match="2/4"):
            assemble_rows(request, rows)
        partial = assemble_rows(request, rows, allow_partial=True)
        assert [r.instance_index for r in partial.instance_reports] == [0, 2]


class TestLedgerRobustness:
    def test_torn_trailing_line_is_ignored(self, tmp_path):
        req = one_scenario_request()
        run_dir = tmp_path / "runs"
        execute_plan(req, store=RunStore(run_dir))
        (ledger,) = run_dir.glob("ledger-*.jsonl")
        with open(ledger, "a", encoding="utf8") as fh:
            fh.write('{"type": "instance", "slot": 9')  # killed mid-write
        rows = RunStore(run_dir).rows_for(req)
        assert sorted(rows) == [0, 1, 2]

    def test_corrupt_middle_row_raises(self, tmp_path):
        req = one_scenario_request()
        run_dir = tmp_path / "runs"
        execute_plan(req, store=RunStore(run_dir))
        (ledger,) = run_dir.glob("ledger-*.jsonl")
        lines = ledger.read_text(encoding="utf8").splitlines(True)
        lines[1] = lines[1][:20] + "\n"
        ledger.write_text("".join(lines), encoding="utf8")
        with pytest.raises(StoreError, match="corrupt"):
            RunStore(run_dir).rows_for(req)

    def test_two_plans_share_a_run_dir(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        req_a = one_scenario_request(compute_critical=False)
        req_b = two_scenario_request()
        execute_plan(req_a, store=store)
        execute_plan(req_b, store=store)
        assert len(store.plan_keys()) == 2
        with pytest.raises(StoreError, match="2 plans"):
            store.load_request()
        key_a = plan_fingerprint(req_a)
        _, loaded = store.load_request(key_a[:12])
        assert loaded == req_a
        assert sorted(store.load_rows(key_a)) == [0, 1, 2]
        with pytest.raises(StoreError, match="ambiguous"):
            store.load_request("")  # prefix matching both plans

    def test_empty_shard_aggregates_to_no_rows(self):
        req = one_scenario_request(seeds=2, compute_critical=False)
        batch = execute_plan(req, shard=(2, 3))  # owns no slot of {0, 1}
        assert batch.records == []
        assert batch.aggregate_by_cell() == []
        assert batch.aggregate_by_scenario_cell() == []

    def test_edited_plan_file_is_detected(self, tmp_path):
        req = one_scenario_request()
        store = RunStore(tmp_path / "runs")
        key = store.write_plan(req)
        path = store.plan_path(key)
        data = json.loads(path.read_text(encoding="utf8"))
        data["request"]["scenarios"][0]["seeds"] = 99
        path.write_text(json.dumps(data), encoding="utf8")
        with pytest.raises(StoreError, match="edited"):
            RunStore(tmp_path / "runs").load_request()

    def test_metrics_round_trip_exactly(self, tmp_path):
        """JSON floats round-trip bit-exactly, including NaN criticals."""
        req = one_scenario_request(seeds=2, compute_critical=False)
        store = RunStore(tmp_path / "runs")
        live = execute_plan(req, store=store)
        loaded = assemble_rows(req, store.rows_for(req))
        for a, b in zip(live.records, loaded.records):
            assert a.metrics.identical(b.metrics)
            for name, value in a.metrics.as_dict().items():
                other = getattr(b.metrics, name)
                if isinstance(value, float) and not np.isnan(value):
                    assert value == other and type(other) is type(value)


class TestPhiBoundaryRoundTrip:
    """Regression: φ = 2π grid cells survive spec → ledger JSON → merge.

    ``GridCell`` accepted ``2π + 1e-12`` but stored it unclamped, so the
    full-circle boundary could reach sector construction (which assumes
    φ ≤ 2π exactly) and fingerprint differently from a clean 2π spec."""

    def test_two_pi_cell_round_trips_through_ledger_and_merge(self, tmp_path):
        two_pi = 2.0 * np.pi
        req = PlanRequest(
            (Scenario("uniform", 12, seeds=2, tag="test-2pi"),),
            (GridCell(1, two_pi), GridCell(2, np.pi)),
            compute_critical=False,
        )
        store = RunStore(tmp_path / "runs")
        live = execute_plan(req, store=store)
        key, loaded, rows = merge_stores([tmp_path / "runs"])
        assert loaded == req
        assert loaded.grid[0].phi == two_pi
        assert key == plan_fingerprint(req)
        merged = assemble_rows(loaded, rows)
        assert_batches_identical(live, merged)

    def test_slop_value_fingerprints_like_exact_two_pi(self):
        """Clamping happens before hashing: a spec built from a float that
        accumulated error above 2π shares the clean spec's ledger."""
        two_pi = 2.0 * np.pi
        exact = PlanRequest(
            (Scenario("uniform", 12, seeds=1, tag="test-2pi"),),
            (GridCell(1, two_pi),),
        )
        sloppy = PlanRequest(
            (Scenario("uniform", 12, seeds=1, tag="test-2pi"),),
            (GridCell(1, two_pi + 1e-13),),
        )
        assert sloppy.grid[0].phi == two_pi
        assert plan_fingerprint(sloppy) == plan_fingerprint(exact)
        again = request_from_dict(
            json.loads(json.dumps(request_to_dict(sloppy)))
        )
        assert again == exact


class TestForwardCompatibility:
    """A ledger written by a newer version must replay here.

    Newer versions may add row keys (like the ``backend`` tag this version
    added), metric fields, cache counters, or scenario fields; readers drop
    what they don't know instead of failing strict-key validation."""

    def inject_unknown_keys(self, run_dir) -> None:
        (ledger,) = run_dir.glob("ledger-*.jsonl")
        out = []
        for line in ledger.read_text(encoding="utf8").splitlines():
            obj = json.loads(line)
            if obj.get("type") == "instance":
                obj["future_row_key"] = {"nested": True}
                obj["cache"]["future_counter"] = 7
                for m in obj["metrics"]:
                    m["future_metric"] = 0.25
            out.append(json.dumps(obj))
        ledger.write_text("\n".join(out) + "\n", encoding="utf8")

    def test_round_trip_with_unknown_keys_everywhere(self, tmp_path):
        req = one_scenario_request(seeds=2)
        store = RunStore(tmp_path / "runs")
        live = execute_plan(req, store=store)
        self.inject_unknown_keys(tmp_path / "runs")

        key, loaded, rows = merge_stores([tmp_path / "runs"])
        assert loaded == req
        merged = assemble_rows(loaded, rows)
        assert_batches_identical(live, merged)

        resumed = execute_plan(req, store=RunStore(tmp_path / "runs"),
                               resume=True)
        assert resumed.replayed_instances == req.total_instances
        assert_batches_identical(live, resumed)

    def test_unknown_scenario_keys_dropped(self):
        data = request_to_dict(one_scenario_request())
        for s in data["scenarios"]:
            s["future_scenario_field"] = "x"
        assert request_from_dict(data) == one_scenario_request()

    def test_unknown_row_types_skipped(self, tmp_path):
        req = one_scenario_request(seeds=2)
        store = RunStore(tmp_path / "runs")
        execute_plan(req, store=store)
        (ledger,) = (tmp_path / "runs").glob("ledger-*.jsonl")
        with open(ledger, "a", encoding="utf8") as fh:
            fh.write(json.dumps({"type": "future_row", "slot": 99}) + "\n")
        rows = RunStore(tmp_path / "runs").load_rows(plan_fingerprint(req))
        assert sorted(rows) == list(range(req.total_instances))

    def test_rows_record_their_backend(self, tmp_path):
        req = one_scenario_request(seeds=2)
        store = RunStore(tmp_path / "runs")
        execute_plan(req, store=store)
        rows = store.load_rows(plan_fingerprint(req))
        assert all(row.backend == "numpy" for row in rows.values())
        # rows written before the tag existed default to numpy
        (ledger,) = (tmp_path / "runs").glob("ledger-*.jsonl")
        out = []
        for line in ledger.read_text(encoding="utf8").splitlines():
            obj = json.loads(line)
            obj.pop("backend", None)
            out.append(json.dumps(obj))
        ledger.write_text("\n".join(out) + "\n", encoding="utf8")
        rows = store.load_rows(plan_fingerprint(req))
        assert all(row.backend == "numpy" for row in rows.values())


class TestLifecycle:
    """``repro store compact`` / ``repro store gc`` semantics."""

    def sharded_run(self, run_dir, req):
        results = []
        for i in range(3):
            results.append(
                execute_plan(req, store=RunStore(run_dir), shard=(i, 3))
            )
        return results

    def test_compact_merges_shards_bit_identically(self, tmp_path):
        from repro.store import compact_plan

        req = two_scenario_request()
        run_dir = tmp_path / "runs"
        self.sharded_run(run_dir, req)
        store = RunStore(run_dir)
        key = plan_fingerprint(req)
        before = store.load_rows(key)
        raw_before = {
            slot: row.to_json() for slot, row in before.items()
        }
        assert len(store.ledger_paths(key)) == 3

        report = compact_plan(store, dry_run=True)
        assert len(store.ledger_paths(key)) == 3  # dry run touches nothing

        report = compact_plan(store)
        assert report.rows == req.total_instances
        assert report.files_before == 3
        paths = store.ledger_paths(key)
        assert len(paths) == 1
        assert paths[0].name.endswith("-s0000of0001.jsonl")
        after = store.load_rows(key)
        assert {s: r.to_json() for s, r in after.items()} == raw_before
        # the archive replays like the original shards
        _, loaded, rows = merge_stores([run_dir])
        assemble_rows(loaded, rows)  # must not raise
        # fingerprint (and plan file) untouched
        assert store.plan_keys() == [key]

    def test_compact_then_resume_reexecutes_nothing(self, tmp_path):
        from repro.store import compact_plan

        req = one_scenario_request()
        run_dir = tmp_path / "runs"
        self.sharded_run(run_dir, req)
        compact_plan(RunStore(run_dir))
        with recording() as rec:
            resumed = execute_plan(req, store=RunStore(run_dir), resume=True)
        assert resumed.replayed_instances == req.total_instances
        assert rec.as_dict()["coverage_calls"] == 0

    def test_gc_removes_tmp_and_rowless_plans(self, tmp_path):
        from repro.store import gc_store

        run_dir = tmp_path / "runs"
        req = one_scenario_request(seeds=2)
        store = RunStore(run_dir)
        execute_plan(req, store=store)
        # a plan that never checkpointed anything, plus a stale tmp file
        empty_req = one_scenario_request(seeds=2, compute_critical=False)
        store.write_plan(empty_req)
        stale = run_dir / "plan-deadbeef.json.tmp"
        stale.write_text("{}", encoding="utf8")

        report = gc_store(store, dry_run=True)
        assert stale.exists()  # dry run touches nothing
        assert {p.name for p in report.removed} == {
            stale.name,
            store.plan_path(plan_fingerprint(empty_req)).name,
        }

        gc_store(store)
        assert not stale.exists()
        assert store.plan_keys() == [plan_fingerprint(req)]
        # the surviving plan still loads and assembles
        key, loaded, rows = merge_stores([run_dir])
        assert loaded == req
        assemble_rows(loaded, rows)

    def test_gc_named_plan_removes_it_entirely(self, tmp_path):
        from repro.store import gc_store

        run_dir = tmp_path / "runs"
        store = RunStore(run_dir)
        req_a = one_scenario_request(seeds=2)
        req_b = one_scenario_request(seeds=2, compute_critical=False)
        execute_plan(req_a, store=store)
        execute_plan(req_b, store=RunStore(run_dir))
        key_a = plan_fingerprint(req_a)
        gc_store(RunStore(run_dir), key_a)
        survivors = RunStore(run_dir).plan_keys()
        assert survivors == [plan_fingerprint(req_b)]
        assert not RunStore(run_dir).ledger_paths(key_a)
