"""Crash consistency of a run directory at its write boundaries.

A ledger row is a newline-terminated line, and every reader of a run
directory applies that rule: resume replay, progress, compaction and gc.
These tests cut the last row at every byte offset, kill a worker between
its claim and its first row, and run maintenance beside a live writer.
Results are compared under ``OrientationMetrics.identical`` with an
uninterrupted run, never by wall-clock.
"""

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

from repro.__main__ import main
from repro.api import assemble, submit
from repro.engine import GridCell, PlanRequest, Scenario, Shard
from repro.ensemble import EnsembleRequest, Perturbation
from repro.frontier import FrontierRequest
from repro.service import drain_plan, drain_store
from repro.store import (
    RunStore,
    StoreError,
    claim_shard,
    compact_plan,
    enqueue,
    gc_store,
    is_shard_dead,
    plan_progress,
    release_shard,
    rows_equal,
)
from repro.store.coordination import claim_info, claim_is_stale


def tiny_sweep(tag="crash") -> PlanRequest:
    """Three n = 4 instances, one grid cell: rows of about 655 bytes."""
    return PlanRequest(
        (Scenario("uniform", 4, seeds=3, tag=tag),),
        (GridCell(1, math.pi),),
        compute_critical=False,
    )


def table(result) -> list[dict]:
    if hasattr(result, "aggregate_by_scenario_cell"):
        return result.aggregate_by_scenario_cell()
    return result.aggregate_rows()


def assert_same(a, b) -> None:
    assert len(a.records) == len(b.records)
    for x, y in zip(a.records, b.records):
        assert (x.scenario, x.instance_index, x.cell) == (
            y.scenario, y.instance_index, y.cell
        )
        assert x.metrics.identical(y.metrics)
    assert rows_equal(table(a), table(b))


def deadline(seconds: float):
    end = time.monotonic() + seconds
    return lambda: time.monotonic() > end


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """An uninterrupted run: its request, directory, ledger name, instance
    rows (raw bytes, newline included) and result."""
    request = tiny_sweep()
    run_dir = tmp_path_factory.mktemp("finished")
    store = RunStore(run_dir)
    reference = submit(request, store=store)
    store.close()
    (ledger,) = run_dir.glob("ledger-*.jsonl")
    rows = [
        line
        for line in ledger.read_bytes().splitlines(keepends=True)
        if b'"type": "instance"' in line
    ]
    assert len(rows) == 3
    return request, run_dir, ledger.name, rows, reference


def truncated_copy(finished, dest, torn: int, cut: int):
    """``dest`` holds rows ``0 .. torn-1`` and the first ``cut`` bytes of row
    ``torn``: a run killed while it wrote that row."""
    request, src, name, rows, _ = finished
    shutil.copytree(src, dest)
    (dest / name).write_bytes(b"".join(rows[:torn]) + rows[torn][:cut])
    return dest


# Row 2 torn: the last slot.  Row 1 torn: slot 2 is still to run after it.
TORN = pytest.mark.parametrize("torn", [2, 1], ids=["last-row", "row-before-pending"])


class TestTruncatedLastRow:
    @TORN
    def test_readers_agree_at_every_byte_offset(self, finished, tmp_path, torn):
        request, _, name, rows, _ = finished
        run_dir = truncated_copy(finished, tmp_path / "run", torn, 0)
        store = RunStore(run_dir)
        key = request.fingerprint()
        row = rows[torn]
        for cut in range(len(row) + 1):
            (run_dir / name).write_bytes(b"".join(rows[:torn]) + row[:cut])
            counts = (
                len(store.rows_for(request)),
                plan_progress(store, key).done_instances,
                compact_plan(store, key, dry_run=True).rows,
            )
            expected = torn + (cut == len(row))
            assert counts == (expected,) * 3, f"cut at byte {cut} of {len(row)}"

    @TORN
    def test_resume_and_drain_complete_the_plan(self, finished, tmp_path, torn):
        request, _, _, rows, reference = finished
        key = request.fingerprint()
        size = len(rows[torn])
        for cut in sorted({0, 1, size // 2, size - 1, size}):
            run_dir = truncated_copy(finished, tmp_path / f"resume-{cut}", torn, cut)
            store = RunStore(run_dir)
            assert_same(submit(request, store=store, resume=True), reference)
            store.close()
            assert_same(assemble(request, RunStore(run_dir)), reference)
            assert plan_progress(RunStore(run_dir), key).complete

            run_dir = truncated_copy(finished, tmp_path / f"drain-{cut}", torn, cut)
            store = RunStore(run_dir)
            enqueue(store, request)
            assert drain_store(store, once=True, should_stop=deadline(30)) == 1
            store.close()
            assert plan_progress(RunStore(run_dir), key).complete
            assert_same(assemble(request, RunStore(run_dir)), reference)


class TestKillBetweenClaimAndFirstRow:
    def test_stale_claim_is_broken_and_the_shard_runs(self, tmp_path):
        request = tiny_sweep(tag="crash-claim")
        store = RunStore(tmp_path / "run")
        key = enqueue(store, request)
        shard = Shard(0, 1)
        child = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        assert claim_shard(store, key, shard, "killed-worker")
        (path,) = store.run_dir.glob("claim-*.json")
        claim = json.loads(path.read_text(encoding="utf8"))
        claim["pid"] = int(child.stdout)  # a holder that no longer exists
        path.write_text(json.dumps(claim), encoding="utf8")

        assert not store.ledger_paths(key)
        assert plan_progress(store, key).state == "running"
        assert claim_is_stale(claim_info(store, key, shard))

        assert drain_plan(store, key, owner="survivor") is True
        assert is_shard_dead(store, key, shard)
        assert not list(store.run_dir.glob("claim-*"))
        assert_same(assemble(request, store), submit(request))


class TestMaintenanceUnderLiveClaim:
    def test_compaction_waits_for_the_claim(self, tmp_path, capsys):
        request = tiny_sweep(tag="crash-live")
        run_dir = tmp_path / "run"
        store = RunStore(run_dir)
        key = enqueue(store, request, shards=2)
        submit(request, store=store, shard=Shard(1, 2))
        # This process holds shard 0's claim, and its append handle is open
        # when each row lands: maintenance must leave the plan alone.
        assert claim_shard(store, key, Shard(0, 2), "live-writer")
        refused = []

        def maintain(_report) -> None:
            for action in (compact_plan, gc_store):
                with pytest.raises(StoreError, match="claimed by live-writer"):
                    action(RunStore(run_dir), key)
            refused.append(main(["store", "compact", "--run-dir", str(run_dir)]))

        submit(request, store=store, shard=Shard(0, 2), on_instance=maintain)
        assert refused == [2, 2]  # slots 0 and 2; CLI store errors exit 2
        release_shard(store, key, Shard(0, 2))

        assert compact_plan(store, key).rows == request.total_instances
        assert store.ledger_paths(key) == [store.ledger_path(key, Shard())]
        assert_same(assemble(request, store), submit(request))
        capsys.readouterr()

    def test_gc_skips_a_claimed_rowless_plan(self, tmp_path):
        request = tiny_sweep(tag="crash-live-gc")
        run_dir = tmp_path / "run"
        store = RunStore(run_dir)
        key = enqueue(store, request)
        assert claim_shard(store, key, Shard(), "live-writer")
        files = sorted(run_dir.iterdir())
        assert [p.name.split("-")[0] for p in files] == ["claim", "plan", "queue"]
        assert gc_store(store).removed == []
        assert sorted(run_dir.iterdir()) == files
        release_shard(store, key, Shard())
        assert {p.name for p in gc_store(store).removed} == {
            p.name for p in files[1:]
        }
        assert not list(run_dir.iterdir())


def ensemble_curve(tag: str) -> EnsembleRequest:
    return EnsembleRequest(
        scenarios=(Scenario("uniform", 8, seeds=2, tag=tag),),
        grid=(GridCell(1, 1.2 * math.pi),),
        trials=8,
        chunk=4,
        perturbation=Perturbation(rotate=True, edge_fail=0.1),
        compute_critical=False,
    )


REQUESTS = {
    "sweep": lambda tag: tiny_sweep(tag=tag),
    "frontier": lambda tag: FrontierRequest(
        scenarios=(Scenario("uniform", 8, seeds=2, tag=tag),),
        ks=(1,), metric="critical_range", target=None,
        phi_lo=math.pi, phi_hi=2 * math.pi, tol=0.5,
    ),
    "ensemble-curve": ensemble_curve,
    "ensemble-threshold": lambda tag: EnsembleRequest(
        scenarios=(Scenario("uniform", 8, seeds=2, tag=tag),),
        ks=(1,), metric="critical_range", quantile=0.5, target=1.25,
        phi_lo=2.0, phi_hi=2 * math.pi, tol=0.5, trials=6, chunk=6,
        perturbation=Perturbation(fade_sigma=0.05),
    ),
}


class TestMaintenanceOnEveryKind:
    def test_gc_on_an_ensemble_directory(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        store = RunStore(run_dir)
        done = ensemble_curve("gc-done")
        submit(done, store=store)
        store.close()
        kept = sorted(p.name for p in run_dir.iterdir())
        RunStore(run_dir).write_plan(ensemble_curve("gc-rowless"))

        assert main(["store", "gc", "--run-dir", str(run_dir)]) == 0
        assert sorted(p.name for p in run_dir.iterdir()) == kept
        assert RunStore(run_dir).plan_keys() == [done.fingerprint()]
        capsys.readouterr()

    @pytest.mark.parametrize("kind", sorted(REQUESTS))
    def test_compact_and_gc_keep_the_result(self, kind, tmp_path, capsys):
        request = REQUESTS[kind](f"maint-{kind}")
        run_dir = tmp_path / "run"
        for i in range(2):
            store = RunStore(run_dir)
            submit(request, store=store, shard=Shard(i, 2))
            store.close()
        before = assemble(request, RunStore(run_dir))
        for action in ("compact", "gc"):
            assert main(["store", action, "--run-dir", str(run_dir)]) == 0
        store = RunStore(run_dir)
        assert len(store.ledger_paths(request.fingerprint())) == 1
        assert rows_equal(table(assemble(request, store)), table(before))
        capsys.readouterr()
