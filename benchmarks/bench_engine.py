"""Benchmark E1 — the engine's artifact cache vs per-config recomputation.

The acceptance workload for the batch engine: a 200-instance sweep over a
``(k, φ)`` grid.  The *naive* path is what the harness did before the
engine existed — rebuild the point set and its EMST for every grid cell —
while the *cached* path routes through :func:`repro.engine.execute_plan`
and builds each instance's artifacts exactly once.  The test asserts the
cached batch is measurably faster and produces identical metrics.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import orientation_metrics
from repro.core.planner import orient_antennae
from repro.engine import GridCell, PlanRequest, Scenario, execute_plan
from repro.geometry.points import PointSet
from repro.kernels.instrument import recording
from repro.spanning.emst import euclidean_mst
from repro.store import RunStore
from repro.utils.tables import format_ascii_table
from repro.utils.timing import measure
from tests.kernels_reference import per_instance_sweep

GRID = (
    GridCell(1, np.pi),
    GridCell(2, 2 * np.pi / 3),
    GridCell(2, np.pi),
    GridCell(3, 0.0),
    GridCell(4, 0.0),
    GridCell(5, 0.0),
)
SCENARIO = Scenario("uniform", 48, seeds=200, tag="bench-engine")


def _naive_sweep():
    """Pre-engine behaviour: every (instance, cell) pays full preprocessing."""
    out = []
    for coords in SCENARIO.instances():
        for cell in GRID:
            ps = PointSet(coords)
            tree = euclidean_mst(ps)
            res = orient_antennae(ps, cell.k, cell.phi, tree=tree)
            out.append(orientation_metrics(res, compute_critical=False))
    return out


def _cached_sweep():
    request = PlanRequest((SCENARIO,), GRID, compute_critical=False)
    return execute_plan(request, jobs=1)


def test_cached_batch_beats_per_config_recomputation(capsys):
    t_naive, naive_metrics = measure(_naive_sweep)
    t_cached, batch = measure(_cached_sweep)
    cached_metrics = [rec.metrics for rec in batch.records]

    assert len(cached_metrics) == len(naive_metrics)
    assert all(
        a.identical(b) for a, b in zip(cached_metrics, naive_metrics)
    ), "cache changed the results"
    assert batch.cache_stats.tree_builds == SCENARIO.seeds
    assert t_cached < t_naive, (
        f"cached batch ({t_cached:.2f}s) should beat naive recomputation "
        f"({t_naive:.2f}s) on a {SCENARIO.seeds}-instance sweep"
    )
    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["path", "seconds", "EMST builds"],
            [
                ["naive per-config", round(t_naive, 3),
                 SCENARIO.seeds * len(GRID)],
                ["engine cached batch", round(t_cached, 3),
                 batch.cache_stats.tree_builds],
                ["speedup", round(t_naive / t_cached, 2), "×"],
            ],
            title="[E1] 200-instance sweep: cached batch vs recomputation",
        ))


def test_parallel_matches_serial_on_sweep():
    """jobs=4 returns bit-identical metrics in the same order as jobs=1."""
    request = PlanRequest(
        (Scenario("uniform", 48, seeds=40, tag="bench-engine-par"),),
        GRID,
        compute_critical=False,
    )
    serial = execute_plan(request, jobs=1)
    parallel = execute_plan(request, jobs=4)
    assert len(serial.records) == len(parallel.records)
    assert all(
        a.metrics.identical(b.metrics)
        for a, b in zip(serial.records, parallel.records)
    )


def test_batched_launches_beat_per_instance_loop(capsys):
    """Benchmark E3 — the one-launch multi-instance batch path.

    The acceptance workload for the backend seam: a 200-instance sweep
    evaluated through the packed kernels (one coverage launch and one
    critical search per chunk per cell) vs the per-instance Python loop.
    Per the single-core CI convention the claim is a *work counter* ratio —
    ≥10× fewer Python-level kernel launches — with bit-identical metrics;
    wall-clock is reported for context only.
    """
    request = PlanRequest((SCENARIO,), GRID, compute_critical=False)
    with recording() as rec_batched:
        t_batched, batched = measure(lambda: execute_plan(request))
    with recording() as rec_loop:
        t_loop, (loop, _, _) = measure(lambda: per_instance_sweep(request))
    assert all(
        a.metrics.identical(b.metrics)
        for a, b in zip(batched.records, loop)
    ), "batching changed the results"
    assert rec_batched.batched_instances == SCENARIO.seeds
    assert rec_loop.coverage_calls >= 10 * rec_batched.coverage_calls
    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["path", "seconds", "coverage launches", "instances/launch"],
            [
                ["per-instance loop", round(t_loop, 3),
                 rec_loop.coverage_calls, 1],
                ["packed batch", round(t_batched, 3),
                 rec_batched.coverage_calls,
                 round(SCENARIO.seeds * len(GRID)
                       / max(rec_batched.coverage_calls, 1), 1)],
            ],
            title=f"[E3] {SCENARIO.seeds}-instance sweep: "
                  "one-launch batch path vs per-instance loop",
        ))


def test_store_replay_skips_all_work(tmp_path, capsys):
    """Benchmark E2 — resuming a fully-ledgered sweep re-executes nothing.

    The acceptance workload routed through the run store: the 200-instance
    sweep is checkpointed instance by instance, then resumed from a complete
    ledger.  Per the single-core CI convention the claim is stated in *work*
    counters, not wall-clock: the replay performs zero planner kernel
    invocations and zero EMST builds, yet returns a bit-identical batch.
    """
    request = PlanRequest((SCENARIO,), GRID, compute_critical=False)
    store = RunStore(tmp_path / "runs")
    t_cold, cold = measure(lambda: execute_plan(request, store=store))
    with recording() as rec:
        t_warm, warm = measure(
            lambda: execute_plan(request, store=store, resume=True)
        )
    assert warm.replayed_instances == SCENARIO.seeds
    assert rec.coverage_calls == 0, "replay ran the coverage kernel"
    assert rec.graph_builds == 0, "replay built transmission graphs"
    assert rec.polar_builds == 0, "replay recomputed polar tables"
    assert warm.cache_stats.as_dict() == cold.cache_stats.as_dict()
    assert all(
        a.metrics.identical(b.metrics)
        for a, b in zip(cold.records, warm.records)
    )
    ledger_bytes = sum(
        p.stat().st_size for p in (tmp_path / "runs").glob("ledger-*.jsonl")
    )
    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["path", "seconds", "kernel coverage calls", "EMST builds"],
            [
                ["cold run (ledgered)", round(t_cold, 3),
                 "-", cold.cache_stats.tree_builds],
                ["resume (full replay)", round(t_warm, 3),
                 rec.coverage_calls, 0],
                ["ledger size", f"{ledger_bytes / 1024:.0f} KiB", "", ""],
            ],
            title=f"[E2] {SCENARIO.seeds}-instance sweep replayed from the run store",
        ))
