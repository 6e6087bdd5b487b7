"""Benchmark FR — adaptive φ-frontier vs a dense grid, and ledger replay.

FR1: the acceptance workload for the frontier solver.  Locating the φ at
which the k = 2 range bound drops to √2 (the Table-1 crossover at φ = π)
to tolerance 1e-3 takes the bisection O(log((hi-lo)/tol)) probes per
instance; a dense ``repro sweep`` grid achieving the same resolution
evaluates every tol-spaced cell.  Per the single-core CI convention the
claim is stated in *work* counters (orientation/coverage kernel calls),
not wall-clock — both paths route through the same engine cache and
kernels, so the counter ratio is the probe ratio.

FR2: a frontier run killed mid-flight (simulated by truncating the shard
ledger) resumes from the store: only the lost instances re-execute, a
second resume replays everything with **zero** kernel calls, and the
aggregate tables are bit-identical throughout.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine import (
    FrontierRequest,
    GridCell,
    PlanRequest,
    Scenario,
    execute_plan,
)
from repro.frontier import execute_frontier
from repro.kernels.instrument import recording
from repro.store import RunStore
from repro.utils.tables import format_ascii_table
from repro.utils.timing import measure

PHI_LO, PHI_HI, TOL = 2.8, 3.3, 1e-3
TARGET = math.sqrt(2.0)  # k=2 bound reaches sqrt(2) exactly at phi = pi
SCENARIO = Scenario("uniform", 32, seeds=2, tag="bench-frontier")


def _frontier_request(metric: str = "range_bound") -> FrontierRequest:
    return FrontierRequest(
        scenarios=(SCENARIO,),
        ks=(2,),
        metric=metric,
        target=TARGET,
        phi_lo=PHI_LO,
        phi_hi=PHI_HI,
        tol=TOL,
    )


def test_adaptive_frontier_beats_dense_grid(capsys):
    """FR1 — same threshold, same tolerance, strictly fewer kernel calls."""
    request = _frontier_request()
    with recording() as rec_adaptive:
        t_adaptive, batch = measure(lambda: execute_frontier(request))

    # The dense grid achieving the same phi resolution: every tol-spaced
    # cell of the interval, swept through the engine (shared artifacts, the
    # same kernels the frontier probes use).
    n_cells = int(round((PHI_HI - PHI_LO) / TOL)) + 1
    grid = tuple(GridCell(2, PHI_LO + i * TOL) for i in range(n_cells))
    plan = PlanRequest((SCENARIO,), grid, compute_critical=False)
    with recording() as rec_dense:
        t_dense, dense = measure(lambda: execute_plan(plan))

    # Both paths locate the same threshold to the same tolerance.
    dense_by_cell = dense.aggregate_by_cell()
    dense_star = next(
        cell.phi
        for cell, row in zip(grid, dense_by_cell)
        if row["bound"] <= TARGET
    )
    for outcome in batch.outcomes:
        f = outcome.frontiers[0]
        assert f.status == "located"
        assert abs(f.phi_star - math.pi) <= TOL
        assert abs(f.phi_star - dense_star) <= TOL
    assert abs(dense_star - math.pi) <= TOL

    total, reused = batch.probe_totals()
    # The packed dense grid decides connectivity without building graphs
    # (graph_builds is 0 there), so compare connectivity probes instead.
    for name in ("coverage_calls", "connectivity_probes", "sector_evals"):
        a, d = getattr(rec_adaptive, name), getattr(rec_dense, name)
        assert d > 0, f"dense grid recorded no {name}; the comparison is void"
        assert a < d, (
            f"adaptive frontier should do strictly less kernel work: "
            f"{name} {a} (adaptive) vs {d} (dense)"
        )
    # Conservative ratio floor: the bisection needs O(log((hi-lo)/tol))
    # probes per instance (~11 here) against (hi-lo)/tol dense cells
    # (~500), so anything under 10x means the adaptivity regressed.
    assert rec_dense.coverage_calls >= 10 * rec_adaptive.coverage_calls, (
        f"kernel-call reduction collapsed: {rec_dense.coverage_calls} dense "
        f"vs {rec_adaptive.coverage_calls} adaptive (< 10x)"
    )

    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["path", "probes/runs", "coverage kernel calls",
             "connectivity probes", "phi* found", "seconds"],
            [
                ["adaptive bisection", f"{total} ({reused} warm-start)",
                 rec_adaptive.coverage_calls, rec_adaptive.connectivity_probes,
                 round(batch.outcomes[0].frontiers[0].phi_star, 4),
                 round(t_adaptive, 3)],
                ["dense tol-grid sweep", len(dense.records),
                 rec_dense.coverage_calls, rec_dense.connectivity_probes,
                 round(dense_star, 4), round(t_dense, 3)],
                ["ratio", "", round(rec_dense.coverage_calls /
                                    max(1, rec_adaptive.coverage_calls), 1),
                 round(rec_dense.connectivity_probes /
                       max(1, rec_adaptive.connectivity_probes), 1), "", ""],
            ],
            title=f"[FR1] locate k=2 bound<={TARGET:.4f} to tol {TOL:g} "
                  f"(analytic threshold: pi)",
        ))


def _rows_of(batch):
    return batch.aggregate_rows()


def test_killed_frontier_resumes_bit_identical(tmp_path, capsys):
    """FR2 — kill-and-resume replays ledgered frontiers with zero kernels."""
    request = FrontierRequest(
        scenarios=(Scenario("uniform", 28, seeds=4, tag="bench-frontier-r"),),
        ks=(1, 2),
        metric="critical_range",
        target=1.3,
        phi_lo=2.0,
        phi_hi=2.0 * math.pi,
        tol=1e-3,
    )
    store = RunStore(tmp_path / "runs")
    cold = execute_frontier(request, store=store)
    reference = _rows_of(cold)

    # Simulate a kill after the first two instances: drop the ledger's tail.
    [ledger_path] = (tmp_path / "runs").glob("ledger-*.jsonl")
    lines = ledger_path.read_text(encoding="utf8").splitlines(keepends=True)
    instance_lines = [ln for ln in lines if '"type": "frontier"' in ln]
    ledger_path.write_text("".join(instance_lines[:2]), encoding="utf8")

    with recording() as rec_partial:
        partial = execute_frontier(request, store=store, resume=True)
    assert partial.replayed_instances == 2
    assert _rows_of(partial) == reference, "partial resume changed the table"
    assert rec_partial.coverage_calls > 0  # the lost instances re-ran

    with recording() as rec_full:
        full = execute_frontier(request, store=store, resume=True)
    assert full.replayed_instances == 4
    assert rec_full.coverage_calls == 0, "full replay ran the coverage kernel"
    assert rec_full.graph_builds == 0, "full replay built transmission graphs"
    assert rec_full.critical_searches == 0, "full replay ran critical searches"
    assert rec_full.polar_builds == 0, "full replay recomputed polar tables"
    assert _rows_of(full) == reference, "full replay changed the table"
    for a, b in zip(cold.outcomes, full.outcomes):
        assert [f.as_dict() for f in a.frontiers] == [
            f.as_dict() for f in b.frontiers
        ]

    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["path", "instances replayed", "coverage kernel calls",
             "critical searches"],
            [
                ["cold run (ledgered)", 0, "-", "-"],
                ["resume after kill (2/4 ledgered)", 2,
                 rec_partial.coverage_calls, rec_partial.critical_searches],
                ["resume complete ledger", 4, rec_full.coverage_calls,
                 rec_full.critical_searches],
            ],
            title="[FR2] killed-and-resumed frontier: bit-identical tables, "
                  "zero kernel re-execution",
        ))


def test_warm_start_reuses_phi_free_regimes():
    """Probes landing in φ-independent dispatch regimes cost no kernels."""
    request = FrontierRequest(
        scenarios=(Scenario("uniform", 24, seeds=1, tag="bench-frontier-w"),),
        ks=(3,),
        metric="range_bound",
        target=1.0,
        phi_lo=2.4,
        phi_hi=np.pi,
        tol=1e-4,
    )
    batch = execute_frontier(request)
    f = batch.outcomes[0].frontiers[0]
    # Past 4pi/5 every probe dispatches to the φ-free Theorem 2 regime; the
    # first one pays, the rest reuse its measured value.
    assert f.status == "located"
    assert abs(f.phi_star - 4 * np.pi / 5) <= 1e-4
    assert f.reused_count > 0
    assert f.evaluated_count < f.probe_count
