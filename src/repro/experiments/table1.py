"""Experiment T1 — reproduce Table 1 of the paper.

For every row of Table 1 we pick representative spread budgets inside the
row's φ-interval, run the planner over several workloads and seeds, and
check the paper's claim: the produced network is strongly connected and its
*measured critical range* (the smallest uniform radius that keeps it
strongly connected, in lmax units) does not exceed the row's bound.

The k = 1, φ < π row is reported with the measured tour bottleneck and the
certified lower bound instead of a hard pass/fail — the paper's "2" is loose
there: every tour of :func:`repro.experiments.workloads.spider_points`'s
spider has an edge > 2·lmax (``benchmarks/bench_btsp.py``).
"""

from __future__ import annotations

import math

from repro.core.bounds import table1_rows
from repro.engine import GridCell, PlanRequest, Scenario, execute_plan
from repro.experiments.harness import ExperimentRecord

__all__ = ["representative_phis", "run_table1"]

_PI = math.pi


def representative_phis(row) -> list[float]:
    """Sample spread budgets inside a Table-1 row's φ-interval."""
    lo = row.phi_lo
    hi = row.phi_hi if math.isfinite(row.phi_hi) else min(2 * _PI, row.phi_lo + _PI / 2)
    if hi <= lo + 1e-9:
        return [lo]
    mid = 0.5 * (lo + hi)
    # Stay strictly inside half-open intervals.
    return sorted({lo, mid, lo + 0.95 * (hi - lo)})


def run_table1(
    *,
    sizes: tuple[int, ...] = (24, 96),
    seeds: int = 3,
    workloads: tuple[str, ...] = ("uniform", "clustered"),
    jobs: int = 1,
    store=None,
    resume: bool = False,
) -> ExperimentRecord:
    """Run every Table-1 row; returns the comparison table.

    The whole table is one :class:`PlanRequest`: the same instances are
    shared by every row, so the engine builds one EMST per (workload, n,
    seed) across all ~30 grid cells, and ``jobs > 1`` fans instances out to
    worker processes.  With a ``store`` (:class:`repro.store.RunStore`)
    each completed instance is checkpointed and ``resume=True`` restarts a
    killed run without repeating finished work.
    """
    rec = ExperimentRecord(
        "T1",
        "Table 1: range bounds per (k, phi) row — paper vs measured",
        [
            "k", "phi row", "phi used", "paper bound", "algorithm",
            "measured max", "measured mean", "connected", "bound ok",
        ],
    )
    scenarios = tuple(
        Scenario(wl, n, seeds=seeds, tag="table1")
        for wl in workloads
        for n in sizes
    )
    cell_info = [
        (row, phi) for row in table1_rows() for phi in representative_phis(row)
    ]
    request = PlanRequest(
        scenarios, tuple(GridCell(row.k, phi) for row, phi in cell_info)
    )
    batch = execute_plan(request, jobs=jobs, store=store, resume=resume)
    for (row, phi), agg in zip(cell_info, batch.aggregate_by_cell()):
        is_btsp_row = row.k == 1 and row.range_formula == "2"
        bound_cell = agg["bound_ok"] or is_btsp_row
        rec.add(
            row.k,
            row.phi_description,
            round(phi, 4),
            round(row.bound_at(min(phi, row.phi_hi) if math.isfinite(row.phi_hi) else phi), 4),
            agg["algorithm"],
            round(agg["critical_max"], 4),
            round(agg["critical_mean"], 4),
            agg["all_connected"],
            bound_cell,
        )
        if is_btsp_row:
            rec.note(
                f"k=1 phi={phi:.3f}: bottleneck-TSP regime; measured bottleneck "
                f"reported as-is (paper's '2' is loose on spider MSTs)."
            )
    rec.note(f"engine: {batch.cache_summary()}")
    return rec


if __name__ == "__main__":  # pragma: no cover
    print(run_table1().to_ascii())
