"""Experiment X1 — the spread/range trade-off curve (Section 3's theme).

Sweeps φ for k = 2 across the three regimes (zero-spread, part 2, part 1,
Theorem 2), reporting paper bound and measured critical range, and locates
the crossovers against the k = 3 (√3) and k = 4 (√2) zero-spread rows: how
much total angle must two antennae spend to beat three or four antennae of
spread zero?
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import paper_range_bound
from repro.engine import GridCell, PlanRequest, Scenario, execute_plan
from repro.experiments.harness import ExperimentRecord

__all__ = ["run_tradeoff", "k2_bound_curve", "crossover_phi"]


def k2_bound_curve(phis: np.ndarray) -> np.ndarray:
    """Paper range bound for k = 2 at each φ (lmax units)."""
    return np.asarray([paper_range_bound(2, float(p))[0] for p in phis])


def crossover_phi(target_bound: float) -> float:
    """Smallest φ at which the k = 2 bound drops to ``target_bound``.

    Closed-form inversion per regime: the bound is 2 below 2π/3, where
    part 2 starts at √3, so every target in [√3, 2) is first met at 2π/3
    (as every target in [2·sin(2π/9), √2] is at part 1's start π); inside
    part 2, φ = 4·(π/2 − arcsin(target/2)) for √2 < target < √3; range 1
    from 6π/5.
    """
    if target_bound >= 2.0:
        return 0.0
    if target_bound >= np.sqrt(3.0):
        return float(2.0 * np.pi / 3.0)
    if target_bound > np.sqrt(2.0):
        return float(4.0 * (np.pi / 2.0 - np.arcsin(target_bound / 2.0)))
    if target_bound >= 2.0 * np.sin(2.0 * np.pi / 9.0):
        return float(np.pi)
    if target_bound >= 1.0:
        return float(6.0 * np.pi / 5.0)
    return float("inf")


def run_tradeoff(
    *,
    n: int = 64,
    seeds: int = 3,
    phis: tuple[float, ...] = (
        0.0, np.pi / 2, 2 * np.pi / 3, 0.75 * np.pi, 0.9 * np.pi,
        np.pi, 1.1 * np.pi, 6 * np.pi / 5, 1.5 * np.pi,
    ),
    jobs: int = 1,
    store=None,
    resume: bool = False,
) -> ExperimentRecord:
    rec = ExperimentRecord(
        "X1",
        "Spread vs range trade-off for k = 2 (with k=3/k=4 crossovers)",
        ["phi", "phi/pi", "paper bound", "algorithm", "measured max", "measured mean"],
    )
    # One plan: the φ sweep is the grid, so all cells share each instance's EMST.
    request = PlanRequest(
        (Scenario("uniform", n, seeds=seeds, tag="tradeoff"),),
        tuple(GridCell(2, float(phi)) for phi in phis),
    )
    batch = execute_plan(request, jobs=jobs, store=store, resume=resume)
    for phi, agg in zip(phis, batch.aggregate_by_cell()):
        rec.add(
            round(float(phi), 4), round(float(phi) / np.pi, 3),
            round(paper_range_bound(2, float(phi))[0], 4),
            agg["algorithm"], round(agg["critical_max"], 4), round(agg["critical_mean"], 4),
        )
    rec.note(
        f"k=2 matches k=3's sqrt(3) bound at phi >= {crossover_phi(np.sqrt(3)):.4f} "
        f"(= 2pi/3), and k=4's sqrt(2) at phi >= {crossover_phi(np.sqrt(2)):.4f} (-> pi)."
    )
    rec.note(
        "Regime order along the sweep: k2-zero-spread (2.0) -> theorem3.part2 "
        "(2sin(pi/2-phi/4)) -> theorem3.part1 (2sin(2pi/9)) -> theorem2 (1.0)."
    )
    return rec


if __name__ == "__main__":  # pragma: no cover
    print(run_tradeoff().to_ascii())
