"""Experiment F1 — Figure 1 / Lemma 1: node degree vs spread sum.

Two claims are reproduced:

* **Necessity** (Figure 1's regular polygon): on a hub with ``d`` neighbours
  forming a regular d-gon, *any* ``k`` antennae reaching all neighbours need
  total spread exactly ``2π(d−k)/d``.  We compute the exact optimum
  (closed-form + brute-force oracle) and show it meets the bound.
* **Sufficiency**: on random stars (arbitrary neighbour directions subject
  to the MST angle constraint) the Lemma-1 construction uses spread
  ≤ ``2π(d−k)/d`` and covers every neighbour.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.exact_orientation import exact_min_spread_star
from repro.core.lemma1 import (
    lemma1_orientation,
    lemma1_required_spread,
    optimal_star_spread,
)
from repro.errors import InvalidParameterError
from repro.experiments.harness import ExperimentRecord
from repro.experiments.workloads import regular_polygon_star
from repro.utils.rng import as_rng, stable_seed

__all__ = ["run_fig1", "random_mst_star_angles"]


def random_mst_star_angles(d: int, rng) -> np.ndarray:
    """Random neighbour directions with all gaps ≥ π/3 (MST-feasible star).

    Uniform directions conditioned on every cyclic gap being at least π/3,
    drawn in O(d) per star: each gap is π/3 plus its share of the slack
    2π − dπ/3 under uniform spacings (a flat Dirichlet), and the star is
    rotated uniformly.  Sorted ascending in [0, 2π).
    """
    if not 1 <= d <= 6:
        raise InvalidParameterError(f"an MST star has 1 to 6 neighbours, got {d}")
    gaps = np.pi / 3 + (2 * np.pi - d * np.pi / 3) * rng.dirichlet(np.ones(d))
    ang = rng.uniform(0, 2 * np.pi) + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    return np.sort(np.mod(ang, 2 * np.pi))


def run_fig1(*, random_trials: int = 200) -> ExperimentRecord:
    rec = ExperimentRecord(
        "F1",
        "Figure 1 / Lemma 1: spread 2pi(d-k)/d is necessary (regular d-gon) "
        "and sufficient (all stars)",
        [
            "d", "k", "lemma bound", "regular d-gon optimum", "necessity tight",
            "random max used", "sufficiency ok",
        ],
    )
    for d in range(2, 6):
        pts = regular_polygon_star(d)
        hub, ring = pts[0], pts[1:]
        ang = np.arctan2(ring[:, 1] - hub[1], ring[:, 0] - hub[0])
        for k in range(1, d + 1):
            bound = lemma1_required_spread(d, k)
            opt = exact_min_spread_star(ang, k)
            closed = optimal_star_spread(ang, k)
            assert abs(opt - closed) < 1e-9, "oracle vs closed form mismatch"
            # Sufficiency on random MST-feasible stars.
            rng = as_rng(stable_seed("fig1", d, k))
            worst_used = 0.0
            ok = True
            for _ in range(random_trials):
                a = random_mst_star_angles(d, rng)
                nbrs = np.stack([np.cos(a), np.sin(a)], axis=1)
                sectors = lemma1_orientation((0.0, 0.0), nbrs, k)
                used = sum(s.spread for s in sectors)
                worst_used = max(worst_used, used)
                if used > bound + 1e-9:
                    ok = False
                covered = [
                    any(s.covers_point((0.0, 0.0), p) for s in sectors) for p in nbrs
                ]
                if not all(covered):
                    ok = False
            rec.add(
                d, k, round(bound, 4), round(opt, 4),
                abs(opt - bound) < 1e-9, round(worst_used, 4), ok,
            )
    rec.note("necessity tight == True: the regular d-gon needs the full 2pi(d-k)/d.")
    return rec


if __name__ == "__main__":  # pragma: no cover
    print(run_fig1().to_ascii())
