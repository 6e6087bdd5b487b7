"""Experiment X6 — ablations of this reproduction's design choices.

* Lemma-1 window construction vs exact minimal star cover (Theorem 2's
  per-node spread usage);
* forcing Theorem 3 part 2 at φ = π vs part 1 (range √2 vs 2·sin(2π/9) —
  why the part split exists);
* the paper's arc-split chains vs exact minimax chains (Theorems 5/6);
* degree repair on tie-heavy hexagonal lattices (without it, Theorem
  constructions reject degree-6 trees).
"""

from __future__ import annotations

import numpy as np

from repro.core.chains import arc_chains, best_chain_partition
from repro.core.theorem2 import orient_theorem2
from repro.core.theorem3 import orient_theorem3
from repro.experiments.harness import ExperimentRecord
from repro.experiments.workloads import (
    clustered_points,
    hexagonal_lattice,
    perturbed_star,
)
from repro.geometry.points import PointSet
from repro.spanning.emst import euclidean_mst
from repro.utils.rng import stable_seed

__all__ = ["run_ablations"]


def run_ablations() -> ExperimentRecord:
    rec = ExperimentRecord(
        "X6",
        "Ablations: construction variants and safety nets",
        ["ablation", "variant", "metric", "value"],
    )

    # 1. Lemma-1 window vs optimal cover (max per-node spread used, k=1).
    pts = PointSet(clustered_points(80, clusters=6, cluster_std=0.4,
                                    seed=stable_seed("abl-lemma1")))
    tree = euclidean_mst(pts)
    for variant in ("lemma1", "optimal"):
        res = orient_theorem2(pts, 1, tree=tree, construction=variant)
        rec.add("theorem2 star cover", variant, "max spread used (rad)",
                round(res.max_spread_sum(), 4))

    # 2. Theorem 3 parts at the phi = pi boundary.
    pts2 = PointSet(perturbed_star(5, leg=2, seed=stable_seed("abl-thm3")))
    tree2 = euclidean_mst(pts2)
    for part, label in ((1, "part 1 (2sin(2pi/9))"), (2, "part 2 forced (sqrt 2)")):
        res = orient_theorem3(pts2, np.pi, tree=tree2, part=part)
        rec.add("theorem3 at phi=pi", label, "range bound (lmax)",
                round(res.range_bound, 4))

    # 3. Arc-split vs exact chains on random 5-child stars (k=3 budget 2).
    worst_arc, worst_exact, arc_over_budget = 0.0, 0.0, 0
    for s in range(40):
        star = perturbed_star(5, leg=1, seed=stable_seed("abl-chains", s))
        ps = PointSet(star)
        hub, kids = ps.coords[0], ps.coords[1:]
        ang = np.arctan2(kids[:, 1] - hub[1], kids[:, 0] - hub[0])
        arcs = arc_chains(ang, 2 * np.pi / 3)
        if len(arcs) > 2:
            arc_over_budget += 1
        diff = kids[:, None, :] - kids[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        for ch in arcs:
            for a, b in zip(ch[:-1], ch[1:]):
                worst_arc = max(worst_arc, float(dist[a, b]))
        exact = best_chain_partition(dist, max_chains=2)
        worst_exact = max(worst_exact, exact.max_edge)
    rec.add("thm5 chains (d=5 stars)", "paper arc-split", "worst edge", round(worst_arc, 4))
    rec.add("thm5 chains (d=5 stars)", "exact minimax", "worst edge", round(worst_exact, 4))
    rec.add("thm5 chains (d=5 stars)", "paper arc-split", "over-budget instances",
            arc_over_budget)

    # 4. Degree repair on the hexagonal lattice.
    hexa = PointSet(hexagonal_lattice(2))
    raw = euclidean_mst(hexa, max_degree=None)
    fixed = euclidean_mst(hexa, max_degree=5)
    rec.add("degree repair (hex lattice)", "off", "max degree", raw.max_degree())
    rec.add("degree repair (hex lattice)", "on", "max degree", fixed.max_degree())
    rec.add("degree repair (hex lattice)", "on", "weight ratio",
            round(fixed.total_weight / raw.total_weight, 6))
    return rec


if __name__ == "__main__":  # pragma: no cover
    print(run_ablations().to_ascii())
