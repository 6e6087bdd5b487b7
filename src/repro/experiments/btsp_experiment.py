"""Experiment X2 — the φ = 0 rows ([14]) and where "range 2" is loose.

Three measurements:

* k = 2 zero-spread: the leftmost-child/right-sibling construction stays
  within 2·lmax on every workload (provable; Table 1's k=2 row).
* k = 1 zero-spread: measured tour bottleneck vs the certified lower bound;
  on caterpillar MSTs the square tour certifies ≤ 2·lmax.
* the 3-leg spider: the optimal bottleneck tour *exceeds* 2·lmax, exhibiting
  the loose k = 1 row (each leg tip needs the hub as a tour neighbour).
"""

from __future__ import annotations

import numpy as np

from repro.btsp.exact import held_karp_bottleneck
from repro.btsp.heuristic import best_tour, bottleneck_lower_bound
from repro.btsp.square import caterpillar_square_tour, is_caterpillar
from repro.core.ktwo_zero import orient_k2_zero_spread
from repro.experiments.harness import ExperimentRecord
from repro.experiments.workloads import caterpillar_points, make_workload, spider_points
from repro.geometry.points import PointSet, pairwise_distances
from repro.spanning.emst import euclidean_mst
from repro.utils.rng import stable_seed

__all__ = ["run_btsp"]


def _tour_bottleneck(coords: np.ndarray, order: list[int]) -> float:
    d = pairwise_distances(coords)
    idx = np.asarray(order + [order[0]])
    return float(d[idx[:-1], idx[1:]].max())


def run_btsp(*, seeds: int = 3) -> ExperimentRecord:
    rec = ExperimentRecord(
        "X2",
        "phi = 0 rows: k=2 LCRS vs 2*lmax; k=1 tour bottleneck vs lower bound",
        ["instance", "n", "lmax", "k", "measured / lmax", "certified ref", "within 2?"],
    )
    # k = 2 zero-spread across workloads.
    for wl in ("uniform", "clustered", "annulus"):
        for s in range(seeds):
            pts = make_workload(wl, 48, stable_seed("btsp-k2", wl, s))
            ps = PointSet(pts)
            res = orient_k2_zero_spread(ps)
            measured = res.realized_range_normalized()
            rec.add(f"{wl} (k2 LCRS)", len(ps), round(res.lmax, 3), 2,
                    round(measured, 4), "bound 2.0", measured <= 2.0 + 1e-9)

    # k = 1 tours on moderate instances.
    for wl in ("uniform", "clustered"):
        pts = make_workload(wl, 40, stable_seed("btsp-k1", wl))
        ps = PointSet(pts)
        tree = euclidean_mst(ps)
        tour = best_tour(ps)
        rec.add(f"{wl} (k1 tour)", len(ps), round(tree.lmax, 3), 1,
                round(tour.bottleneck / tree.lmax, 4),
                f"lb {tour.lower_bound / tree.lmax:.3f} lmax",
                tour.bottleneck <= 2 * tree.lmax + 1e-9)

    # Caterpillar: certified square tour <= 2 lmax.
    pts = caterpillar_points(8, seed=stable_seed("btsp-cat"))
    ps = PointSet(pts)
    tree = euclidean_mst(ps)
    if is_caterpillar(tree):
        order = caterpillar_square_tour(tree)
        bn = _tour_bottleneck(ps.coords, order)
        rec.add("caterpillar (square tour)", len(ps), round(tree.lmax, 3), 1,
                round(bn / tree.lmax, 4), "certified <= 2", bn <= 2 * tree.lmax + 1e-9)

    # The spider counter-example: optimal bottleneck exceeds 2 lmax.
    pts = spider_points(3, 2)
    ps = PointSet(pts)
    tree = euclidean_mst(ps)
    order, bn = held_karp_bottleneck(ps)
    lb = bottleneck_lower_bound(ps)
    rec.add("spider S(2,2,2) (k1 OPT)", len(ps), round(tree.lmax, 3), 1,
            round(bn / tree.lmax, 4), f"lb {lb / tree.lmax:.3f} lmax",
            bn <= 2 * tree.lmax + 1e-9)
    rec.note(
        "The spider row shows measured OPT > 2: the paper's k=1 'range 2' entry "
        "cannot hold in lmax units for all instances (every tour of the spider has "
        "an edge > 2 lmax)."
    )
    return rec


if __name__ == "__main__":  # pragma: no cover
    print(run_btsp().to_ascii())
