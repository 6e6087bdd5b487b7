"""Experiments F5/F6 — Figures 5 and 6: star chain gadgets of Theorems 5/6.

The figures show how a root directs antennae among its children with
out-degree ≤ 2 (k = 3) or ≤ 3 (k = 4) while chain edges stay within √3 /
√2.  We reproduce them as measurements: distribution of chains-per-vertex,
worst chain edge (vs the bound), and a comparison between the paper's
arc-split construction and the exact minimax search — including the gap
pattern for which the paper's "two adjacent small angles" claim fails but a
2+2 split succeeds (:func:`adversarial_gap_star`).
"""

from __future__ import annotations

import numpy as np

from repro.core.chains import arc_chains, best_chain_partition
from repro.core.theorem5 import orient_theorem5
from repro.core.theorem6 import orient_theorem6
from repro.experiments.harness import ExperimentRecord
from repro.experiments.workloads import clustered_points, perturbed_star
from repro.geometry.points import PointSet
from repro.utils.rng import stable_seed

__all__ = ["run_fig5", "run_fig6", "adversarial_gap_star", "chain_census"]


def adversarial_gap_star() -> np.ndarray:
    """Four unit spokes with gaps (2π/3+ε, π/3−ε′, 2π/3+ε, π/3−ε′).

    No two *adjacent* gaps are both ≤ 2π/3 (the paper's d = 4 claim fails),
    yet two disjoint small-gap pairs give a valid 2+2 chain split.  Radii are
    tweaked so the configuration is a genuine MST star.
    """
    eps = 0.05
    gaps = [2 * np.pi / 3 + eps, np.pi / 3 - eps / 2,
            2 * np.pi / 3 + eps, np.pi / 3 - eps / 2]
    # Shrink the radius of every second spoke so the small angular gap does
    # not violate the MST condition d(ci, cj) >= max radius.
    radii = [1.0, 0.55, 1.0, 0.55]
    ang = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    pts = [(0.0, 0.0)]
    pts += [(r * np.cos(a), r * np.sin(a)) for r, a in zip(radii, ang)]
    return np.asarray(pts)


def chain_census(k: int, *, trials: int = 30) -> tuple[dict[int, int], float, bool]:
    """Chains-per-vertex histogram, worst chain edge (lmax units), all valid."""
    orient = orient_theorem5 if k == 3 else orient_theorem6
    hist: dict[int, int] = {}
    worst = 0.0
    ok = True
    for s in range(trials):
        kind = s % 3
        seed = stable_seed("fig56", k, s)
        if kind == 0:
            pts = perturbed_star(5, leg=1, seed=seed)
        elif kind == 1:
            pts = perturbed_star(4, leg=2, seed=seed)
        else:
            pts = clustered_points(60, clusters=5, cluster_std=0.45, seed=seed)
        ps = PointSet(pts)
        res = orient(ps)
        for c, cnt in res.stats["chains_per_vertex"].items():
            hist[c] = hist.get(c, 0) + cnt
        worst = max(worst, res.stats["max_chain_edge_normalized"])
        ok &= res.validate().ok
    return hist, worst, ok


def _fig(k: int, bound: float, exp_id: str, figure: str) -> ExperimentRecord:
    rec = ExperimentRecord(
        exp_id,
        f"Figure {figure} / Theorem {5 if k == 3 else 6} (k={k}): chain gadgets, "
        f"bound {bound:.4f} lmax",
        ["chains per vertex", "vertices"],
    )
    hist, worst, ok = chain_census(k)
    for c in sorted(hist):
        rec.add(c, hist[c])
    rec.note(f"worst chain edge {worst:.4f} lmax <= {bound:.4f}: {worst <= bound + 1e-7}")
    rec.note(f"all validations passed: {ok}")
    # Adversarial gap pattern: the arc construction at the paper's threshold.
    pts = adversarial_gap_star()
    ps = PointSet(pts)
    hub = ps.coords[0]
    kids = ps.coords[1:]
    ang = np.arctan2(kids[:, 1] - hub[1], kids[:, 0] - hub[0])
    thresh = 2 * np.pi / 3 if k == 3 else np.pi / 2
    arcs = arc_chains(ang, thresh)
    diff = kids[:, None, :] - kids[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    exact = best_chain_partition(dist, max_chains=k - 1)
    rec.note(
        f"adversarial star: paper arc-split gives {len(arcs)} chains "
        f"(budget {k - 1}); exact search: {exact.n_chains} chains, "
        f"max edge {exact.max_edge:.4f}"
    )
    if k == 3:
        # The paper's d=4 text asks for two *adjacent* angles <= 2pi/3 (a
        # 3-chain); show the adversarial star defeats that specific claim.
        d = len(ang)
        pair_ok = np.zeros((d, d), dtype=bool)
        for i in range(d):
            for j in range(d):
                if i != j:
                    a = abs(ang[i] - ang[j]) % (2 * np.pi)
                    pair_ok[i, j] = min(a, 2 * np.pi - a) <= thresh + 1e-12
        adjacent_exists = any(
            pair_ok[x, y] and pair_ok[y, z]
            for x in range(d) for y in range(d) for z in range(d)
            if len({x, y, z}) == 3
        )
        rec.note(
            f"adversarial star: paper's 'two adjacent angles <= 2pi/3' claim "
            f"holds: {adjacent_exists} (2+2 split rescues the theorem)"
        )
    return rec


def run_fig5() -> ExperimentRecord:
    return _fig(3, np.sqrt(3.0), "F5", "5")


def run_fig6() -> ExperimentRecord:
    return _fig(4, np.sqrt(2.0), "F6", "6")


if __name__ == "__main__":  # pragma: no cover
    print(run_fig5().to_ascii())
    print(run_fig6().to_ascii())
