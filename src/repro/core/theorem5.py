"""Theorem 5: three zero-spread antennae per sensor, range ≤ √3·lmax.

Induction invariant: "given a rooted directional tree we can assign antennae
so that the resulting graph is strongly connected while the out-degree of
the root never exceeds 2."  At every vertex the children are partitioned
into ≤ 2 chains whose consecutive distances are ≤ √3·lmax (the paper pairs
children subtending angles ≤ 2π/3; we search the exact minimax partition,
which also handles gap patterns where the paper's adjacent-angles claim is
too strong — :func:`repro.experiments.fig56_chains.adversarial_gap_star`
is a witness).
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import THM5_RANGE
from repro.core.result import OrientationResult
from repro.core.star_tree import orient_star_chain_tree
from repro.geometry.points import PointSet
from repro.spanning.emst import SpanningTree

__all__ = ["orient_theorem5"]


def orient_theorem5(
    points: PointSet | np.ndarray,
    *,
    phi: float = 0.0,
    tree: SpanningTree | None = None,
    root: int | None = None,
) -> OrientationResult:
    """Orient three antennae of spread 0 per sensor (Theorem 5).

    ``phi`` is accepted for interface uniformity (the construction uses
    spread 0 everywhere, so any budget ≥ 0 is satisfied).
    """
    return orient_star_chain_tree(
        points, 3, THM5_RANGE, "theorem5", phi=phi, tree=tree, root=root
    )
