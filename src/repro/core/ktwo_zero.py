"""k = 2, spread 0, range ≤ 2·lmax (Table 1's ``φ₂ ≥ 0 → 2`` row).

The paper attributes this row to [14] (bottleneck TSP).  With *two*
zero-spread antennae per sensor a much simpler provable construction exists,
which we use: the **leftmost-child / right-sibling** functional digraph of a
rooted MST.

Every vertex aims antenna A at its *successor* — its next sibling in the
parent's child order, or its parent if it is the last sibling — and antenna
B at its *first child* (if any).  Sibling edges join two points that are
both within ``lmax`` of their common parent, hence have length ≤ 2·lmax by
the triangle inequality; all other edges are tree edges (≤ lmax).

Strong connectivity: following A-edges from any vertex walks sibling lists
and climbs to the root (every vertex reaches the root); from the root,
B-edges enter each child list and A-edges traverse it (the root reaches
every vertex by induction on the tree).
"""

from __future__ import annotations

import numpy as np

from repro.antenna.model import AntennaAssignment
from repro.core.bounds import BTSP_RANGE
from repro.core.result import OrientationResult
from repro.geometry.angles import angle_of
from repro.geometry.points import PointSet
from repro.spanning.emst import SpanningTree, euclidean_mst
from repro.spanning.rooted import RootedTree

__all__ = ["orient_k2_zero_spread"]


def orient_k2_zero_spread(
    points: PointSet | np.ndarray,
    *,
    phi: float = 0.0,
    tree: SpanningTree | None = None,
    root: int | None = None,
) -> OrientationResult:
    """Two zero-spread antennae per sensor, range ≤ 2·lmax."""
    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if tree is None:
        tree = euclidean_mst(ps)
    lmax = tree.lmax if n > 1 else 0.0
    if n == 1:
        return OrientationResult(
            ps, AntennaAssignment(n), np.empty((0, 2), dtype=np.int64), 2, phi,
            BTSP_RANGE, lmax, "k2-zero-spread",
        )

    rooted = RootedTree(tree, int(root) if root is not None else 0)
    radius = BTSP_RANGE * lmax
    coords = ps.coords
    blocks = rooted.child_blocks()
    kids = blocks.kids
    # Antenna B: each vertex -> its leftmost child, just before that child's
    # own edge.  Antenna A: each child -> its next sibling, or the parent
    # after the last one.  Sorting by key lays the edges out in preorder.
    last = blocks.local == blocks.size[blocks.block] - 1
    succ = np.where(last, rooted.parent[kids], np.roll(kids, -1))
    src = np.concatenate([blocks.owner, kids])
    dst = np.concatenate([kids[blocks.first], succ])
    order = np.argsort(
        np.concatenate([2 * blocks.first, 2 * np.arange(kids.size) + 1]), kind="stable"
    )
    src, dst = src[order], dst[order]
    assignment = AntennaAssignment.from_columns(
        n, src, angle_of(coords[dst] - coords[src]), 0.0, radius
    )
    intended = np.stack([src, dst], axis=1)
    sibling = coords[kids[~last]] - coords[succ[~last]]
    max_sibling_edge = float(np.hypot(sibling[:, 0], sibling[:, 1]).max(initial=0.0))

    return OrientationResult(
        ps,
        assignment,
        intended,
        2,
        phi,
        BTSP_RANGE,
        lmax,
        "k2-zero-spread",
        stats={
            "max_sibling_edge": max_sibling_edge,
            "max_sibling_edge_normalized": max_sibling_edge / lmax if lmax else 0.0,
        },
    )
