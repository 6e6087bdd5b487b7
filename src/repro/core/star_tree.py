"""Zero-spread tree orientation by star chain gadgets (Theorems 5 & 6).

Shared engine: root the max-degree-5 MST anywhere, and at every vertex
partition the children into at most ``k−1`` chains
(:func:`repro.core.chains.best_chain_partition`).  Antenna usage:

* vertex → each chain head (≤ k−1 antennae; the induction's out-degree cap),
* chain member → successor, chain tail → parent vertex (1 antenna each,
  the "remaining antenna directed towards the root" of the proof).

All antennae have spread 0.  Tree edges are ≤ lmax; chain edges are bounded
by the theorem's range (√3·lmax for k = 3, √2·lmax for k = 4) — asserted at
runtime via the exact minimax partition.
"""

from __future__ import annotations

import numpy as np

from repro.antenna.model import AntennaAssignment
from repro.core.chains import best_chain_partition
from repro.core.result import OrientationResult
from repro.errors import AlgorithmInvariantError, InvalidParameterError
from repro.geometry.angles import angle_of
from repro.geometry.points import PointSet
from repro.spanning.emst import SpanningTree, euclidean_mst
from repro.spanning.rooted import RootedTree

__all__ = ["orient_star_chain_tree"]


def orient_star_chain_tree(
    points: PointSet | np.ndarray,
    k: int,
    range_bound: float,
    algorithm: str,
    *,
    phi: float = 0.0,
    tree: SpanningTree | None = None,
    root: int | None = None,
) -> OrientationResult:
    """Orient ``k`` zero-spread antennae per sensor with chain gadgets.

    ``range_bound`` is the guaranteed range in lmax units; chain edges are
    verified against it.  Used with ``k=3, √3`` (Theorem 5) and ``k=4, √2``
    (Theorem 6); also valid for ``k=5, 1`` (every chain is a singleton, the
    folklore construction) and ``k=2, 2`` (single chain per vertex — the
    leftmost-child/right-sibling construction, see
    :mod:`repro.core.ktwo_zero` for the direct implementation).
    """
    if k < 2:
        raise InvalidParameterError(f"chain construction needs k >= 2, got {k}")
    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if tree is None:
        tree = euclidean_mst(ps)
    if tree.max_degree() > 5:
        raise InvalidParameterError("chain construction requires max tree degree 5")
    lmax = tree.lmax if n > 1 else 0.0
    if n == 1:
        return OrientationResult(
            ps, AntennaAssignment(n), np.empty((0, 2), dtype=np.int64), k, phi,
            range_bound, lmax, algorithm,
        )

    rooted = RootedTree(tree, int(root) if root is not None else 0)
    radius = range_bound * lmax
    coords = ps.coords
    blocks = rooted.child_blocks()
    # A vertex with at most k-1 children makes every child its own chain:
    # u -> child, child -> u, child by child.  Only larger families need
    # best_chain_partition.  Edge j of block b sorts at key b * stride + j:
    # blocks in preorder, each block's edges in gadget order.
    stride = 2 * int(blocks.size.max()) + 1
    alone = blocks.size[blocks.block] <= k - 1
    kid = blocks.kids[alone]
    up = rooted.parent[kid]
    key = blocks.block[alone] * stride + 2 * blocks.local[alone]
    src = [np.stack([up, kid], axis=1).reshape(-1)]
    dst = [np.stack([kid, up], axis=1).reshape(-1)]
    keys = [np.stack([key, key + 1], axis=1).reshape(-1)]
    n_chains = blocks.size.copy()
    max_chain_edge = 0.0
    for b in np.flatnonzero(blocks.size > k - 1).tolist():
        u = int(blocks.owner[b])
        kids = rooted.children[u]
        kid_coords = coords[np.asarray(kids, dtype=np.int64)]
        diff = kid_coords[:, None, :] - kid_coords[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        part = best_chain_partition(dist, max_chains=k - 1)
        n_chains[b] = part.n_chains
        if part.max_edge > radius * (1.0 + 1e-7) + 1e-12:
            raise AlgorithmInvariantError(
                f"vertex {u}: best chain partition needs edge {part.max_edge:.6f} "
                f"> bound {radius:.6f} — MST degree invariant violated?"
            )
        max_chain_edge = max(max_chain_edge, part.max_edge)
        # u -> head, member -> successor, tail -> u, chain by chain.
        path = [(u, *(kids[i] for i in chain), u) for chain in part.chains]
        edges = np.asarray(
            [e for p in path for e in zip(p[:-1], p[1:])], dtype=np.int64
        )
        src.append(edges[:, 0])
        dst.append(edges[:, 1])
        keys.append(b * stride + np.arange(len(edges)))
    order = np.argsort(np.concatenate(keys), kind="stable")
    src_all, dst_all = np.concatenate(src)[order], np.concatenate(dst)[order]
    assignment = AntennaAssignment.from_columns(
        n, src_all, angle_of(coords[dst_all] - coords[src_all]), 0.0, radius
    )
    intended = np.stack([src_all, dst_all], axis=1)
    # Vertices with children per chain count, keys in order of appearance.
    chain_count_hist: dict[int, int] = {}
    for c in n_chains.tolist():
        chain_count_hist[c] = chain_count_hist.get(c, 0) + 1

    return OrientationResult(
        ps,
        assignment,
        intended,
        k,
        phi,
        range_bound,
        lmax,
        algorithm,
        stats={
            "max_chain_edge": max_chain_edge,
            "max_chain_edge_normalized": max_chain_edge / lmax if lmax else 0.0,
            "chains_per_vertex": chain_count_hist,
        },
    )
