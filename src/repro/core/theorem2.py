"""Theorem 2: for ``φ_k ≥ 2π(5−k)/5`` the optimal range ``r = 1`` suffices.

Construction: take an MST of maximum degree 5.  At every vertex ``u`` of
degree ``d``: if ``d ≤ k`` aim one zero-spread antenna at each neighbour;
otherwise apply Lemma 1 (total spread ``2π(d−k)/d ≤ 2π(5−k)/5 ≤ φ_k``).
Every MST edge is then covered in both directions, so the transmission
graph contains the bidirected MST and is strongly connected with range
``lmax`` — which is optimal, since some pair of sensors is at distance
``lmax`` along every spanning structure.
"""

from __future__ import annotations

import numpy as np

from repro.antenna.model import AntennaAssignment
from repro.core.bounds import thm2_phi_threshold
from repro.core.lemma1 import lemma1_orientation
from repro.core.result import OrientationResult
from repro.errors import InvalidParameterError
from repro.geometry.points import PointSet
from repro.geometry.sectors import sector_toward
from repro.spanning.bounded_angle import segment_wedges
from repro.spanning.emst import SpanningTree, euclidean_mst

__all__ = ["orient_theorem2"]


def orient_theorem2(
    points: PointSet | np.ndarray,
    k: int,
    *,
    phi: float | None = None,
    tree: SpanningTree | None = None,
    construction: str = "optimal",
) -> OrientationResult:
    """Orient ``k`` antennae per sensor with range ``lmax`` (Theorem 2).

    Parameters
    ----------
    points:
        Sensor locations.
    k:
        Antennae per sensor, ``1 ≤ k``; values above 5 behave like 5.
    phi:
        Angular-sum budget; defaults to the theorem's threshold
        ``2π(5−k)/5``.  Must be at least that threshold.
    tree:
        Optionally a precomputed max-degree-5 spanning tree.
    construction:
        ``"optimal"`` (exact minimal spread per node) or ``"lemma1"``
        (the paper's consecutive-window construction).
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if construction not in ("optimal", "lemma1"):
        raise InvalidParameterError(f"unknown construction {construction!r}")
    ps = points if isinstance(points, PointSet) else PointSet(points)
    threshold = thm2_phi_threshold(k)
    if phi is None:
        phi = threshold
    if phi < threshold - 1e-12:
        raise InvalidParameterError(
            f"Theorem 2 with k={k} needs phi >= 2pi(5-k)/5 = {threshold:.6f}, got {phi:.6f}"
        )

    if tree is None:
        tree = euclidean_mst(ps)
    if tree.max_degree() > 5:
        raise InvalidParameterError("Theorem 2 requires a spanning tree of max degree 5")

    n = len(ps)
    if n == 1:
        return OrientationResult(
            ps, AntennaAssignment(n), np.empty((0, 2), dtype=np.int64), k, float(phi),
            1.0, 0.0, "theorem2", stats={"construction": construction},
        )

    lmax = tree.lmax
    if construction == "optimal":
        assignment = _optimal_cover(ps.coords, tree, k, lmax)
    else:
        assignment = AntennaAssignment(n)
        adj = tree.adjacency()
        coords = ps.coords
        for u in range(n):
            nbrs = adj[u]
            if len(nbrs) <= k:
                for v in nbrs:
                    assignment.add(u, sector_toward(coords[u], coords[v], radius=lmax))
            else:
                for sec in lemma1_orientation(
                    coords[u], coords[np.asarray(nbrs)], k, radius=lmax
                ):
                    assignment.add(u, sec)

    intended = np.vstack([tree.edges, tree.edges[:, ::-1]])
    return OrientationResult(
        ps,
        assignment,
        intended,
        k,
        float(phi),
        1.0,
        lmax,
        "theorem2",
        stats={
            "construction": construction,
            "max_tree_degree": tree.max_degree(),
            "phi_threshold": threshold,
        },
    )


def _optimal_cover(coords: np.ndarray, tree: SpanningTree, k: int, lmax: float):
    """Every vertex's optimal star cover over the tree's arcs at once.

    A vertex of degree ``d <= k`` aims one zero-spread beam at each
    neighbour; a larger one gets :func:`optimal_star_cover`'s ``k``
    sectors (the segment kernel with ``raw_angles=True``).
    """
    arcs = tree.arcs()
    off = coords[arcs.dst] - coords[arcs.src]
    star = (np.diff(arcs.indptr) > k)[arcs.src]
    if np.any(np.hypot(off[star, 0], off[star, 1]) == 0.0):
        raise InvalidParameterError("a neighbour coincides with the apex")
    sensor, start, spread = segment_wedges(
        arcs.indptr, np.arctan2(off[:, 1], off[:, 0]), k, raw_angles=True
    )
    return AntennaAssignment.from_columns(len(coords), sensor, start, spread, lmax)
