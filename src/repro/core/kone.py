"""k = 1 orientations (Table 1 rows attributed to [4] and [14]).

Three regimes:

* ``φ ≥ 8π/5`` — Theorem 2 with k = 1: a single antenna of spread
  ``2π − (largest neighbour gap) ≤ 8π/5`` covers every MST neighbour, so the
  bidirected MST survives and the range is the optimal ``lmax``.
* ``π ≤ φ < 8π/5`` — range ``2·sin(π − φ/2)·lmax`` via a **matched-pair**
  construction (our provable substitute for [4]'s algorithm; the argument
  follows):
  an MST matching saturating every internal vertex pairs sensors along tree
  edges; each partner starts its sector on the ray towards the other and
  sweeps ``φ`` ccw.  The two uncovered wedges (each ``β = 2π − φ ≤ π``) face
  "opposite sides" of the pair edge, so anything within ``lmax`` of either
  partner is covered by one of them within ``2·sin(β/2)·lmax``.  Unmatched
  vertices are leaves and aim their sector's boundary ray at their (matched)
  neighbour.
* ``φ < π`` — the bottleneck-TSP regime of [14]: the orientation is a
  directed Hamiltonian cycle (:mod:`repro.btsp`).  The paper's "2" entry is
  loose here (3-leg spiders force > 2·lmax); we report the measured
  bottleneck and the certified lower bound honestly.
"""

from __future__ import annotations

import numpy as np

from repro.antenna.model import AntennaAssignment
from repro.btsp.heuristic import best_tour
from repro.core.bounds import kone_pair_bound
from repro.core.result import OrientationResult
from repro.core.theorem2 import orient_theorem2
from repro.errors import AlgorithmInvariantError, InvalidParameterError
from repro.geometry.angles import angle_of
from repro.geometry.points import PointSet
from repro.geometry.sectors import sectors_cover
from repro.spanning.emst import SpanningTree, euclidean_mst
from repro.spanning.rooted import RootedTree

__all__ = ["orient_k1", "saturating_matching", "orient_k1_pairs", "orient_k1_tour"]

_EIGHT_FIFTHS_PI = 8.0 * np.pi / 5.0


def saturating_matching(tree: SpanningTree) -> dict[int, int]:
    """A matching on tree edges saturating every internal (non-leaf) vertex.

    Existence: peel any leaf ``ℓ`` with parent ``p``; a matching of ``T−ℓ``
    saturating its internal vertices either already saturates ``p`` or can
    take the edge ``(p, ℓ)``.  Implemented as a linear tree DP maximizing the
    number of saturated internal vertices (which therefore reaches all of
    them), with reconstruction.

    Returns a symmetric dict ``partner[u] = v``.
    """
    n = tree.n
    if n <= 1:
        return {}
    rooted = RootedTree(tree, 0)
    deg = tree.degrees()
    internal = deg >= 2
    NEG = -(10**9)

    # dp0[v]: best saturated-internal count in T_v, v not matched upward.
    # dp1[v]: best count when v is matched to its parent (v's own bonus
    #         included; the parent's bonus is accounted at the parent).
    dp0 = np.zeros(n, dtype=np.int64)
    dp1 = np.zeros(n, dtype=np.int64)
    choice = np.full(n, -1, dtype=np.int64)  # child v matches in dp0 (-1: none)
    order = list(rooted.postorder())
    for v in order:
        kids = rooted.children[v]
        base = int(sum(dp0[c] for c in kids))
        bonus = 1 if internal[v] else 0
        dp1[v] = base + bonus
        best0, best_child = base, -1
        for c in kids:
            cand = base - int(dp0[c]) + int(dp1[c]) + bonus
            if cand > best0:
                best0, best_child = cand, c
        dp0[v] = best0
        choice[v] = best_child

    partner: dict[int, int] = {}
    stack: list[tuple[int, bool]] = [(rooted.root, False)]  # (v, matched_upward)
    while stack:
        v, matched_up = stack.pop()
        kids = rooted.children[v]
        if matched_up:
            for c in kids:
                stack.append((c, False))
            continue
        c_star = int(choice[v])
        if c_star >= 0:
            partner[v] = c_star
            partner[c_star] = v
            for c in kids:
                stack.append((c, c == c_star))
        else:
            for c in kids:
                stack.append((c, False))

    missing = [v for v in range(n) if internal[v] and v not in partner]
    if missing:  # pragma: no cover - contradicts the peeling argument
        raise AlgorithmInvariantError(
            f"saturating matching failed for internal vertices {missing[:5]}"
        )
    return partner


def orient_k1_pairs(
    points: PointSet | np.ndarray,
    phi: float,
    *,
    tree: SpanningTree | None = None,
) -> OrientationResult:
    """Single antenna per sensor, ``π ≤ φ < 8π/5``; range 2·sin(π − φ/2)·lmax."""
    if not (np.pi - 1e-12 <= phi):
        raise InvalidParameterError(f"pair construction needs phi >= pi, got {phi}")
    phi_eff = float(min(phi, _EIGHT_FIFTHS_PI))
    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if tree is None:
        tree = euclidean_mst(ps)
    lmax = tree.lmax if n > 1 else 0.0
    bound = kone_pair_bound(phi_eff)
    radius = bound * lmax
    if n == 1:
        return OrientationResult(
            ps, AntennaAssignment(n), np.empty((0, 2), dtype=np.int64), 1, float(phi),
            bound, lmax, "k1-pairs",
        )

    coords = ps.coords
    partner = saturating_matching(tree)
    mate = np.full(n, -1, dtype=np.int64)
    mate[np.fromiter(partner, np.int64, len(partner))] = np.fromiter(
        partner.values(), np.int64, len(partner)
    )
    # Matched sensors: sector starts on the ray towards the partner and
    # sweeps φ ccw; the uncovered wedge trails clockwise behind that ray.
    # Unmatched sensors are leaves; aim the sector boundary at the neighbour.
    arcs = tree.arcs()
    unmatched = np.flatnonzero(mate < 0)
    internal = unmatched[np.diff(arcs.indptr)[unmatched] != 1]
    if internal.size:  # pragma: no cover - saturation guarantees this
        raise AlgorithmInvariantError(f"unmatched vertex {internal[0]} is internal")
    aim = mate.copy()
    aim[unmatched] = arcs.dst[arcs.indptr[unmatched]]
    assignment = AntennaAssignment.from_columns(
        n, np.arange(n), angle_of(coords[aim] - coords), phi_eff, radius
    )

    # Intended edges: both directions of every tree edge, each realized by
    # the endpoint itself or its partner (the pair lemma guarantees one).
    src, dst = tree.edges.reshape(-1), tree.edges[:, ::-1].reshape(-1)
    owner = _covering_endpoint(coords, assignment, mate, src, dst)
    # Pair edges (may duplicate tree edges; DiGraph dedups).
    pairs = np.fromiter(
        (x for pair in partner.items() for x in pair), np.int64, 2 * len(partner)
    ).reshape(-1, 2)
    intended = np.concatenate([np.stack([owner, dst], axis=1), pairs])

    return OrientationResult(
        ps,
        assignment,
        intended,
        1,
        float(phi),
        bound,
        lmax,
        "k1-pairs",
        stats={
            "pairs": len(partner) // 2,
            "unmatched_leaves": n - len(partner),
            "phi_effective": phi_eff,
        },
    )


def _covering_endpoint(
    coords: np.ndarray,
    assignment: AntennaAssignment,
    mate: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> np.ndarray:
    """Which of ``src`` / its partner ``mate[src]`` covers ``dst``?  (Pair lemma.)

    One coverage test per arc for ``src`` and one for its partner, over
    every sensor's single sector; ``src`` wins when both cover.
    """
    _, start, spread, radius = assignment.flattened()  # one sector per sensor

    def covers(cand: np.ndarray) -> np.ndarray:
        return sectors_cover(
            start[cand], spread[cand], radius[cand], coords[dst] - coords[cand]
        )

    own = covers(src)
    alt = mate[src]
    by_mate = (alt >= 0) & covers(np.where(alt >= 0, alt, src))
    missed = np.flatnonzero(~own & ~by_mate)
    if missed.size:
        i = missed[0]
        raise AlgorithmInvariantError(
            f"pair lemma violated: neither {src[i]} nor its partner covers {dst[i]}"
        )
    return np.where(own, src, alt)


def orient_k1_tour(
    points: PointSet | np.ndarray,
    *,
    phi: float = 0.0,
    tree: SpanningTree | None = None,
) -> OrientationResult:
    """Single zero-spread antenna per sensor: a directed bottleneck tour.

    ``range_bound`` is set to the *measured* tour bottleneck (normalized);
    ``stats['paper_row_bound']`` records the paper's (loose) value 2, and
    ``stats['lower_bound']`` the certified bottleneck lower bound.
    """
    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if tree is None:
        tree = euclidean_mst(ps)
    lmax = tree.lmax if n > 1 else 0.0
    if n == 1:
        return OrientationResult(
            ps, AntennaAssignment(n), np.empty((0, 2), dtype=np.int64), 1, float(phi),
            2.0, lmax, "k1-tour",
        )
    tour = best_tour(ps)
    coords = ps.coords
    order = np.asarray(tour.order, dtype=np.int64)
    succ = np.roll(order, -1)
    assignment = AntennaAssignment.from_columns(
        n, order, angle_of(coords[succ] - coords[order]), 0.0, tour.bottleneck
    )
    intended = np.stack([order, succ], axis=1)
    bound_norm = tour.bottleneck / lmax if lmax else 0.0
    return OrientationResult(
        ps,
        assignment,
        np.asarray(intended, dtype=np.int64),
        1,
        float(phi),
        bound_norm,
        lmax,
        "k1-tour",
        stats={
            "paper_row_bound": 2.0,
            "tour_method": tour.method,
            "lower_bound": tour.lower_bound,
            "lower_bound_normalized": tour.lower_bound / lmax if lmax else 0.0,
            "approx_ratio": tour.ratio,
        },
    )


def orient_k1(
    points: PointSet | np.ndarray,
    phi: float,
    *,
    tree: SpanningTree | None = None,
) -> OrientationResult:
    """Dispatch the best k = 1 algorithm for the spread budget ``phi``."""
    if phi < 0:
        raise InvalidParameterError(f"phi must be >= 0, got {phi}")
    if phi >= _EIGHT_FIFTHS_PI - 1e-12:
        return orient_theorem2(points, 1, phi=phi, tree=tree)
    if phi >= np.pi - 1e-12:
        return orient_k1_pairs(points, phi, tree=tree)
    return orient_k1_tour(points, phi=phi, tree=tree)
