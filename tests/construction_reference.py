"""Reference (per-vertex loop) constructions, kept as test oracles.

These are the exact implementations the array-native constructions in
:mod:`repro.core` and :mod:`repro.spanning.bounded_angle` replaced: one
Python loop per vertex, one :class:`~repro.geometry.sectors.Sector` per
beam, and the list-of-lists :class:`AntennaAssignment` they filled.
``tests/test_construction_oracles.py`` runs them against the library and
asserts identical ``flattened()`` columns, intended edges, stats and
raised errors.  Do not "optimize" this module; its value is being the
unchanged original.

Theorem 3's copy is its per-vertex loop (``Theorem3Engine.run``), the
leaf, degree-2 and degree-3 handlers and ``orient_theorem3``.  The
library still runs the degree-4 and degree-5 handlers and their
``NodeCtx`` one vertex at a time, so the copy imports those from
:mod:`repro.core.theorem3_cases`.  The paper-faithful
``construction="lemma1"`` variant of Theorem 2 was not rewritten, so it
has no copy here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.btsp.heuristic import best_tour
from repro.core import theorem3_cases as cases
from repro.core.bounds import (
    BTSP_RANGE,
    kone_pair_bound,
    thm2_phi_threshold,
    thm3_part1_bound,
    thm3_part2_bound,
)
from repro.core.chains import best_chain_partition
from repro.core.kone import saturating_matching
from repro.core.lemma1 import lemma1_orientation
from repro.core.planner import SYMMETRIC_ALGORITHM
from repro.core.result import OrientationResult
from repro.core.theorem3_cases import NodeCtx, _require
from repro.errors import AlgorithmInvariantError, InvalidParameterError
from repro.geometry.angles import (
    BUDGET_SLOP,
    TWO_PI,
    angle_of,
    ccw_angle,
    ccw_gaps,
    clamp_angular_budget,
    in_ccw_interval,
)
from repro.geometry.points import PointSet
from repro.geometry.sectors import DEFAULT_ANGLE_EPS, Sector, radius_tolerance
from repro.spanning.emst import SpanningTree, euclidean_mst
from repro.spanning.rooted import RootedTree

__all__ = [
    "AntennaAssignment",
    "wedge_spread_required",
    "wedge_layout",
    "tree_spread_requirements",
    "optimal_star_cover",
    "orient_bounded_angle_mst",
    "orient_theorem2",
    "orient_k1_pairs",
    "orient_k1_tour",
    "orient_star_chain_tree",
    "orient_k2_zero_spread",
    "orient_theorem3",
    "Theorem3Engine",
    "handle_leaf",
    "handle_deg2",
    "handle_deg3",
    "adjacency",
]

_EIGHT_FIFTHS_PI = 8.0 * np.pi / 5.0


# -- repro.spanning.emst.SpanningTree.adjacency -----------------------------------
def adjacency(tree: SpanningTree) -> list[list[int]]:
    """Neighbour lists; ``adjacency()[u]`` lists u's neighbours."""
    adj: list[list[int]] = [[] for _ in range(tree.n)]
    for u, v in tree.edges:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    return adj


# -- repro.antenna.model -------------------------------------------------------------
class AntennaAssignment:
    """Sectors per sensor, for ``n`` sensors indexed ``0..n-1``."""

    def __init__(self, n: int, sectors: Sequence[Sequence[Sector]] | None = None):
        if n < 0:
            raise InvalidParameterError(f"sensor count must be >= 0, got {n}")
        self.n = int(n)
        self._sectors: list[list[Sector]] = [[] for _ in range(self.n)]
        if sectors is not None:
            if len(sectors) != self.n:
                raise InvalidParameterError(
                    f"expected {self.n} sector lists, got {len(sectors)}"
                )
            for i, lst in enumerate(sectors):
                for s in lst:
                    self.add(i, s)

    # -- construction --------------------------------------------------------------
    def add(self, sensor: int, sector: Sector) -> None:
        """Mount ``sector`` on ``sensor``."""
        if not 0 <= sensor < self.n:
            raise InvalidParameterError(f"sensor {sensor} out of range (n={self.n})")
        if not isinstance(sector, Sector):
            raise InvalidParameterError(f"expected a Sector, got {type(sector).__name__}")
        self._sectors[sensor].append(sector)

    def extend(self, sensor: int, sectors: Iterable[Sector]) -> None:
        for s in sectors:
            self.add(sensor, s)

    # -- access -----------------------------------------------------------------
    def __getitem__(self, sensor: int) -> list[Sector]:
        return list(self._sectors[sensor])

    def __iter__(self) -> Iterator[tuple[int, Sector]]:
        for i, lst in enumerate(self._sectors):
            for s in lst:
                yield i, s

    def __len__(self) -> int:
        return self.n

    def counts(self) -> np.ndarray:
        """Number of antennae per sensor."""
        return np.asarray([len(lst) for lst in self._sectors], dtype=np.int64)

    def total_antennae(self) -> int:
        return int(self.counts().sum())

    def spread_sums(self) -> np.ndarray:
        """Sum of sector spreads per sensor (the paper's per-node angle sum)."""
        return np.asarray(
            [sum(s.spread for s in lst) for lst in self._sectors], dtype=float
        )

    def max_spread_sum(self) -> float:
        sums = self.spread_sums()
        return float(sums.max()) if sums.size else 0.0

    def max_radius(self) -> float:
        radii = [s.radius for _, s in self]
        return float(max(radii)) if radii else 0.0

    # -- transforms -----------------------------------------------------------------
    def with_uniform_radius(self, radius: float) -> "AntennaAssignment":
        """Copy with every sector's radius replaced by ``radius``."""
        out = AntennaAssignment(self.n)
        for i, s in self:
            out.add(i, s.with_radius(radius))
        return out

    def flattened(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(sensor_idx, start, spread, radius)`` flat arrays over all antennae."""
        idx, start, spread, radius = [], [], [], []
        for i, s in self:
            idx.append(i)
            start.append(s.start)
            spread.append(s.spread)
            radius.append(s.radius)
        return (
            np.asarray(idx, dtype=np.int64),
            np.asarray(start, dtype=float),
            np.asarray(spread, dtype=float),
            np.asarray(radius, dtype=float),
        )


# -- repro.geometry.sectors ----------------------------------------------------------
def covers_point(sector: Sector, apex, point, *, eps: float = DEFAULT_ANGLE_EPS) -> bool:
    """``Sector.covers_point`` through ``Sector.covers_offsets``."""
    off = np.asarray(point, dtype=float) - np.asarray(apex, dtype=float)
    off = off[None, :]
    dist = np.hypot(off[..., 0], off[..., 1])
    within = dist <= sector.radius + radius_tolerance(sector.radius, eps)
    nonzero = dist > 0.0
    ang = in_ccw_interval(angle_of(off), sector.start, sector.spread, eps=eps)
    return bool((within & nonzero & ang)[0])


def sector_toward(apex, point, *, spread: float = 0.0, radius: float = np.inf) -> Sector:
    """Sector centred on the ray from ``apex`` to ``point``."""
    apex = np.asarray(apex, dtype=float)
    direction = angle_of(np.asarray(point, dtype=float) - apex)
    return Sector(direction - spread / 2.0, spread, radius)


# -- repro.spanning.bounded_angle ----------------------------------------------------
def _gap_choice(gaps: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest gaps (ties to the lower index), sorted."""
    return np.sort(np.argsort(-gaps, kind="stable")[:k])


def wedge_spread_required(angles, k: int) -> float:
    """Minimum total spread to cover every direction with ``<= k`` sectors."""
    a = np.asarray(angles, dtype=float)
    if a.size <= k:
        return 0.0
    _, gaps = ccw_gaps(a)
    return float(max(0.0, TWO_PI - gaps[_gap_choice(gaps, k)].sum()))


def wedge_layout(angles, k: int) -> list[tuple[float, float]]:
    """``(start, spread)`` wedges covering all ``angles`` with ``<= k`` sectors."""
    if k < 1:
        raise InvalidParameterError(f"antenna count k must be >= 1, got {k}")
    a = np.asarray(angles, dtype=float)
    if a.size == 0:
        return []
    order, gaps = ccw_gaps(a)
    srt = np.asarray(a, dtype=float)[order]
    srt = np.mod(srt, TWO_PI)
    d = srt.size
    if d <= k:
        return [(float(x), 0.0) for x in np.unique(srt)]
    drop = _gap_choice(gaps, k)
    wedges: list[tuple[float, float]] = []
    for i in range(k):
        start = srt[(drop[i] + 1) % d]
        end = srt[drop[(i + 1) % k]]
        wedges.append((float(start), float(ccw_angle(start, end))))
    return wedges


def tree_spread_requirements(points, tree, k: int) -> np.ndarray:
    """Per-vertex ``s*(v)`` over ``tree``'s neighbour directions."""
    coords = getattr(points, "coords", None)
    if coords is None:
        coords = np.asarray(points, dtype=float)
    out = np.zeros(tree.n, dtype=float)
    for v, nbrs in enumerate(adjacency(tree)):
        if len(nbrs) > k:
            off = coords[np.asarray(nbrs, dtype=np.int64)] - coords[v]
            out[v] = wedge_spread_required(np.arctan2(off[:, 1], off[:, 0]), k)
    return out


# -- repro.core.lemma1 ---------------------------------------------------------------
def _neighbor_angles(apex, neighbor_points) -> np.ndarray:
    apex = np.asarray(apex, dtype=float)
    pts = np.asarray(neighbor_points, dtype=float).reshape(-1, 2)
    diff = pts - apex
    if np.any(np.hypot(diff[:, 0], diff[:, 1]) == 0.0):
        raise InvalidParameterError("a neighbour coincides with the apex")
    return np.arctan2(diff[:, 1], diff[:, 0])


def optimal_star_cover(
    apex, neighbor_points, k: int, *, radius: float = np.inf
) -> list[Sector]:
    """Minimal-total-spread cover of the neighbours by ≤ ``k`` sectors."""
    ang = _neighbor_angles(apex, neighbor_points)
    d = ang.size
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if d == 0:
        return []
    if k >= d:
        return [Sector(a, 0.0, radius) for a in ang]
    order, gaps = ccw_gaps(ang)
    sorted_ang = ang[order]
    # Deterministic selection of the k largest gaps (ties by index).
    chosen = set(np.lexsort((np.arange(d), -gaps))[:k].tolist())
    sectors: list[Sector] = []
    # Each chosen gap starts an arc at the neighbour just after it; the arc
    # runs ccw until the neighbour whose following gap is also chosen.
    for g in sorted(chosen):
        s_idx = (g + 1) % d
        j = s_idx
        while j not in chosen:
            j = (j + 1) % d
        end_idx = j  # gap j is chosen; the arc's last neighbour is index j
        start_dir = float(sorted_ang[s_idx])
        if end_idx == s_idx:
            sectors.append(Sector(start_dir, 0.0, radius))
        else:
            end_dir = float(sorted_ang[end_idx])
            sectors.append(Sector(start_dir, float(ccw_angle(start_dir, end_dir)), radius))
    return sectors


# -- repro.core.symmetric ------------------------------------------------------------
def orient_bounded_angle_mst(
    points: PointSet | np.ndarray,
    k: int,
    phi: float,
    *,
    tree: SpanningTree | None = None,
) -> OrientationResult:
    """Orient ``k`` antennae per sensor for *symmetric* connectivity."""
    k = int(k)
    if k < 1:
        raise InvalidParameterError(f"antenna count k must be >= 1, got {k}")
    phi = clamp_angular_budget(phi)
    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if tree is None:
        tree = euclidean_mst(ps)
    lmax = tree.lmax if n > 1 else 0.0
    assignment = AntennaAssignment(n)
    if n <= 1:
        return OrientationResult(
            ps, assignment, np.empty((0, 2), dtype=np.int64), k, phi,
            1.0, lmax, SYMMETRIC_ALGORITHM,
            stats={"feasible": True, "spread_required": 0.0},
        )

    coords = ps.coords
    requirements = tree_spread_requirements(ps, tree, k)
    required = float(requirements.max())
    feasible = phi >= required - BUDGET_SLOP
    adjacency_ = adjacency(tree)

    if feasible:
        for v, nbrs in enumerate(adjacency_):
            if not nbrs:
                continue
            off = coords[np.asarray(nbrs, dtype=np.int64)] - coords[v]
            for start, spread in wedge_layout(angle_of(off), k):
                assignment.add(v, Sector(start, spread, lmax))
    else:
        for v, nbrs in enumerate(adjacency_):
            ranked = sorted(nbrs, key=lambda u: (ps.distance(v, u), u))
            for u in ranked[:k]:
                assignment.add(v, sector_toward(coords[v], coords[u], radius=lmax))

    tree_edges = tree.edges.astype(np.int64)
    intended = np.concatenate([tree_edges, tree_edges[:, ::-1]], axis=0)
    return OrientationResult(
        ps,
        assignment,
        intended,
        k,
        phi,
        1.0 if feasible else float("inf"),
        lmax,
        SYMMETRIC_ALGORITHM,
        stats={
            "feasible": feasible,
            "spread_required": required,
            "vertices_over_budget": int(
                np.count_nonzero(requirements > phi + BUDGET_SLOP)
            ),
            "tree_max_degree": tree.max_degree(),
        },
    )


# -- repro.core.theorem2 -------------------------------------------------------------
def orient_theorem2(
    points: PointSet | np.ndarray,
    k: int,
    *,
    phi: float | None = None,
    tree: SpanningTree | None = None,
    construction: str = "optimal",
) -> OrientationResult:
    """Orient ``k`` antennae per sensor with range ``lmax`` (Theorem 2)."""
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
    assignment = AntennaAssignment(n)
    if n == 1:
        return OrientationResult(
            ps, assignment, np.empty((0, 2), dtype=np.int64), k, float(phi),
            1.0, 0.0, "theorem2", stats={"construction": construction},
        )

    lmax = tree.lmax
    adj = adjacency(tree)
    coords = ps.coords
    cover_fn = optimal_star_cover if construction == "optimal" else lemma1_orientation
    for u in range(n):
        nbrs = adj[u]
        d = len(nbrs)
        if d == 0:
            continue
        if d <= k:
            for v in nbrs:
                assignment.add(u, sector_toward(coords[u], coords[v], radius=lmax))
        else:
            for sec in cover_fn(coords[u], coords[np.asarray(nbrs)], k, radius=lmax):
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


# -- repro.core.kone -----------------------------------------------------------------
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
    assignment = AntennaAssignment(n)
    if n == 1:
        return OrientationResult(
            ps, assignment, np.empty((0, 2), dtype=np.int64), 1, float(phi),
            bound, lmax, "k1-pairs",
        )

    coords = ps.coords
    partner = saturating_matching(tree)
    # Matched sensors: sector starts on the ray towards the partner and
    # sweeps φ ccw; the uncovered wedge trails clockwise behind that ray.
    for u, v in partner.items():
        direction = float(angle_of(coords[v] - coords[u]))
        assignment.add(u, Sector(direction, phi_eff, radius))
    # Unmatched sensors are leaves; aim the sector boundary at the neighbour.
    adj = adjacency(tree)
    for u in range(n):
        if u in partner:
            continue
        if len(adj[u]) != 1:  # pragma: no cover - saturation guarantees this
            raise AlgorithmInvariantError(f"unmatched vertex {u} is internal")
        x = adj[u][0]
        direction = float(angle_of(coords[x] - coords[u]))
        assignment.add(u, Sector(direction, phi_eff, radius))

    # Intended edges: both directions of every tree edge, each realized by
    # the endpoint itself or its partner (the pair lemma guarantees one).
    intended: list[tuple[int, int]] = []
    for a, b in tree.edges:
        a, b = int(a), int(b)
        for src, dst in ((a, b), (b, a)):
            owner = _covering_endpoint(ps, assignment, partner, src, dst)
            intended.append((owner, dst))
    # Pair edges (may duplicate tree edges; DiGraph dedups).
    for u, v in partner.items():
        intended.append((u, v))

    return OrientationResult(
        ps,
        assignment,
        np.asarray(intended, dtype=np.int64),
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
    ps: PointSet,
    assignment: AntennaAssignment,
    partner: dict[int, int],
    src: int,
    dst: int,
) -> int:
    """Which of ``src`` / ``partner[src]`` covers ``dst``?  (Pair lemma.)"""
    coords = ps.coords
    candidates = [src] + ([partner[src]] if src in partner else [])
    for cand in candidates:
        if any(covers_point(s, coords[cand], coords[dst]) for s in assignment[cand]):
            return cand
    raise AlgorithmInvariantError(
        f"pair lemma violated: neither {src} nor its partner covers {dst}"
    )


def orient_k1_tour(
    points: PointSet | np.ndarray,
    *,
    phi: float = 0.0,
    tree: SpanningTree | None = None,
) -> OrientationResult:
    """Single zero-spread antenna per sensor: a directed bottleneck tour."""
    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if tree is None:
        tree = euclidean_mst(ps)
    lmax = tree.lmax if n > 1 else 0.0
    assignment = AntennaAssignment(n)
    if n == 1:
        return OrientationResult(
            ps, assignment, np.empty((0, 2), dtype=np.int64), 1, float(phi),
            2.0, lmax, "k1-tour",
        )
    tour = best_tour(ps)
    coords = ps.coords
    intended = []
    for i, u in enumerate(tour.order):
        v = tour.order[(i + 1) % n]
        assignment.add(u, sector_toward(coords[u], coords[v], radius=tour.bottleneck))
        intended.append((u, v))
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


# -- repro.core.star_tree ------------------------------------------------------------
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
    """Orient ``k`` zero-spread antennae per sensor with chain gadgets."""
    if k < 2:
        raise InvalidParameterError(f"chain construction needs k >= 2, got {k}")
    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if tree is None:
        tree = euclidean_mst(ps)
    if tree.max_degree() > 5:
        raise InvalidParameterError("chain construction requires max tree degree 5")
    lmax = tree.lmax if n > 1 else 0.0
    assignment = AntennaAssignment(n)
    if n == 1:
        return OrientationResult(
            ps, assignment, np.empty((0, 2), dtype=np.int64), k, phi,
            range_bound, lmax, algorithm,
        )

    rooted = RootedTree(tree, int(root) if root is not None else 0)
    radius = range_bound * lmax
    coords = ps.coords
    intended: list[tuple[int, int]] = []
    max_chain_edge = 0.0
    chain_count_hist: dict[int, int] = {}

    for u in rooted.preorder():
        kids = rooted.children[u]
        d = len(kids)
        if d == 0:
            continue
        kid_coords = coords[np.asarray(kids, dtype=np.int64)]
        diff = kid_coords[:, None, :] - kid_coords[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        part = best_chain_partition(dist, max_chains=k - 1)
        chain_count_hist[part.n_chains] = chain_count_hist.get(part.n_chains, 0) + 1
        if part.max_edge > radius * (1.0 + 1e-7) + 1e-12:
            raise AlgorithmInvariantError(
                f"vertex {u}: best chain partition needs edge {part.max_edge:.6f} "
                f"> bound {radius:.6f} — MST degree invariant violated?"
            )
        max_chain_edge = max(max_chain_edge, part.max_edge)
        for chain in part.chains:
            head = kids[chain[0]]
            assignment.add(u, sector_toward(coords[u], coords[head], radius=radius))
            intended.append((u, head))
            for a_i, b_i in zip(chain[:-1], chain[1:]):
                a, b = kids[a_i], kids[b_i]
                assignment.add(a, sector_toward(coords[a], coords[b], radius=radius))
                intended.append((a, b))
            tail = kids[chain[-1]]
            assignment.add(tail, sector_toward(coords[tail], coords[u], radius=radius))
            intended.append((tail, u))

    return OrientationResult(
        ps,
        assignment,
        np.asarray(intended, dtype=np.int64),
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


# -- repro.core.ktwo_zero ------------------------------------------------------------
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
    assignment = AntennaAssignment(n)
    if n == 1:
        return OrientationResult(
            ps, assignment, np.empty((0, 2), dtype=np.int64), 2, phi,
            BTSP_RANGE, lmax, "k2-zero-spread",
        )

    rooted = RootedTree(tree, int(root) if root is not None else 0)
    radius = BTSP_RANGE * lmax
    coords = ps.coords
    intended: list[tuple[int, int]] = []
    max_sibling_edge = 0.0

    def aim(u: int, v: int) -> None:
        assignment.add(u, sector_toward(coords[u], coords[v], radius=radius))
        intended.append((u, v))

    for u in rooted.preorder():
        kids = rooted.children[u]
        if kids:
            aim(int(u), kids[0])  # antenna B: leftmost child
            for a, b in zip(kids[:-1], kids[1:]):  # antenna A of each non-last child
                aim(a, b)
                max_sibling_edge = max(max_sibling_edge, ps.distance(a, b))
            aim(kids[-1], int(u))  # antenna A of the last child: parent

    return OrientationResult(
        ps,
        assignment,
        np.asarray(intended, dtype=np.int64),
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


# -- repro.core.theorem3 -------------------------------------------------------------
_EPS = 1e-9


@dataclass
class Theorem3Engine:
    """Shared state for one run of the Theorem-3 construction."""

    rooted: RootedTree
    phi_budget: float  # per-node angular budget actually used (π for part 1)
    part: int  # 1 or 2
    radius: float  # absolute antenna radius (bound · lmax)
    assignment: AntennaAssignment = field(init=False)
    intended: list[tuple[int, int]] = field(init=False, default_factory=list)
    stats: dict[str, Any] = field(init=False)

    def __post_init__(self) -> None:
        self.assignment = AntennaAssignment(self.rooted.n)
        self.stats = {"cases": {}}

    # -- bookkeeping helpers used by the case handlers ---------------------------
    def note_case(self, label: str) -> None:
        c = self.stats["cases"]
        c[label] = c.get(label, 0) + 1

    def add_sector(self, u: int, sector: Sector) -> None:
        self.assignment.add(u, sector)

    def add_edge(self, u: int, v: int) -> None:
        self.intended.append((int(u), int(v)))

    def check_delegation(self, donor: int, receiver: int) -> None:
        """Assert the proof's promise that a sibling delegation is in range."""
        d = self.rooted.points.distance(donor, receiver)
        if d > self.radius * (1.0 + 1e-7) + 1e-12:
            raise AlgorithmInvariantError(
                f"delegation {donor}->{receiver} at distance {d:.6f} exceeds "
                f"radius {self.radius:.6f} (part {self.part})"
            )

    def check_spread(self, u: int) -> None:
        used = sum(s.spread for s in self.assignment[u])
        if used > self.phi_budget + 1e-9:
            raise AlgorithmInvariantError(
                f"vertex {u} uses spread {used:.6f} > budget {self.phi_budget:.6f}"
            )

    # -- main loop -------------------------------------------------------------
    def run(self, root_cover: np.ndarray | None = None) -> None:
        """Process the whole tree top-down.

        ``root_cover`` is an optional *imaginary point* the root must cover
        (Property-1 testing); by default the root covers its child.
        """
        rooted = self.rooted
        root = rooted.root
        if rooted.n == 1:
            if root_cover is not None:
                self.add_sector(
                    root, sector_toward(rooted.points[root], root_cover, radius=self.radius)
                )
            return
        if len(rooted.children[root]) != 1:
            raise InvalidParameterError(
                "Theorem 3 requires the tree to be rooted at a leaf (degree-1 vertex)"
            )
        child = rooted.children[root][0]
        # Root RT: one zero-spread antenna per target (child, and the
        # imaginary point if provided).  δ(RT)=1, so two antennae suffice.
        self.add_sector(root, sector_toward(rooted.points[root], rooted.points[child], radius=self.radius))
        self.add_edge(root, child)
        if root_cover is not None:
            self.add_sector(root, sector_toward(rooted.points[root], root_cover, radius=self.radius))
        self.note_case("root")

        # Stack of (vertex, index of the point it must cover).
        stack: list[tuple[int, int]] = [(child, root)]
        while stack:
            u, p_idx = stack.pop()
            ctx = NodeCtx.build(self, u, p_idx)
            n_children = len(ctx.children)
            if n_children == 0:
                handle_leaf(ctx)
            elif n_children == 1:
                handle_deg2(ctx)
            elif n_children == 2:
                handle_deg3(ctx)
            elif n_children == 3:
                if self.part == 1:
                    cases.handle_deg4_part1(ctx)
                else:
                    cases.handle_deg4_part2(ctx)
            elif n_children == 4:
                if self.part == 1:
                    cases.handle_deg5_part1(ctx)
                else:
                    cases.handle_deg5_part2(ctx)
            else:  # pragma: no cover - max degree 5 enforced upstream
                raise AlgorithmInvariantError(
                    f"vertex {u} has {n_children + 1} tree neighbours (> 5)"
                )
            self.check_spread(u)
            pushed = {c for c, _ in ctx.pushes}
            if pushed != set(ctx.children):
                raise AlgorithmInvariantError(
                    f"vertex {u}: children {set(ctx.children) - pushed} were never "
                    f"scheduled (handler bug)"
                )
            stack.extend(ctx.pushes)


# -- repro.core.theorem3_cases: degree 1-3 (shared by both parts) -------------------
def handle_leaf(ctx: NodeCtx) -> None:
    """δ(u) = 1: a single zero-spread antenna covering ``p``."""
    ctx.zero_to_p()
    ctx.engine.note_case("deg1.leaf")


def handle_deg2(ctx: NodeCtx) -> None:
    """δ(u) = 2: two zero-spread antennae, one at ``p`` and one at the child."""
    ctx.zero_to_p()
    ctx.zero_to_child(0)
    ctx.push(0, ctx.u)
    ctx.engine.note_case("deg2")


def handle_deg3(ctx: NodeCtx) -> None:
    """δ(u) = 3: close the smallest of the three gaps with one antenna.

    min{∠puc1, ∠c1uc2, ∠c2up} ≤ 2π/3 ≤ φ, so one antenna spans the smallest
    gap (covering its two bounding targets) and the zero antenna covers the
    remaining target.
    """
    g = [ctx.gap_p_to_child(0), ctx.gap(0, 1), ctx.gap_child_to_p(1)]
    i = int(np.argmin(g))
    _require(
        g[i] <= ctx.engine.phi_budget + _EPS,
        f"deg3 at {ctx.u}: min gap {g[i]:.6f} exceeds budget",
    )
    if i == 0:
        ctx.arc(ctx.pdir, ctx.cdir[0], [0], covers_p=True)
        ctx.zero_to_child(1)
    elif i == 1:
        ctx.arc(ctx.cdir[0], ctx.cdir[1], [0, 1], covers_p=False)
        ctx.zero_to_p()
    else:
        ctx.arc(ctx.cdir[1], ctx.pdir, [1], covers_p=True)
        ctx.zero_to_child(0)
    ctx.push_rest()
    ctx.engine.note_case(f"deg3.gap{i}")


def orient_theorem3(
    points: PointSet | np.ndarray,
    phi: float,
    *,
    tree: SpanningTree | None = None,
    root: int | None = None,
    part: int | str = "auto",
) -> OrientationResult:
    """Orient two antennae per sensor under angular-sum budget ``phi``."""
    two_thirds_pi = 2.0 * np.pi / 3.0
    if phi < two_thirds_pi - 1e-12:
        raise InvalidParameterError(
            f"Theorem 3 needs phi >= 2pi/3 = {two_thirds_pi:.6f}, got {phi:.6f}"
        )
    if part not in ("auto", 1, 2):
        raise InvalidParameterError(f"part must be 'auto', 1 or 2, got {part!r}")
    use_part = (1 if phi >= np.pi - 1e-12 else 2) if part == "auto" else int(part)
    if use_part == 1 and phi < np.pi - 1e-12:
        raise InvalidParameterError("part 1 requires phi >= pi")

    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if tree is None:
        tree = euclidean_mst(ps)
    if tree.max_degree() > 5:
        raise InvalidParameterError("Theorem 3 requires a spanning tree of max degree 5")
    lmax = tree.lmax if n > 1 else 0.0

    if use_part == 1:
        bound = thm3_part1_bound()
        phi_eff = float(np.pi)
    else:
        phi_eff = float(min(phi, np.pi))
        bound = thm3_part2_bound(phi_eff)

    if n == 1:
        return OrientationResult(
            ps, AntennaAssignment(1), np.empty((0, 2), dtype=np.int64),
            2, float(phi), bound, lmax, f"theorem3.part{use_part}",
        )

    rooted = (
        RootedTree(tree, root) if root is not None else RootedTree.rooted_at_leaf(tree)
    )
    if len(rooted.children[rooted.root]) != 1:
        raise InvalidParameterError("root must be a leaf of the spanning tree")

    engine = Theorem3Engine(rooted, phi_eff, use_part, bound * lmax)
    engine.run()
    engine.stats["part"] = use_part
    engine.stats["phi_effective"] = phi_eff
    return OrientationResult(
        ps,
        engine.assignment,
        np.asarray(engine.intended, dtype=np.int64),
        2,
        float(phi),
        bound,
        lmax,
        f"theorem3.part{use_part}",
        stats=engine.stats,
    )
