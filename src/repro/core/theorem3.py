"""Theorem 3 — two antennae per sensor (the paper's main result).

Part 1: ``φ₂ ≥ π``  →  range ``2·sin(2π/9) ≈ 1.2856·lmax``.
Part 2: ``2π/3 ≤ φ₂ < π``  →  range ``2·sin(π/2 − φ₂/4)·lmax``.

The construction is the paper's *Property 1* induction on a spanning tree of
maximum degree 5 rooted at a leaf ``RT``: a subtree ``T_v`` satisfies
Property 1 if for any point ``p`` with ``d(v, p) ≤ r`` the antennae inside
``T_v`` can be oriented so the subtree's transmission graph is strongly
connected *and* ``p`` is covered by an antenna at ``v``.  The induction is
realized **top-down**: each vertex knows the point it must cover, chooses
sectors per the proof's case analysis and tells each child the point *that
child* must cover — its parent, or, in the sibling-delegation cases of
degree-4/5 vertices, one of its siblings.

Only a vertex with at least three children can delegate, so
:meth:`Theorem3Engine.run` works in two passes:

1. the *cover-point pass* runs the per-vertex case handlers of
   :mod:`repro.core.theorem3_cases` on the vertices with three or four
   children, parents first (BFS order), which fixes every vertex's cover
   point;
2. one array pass over :meth:`RootedTree.child_blocks` decides every leaf,
   degree-2 and degree-3 vertex at once and emits their beams as columns
   (:meth:`AntennaAssignment.from_columns`).

The output is the per-vertex loop's (kept in ``tests/construction_reference.py``)
bit for bit: each sensor's beams in handler order, ``intended`` in the order
the loop's stack visits the vertices — the depth-first preorder in which a
vertex's children come in reverse of the order it scheduled them — and the
case labels in that order's first occurrences.  A failed invariant raises
the error of the vertex that order reaches first.

Every case records its label in ``result.stats['cases']`` so the Figure-3/4
benchmarks can report how often each branch of the proof fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order

from repro.antenna.model import AntennaAssignment
from repro.core import theorem3_cases as cases
from repro.core.bounds import thm3_part1_bound, thm3_part2_bound
from repro.core.result import OrientationResult
from repro.errors import AlgorithmInvariantError, InvalidParameterError, ReproError
from repro.geometry.angles import TWO_PI, angle_of, ccw_angle
from repro.geometry.points import PointSet
from repro.geometry.sectors import Sector, sector_toward
from repro.spanning.emst import SpanningTree, euclidean_mst
from repro.spanning.rooted import RootedTree

__all__ = ["orient_theorem3", "Theorem3Engine"]

_EPS = 1e-9

#: Case labels of the array pass, by id; ``deg3.gap{i}`` is id ``3 + i``.
_ARRAY_CASES = ("deg1.leaf", "deg2", "deg3.gap0", "deg3.gap1", "deg3.gap2")


@dataclass
class Theorem3Engine:
    """Shared state for one run of the Theorem-3 construction."""

    rooted: RootedTree
    phi_budget: float  # per-node angular budget actually used (π for part 1)
    part: int  # 1 or 2
    radius: float  # absolute antenna radius (bound · lmax)
    assignment: AntennaAssignment = field(init=False)
    intended: list[tuple[int, int]] | np.ndarray = field(init=False, default_factory=list)
    stats: dict[str, Any] = field(init=False)
    last_case: str = field(init=False, default="")

    def __post_init__(self) -> None:
        self.assignment = AntennaAssignment(self.rooted.n)
        self.stats = {"cases": {}}

    # -- bookkeeping helpers used by the case handlers ---------------------------
    def note_case(self, label: str) -> None:
        c = self.stats["cases"]
        c[label] = c.get(label, 0) + 1
        self.last_case = label

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

    # -- the two passes --------------------------------------------------------
    def run(self, root_cover: np.ndarray | None = None) -> None:
        """Process the whole tree top-down.

        ``root_cover`` is an optional *imaginary point* the root must cover
        (Property-1 testing); by default the root covers its child.  On a
        tree of two or more vertices, ``assignment`` then holds every beam,
        ``intended`` is an ``(m, 2)`` int64 array and ``stats['cases']``
        counts the labels.
        """
        rooted = self.rooted
        root = rooted.root
        n = rooted.n
        if n == 1:
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

        blocks = rooted.child_blocks()
        n_children = np.zeros(n, dtype=np.int64)
        n_children[blocks.owner] = blocks.size
        # A vertex's children are visited in reverse of the order it
        # scheduled them: ``rank`` is each child's place among its siblings.
        cover = rooted.parent.copy()
        rank = np.zeros(n, dtype=np.int64)
        case = np.zeros(n, dtype=np.int64)
        case_id = {label: i for i, label in enumerate(("root", *_ARRAY_CASES))}
        failed: dict[int, ReproError] = {}

        # Cover-point pass: the handlers of the vertices that can delegate.
        for u in blocks.owner[blocks.size >= 3].tolist():
            try:
                ctx = cases.NodeCtx.build(self, u, int(cover[u]))
                if len(ctx.children) == 3:
                    handler = cases.handle_deg4_part1 if self.part == 1 else cases.handle_deg4_part2
                elif len(ctx.children) == 4:
                    handler = cases.handle_deg5_part1 if self.part == 1 else cases.handle_deg5_part2
                else:  # pragma: no cover - max degree 5 enforced upstream
                    raise AlgorithmInvariantError(
                        f"vertex {u} has {len(ctx.children) + 1} tree neighbours (> 5)"
                    )
                handler(ctx)
                self.check_spread(u)
                pushed = {c for c, _ in ctx.pushes}
                if pushed != set(ctx.children):
                    raise AlgorithmInvariantError(
                        f"vertex {u}: children {set(ctx.children) - pushed} were never "
                        f"scheduled (handler bug)"
                    )
            except ReproError as exc:
                # Raised only if no vertex earlier in the visit order fails;
                # that order is known once every vertex is decided.
                failed[u] = exc
                continue
            for r, (c, target) in enumerate(reversed(ctx.pushes)):
                cover[c] = target
                rank[c] = r
            case[u] = case_id.setdefault(self.last_case, len(case_id))

        # Array pass: every vertex with at most two children.
        coords = rooted.points.coords
        kids, first = blocks.kids, np.zeros(n, dtype=np.int64)
        first[blocks.owner] = blocks.first
        small = np.flatnonzero(n_children <= 2)
        small = small[small != root]
        pdir = np.zeros(n)  # direction u→p
        pdir[small] = angle_of(coords[cover[small]] - coords[small])
        leaf = small[n_children[small] == 0]
        deg2 = small[n_children[small] == 1]
        deg3 = small[n_children[small] == 2]
        case[leaf], case[deg2] = 1, 2

        # δ(u) = 1: a zero-spread antenna at p.  δ(u) = 2: one at p, then
        # one at the child.
        only = kids[first[deg2]]
        only_dir = angle_of(coords[only] - coords[deg2])

        # δ(u) = 3: children c0, c1 ccw from the ray u→p (a tie keeps the
        # children's order); one antenna closes the smallest of the gaps
        # p→c0, c0→c1, c1→p (the first on a tie) and a zero-spread antenna
        # aims at the remaining target.
        p3, d_p = cover[deg3], pdir[deg3]
        a, b = kids[first[deg3]], kids[first[deg3] + 1]
        d_a, d_b = angle_of(coords[a] - coords[deg3]), angle_of(coords[b] - coords[deg3])
        pos_a, pos_b = ccw_angle(d_p, d_a), ccw_angle(d_p, d_b)
        swap = pos_b < pos_a
        c0, c1 = np.where(swap, b, a), np.where(swap, a, b)
        d0, d1 = np.where(swap, d_b, d_a), np.where(swap, d_a, d_b)
        pos0, pos1 = np.where(swap, pos_b, pos_a), np.where(swap, pos_a, pos_b)
        gaps = (pos0, ccw_angle(d0, d1), TWO_PI - pos1)
        gap = np.where(
            (gaps[0] <= gaps[1]) & (gaps[0] <= gaps[2]), 0, np.where(gaps[1] <= gaps[2], 1, 2)
        )
        min_gap = np.choose(gap, gaps)
        arc_start = np.choose(gap, (d_p, d0, d1))
        arc = ccw_angle(arc_start, np.choose(gap, (d0, d1, d_p)))
        zero_dir = np.choose(gap, (d1, d_p, d0))
        edges3 = (
            np.choose(gap, (c0, c0, c1)),
            np.choose(gap, (p3, c1, p3)),
            np.choose(gap, (c1, p3, c0)),
        )
        rank[c1], rank[c0] = 0, 1
        case[deg3] = 3 + gap

        # Every vertex's children in visit order; the visit order is the
        # depth-first preorder of that tree (scipy walks each row in the
        # order stored).
        parent = rooted.parent[kids]
        by_parent = kids[np.lexsort((rank[kids], parent))]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(parent, minlength=n), out=indptr[1:])
        order = depth_first_order(
            csr_matrix((np.ones(n - 1), by_parent, indptr), shape=(n, n)),
            root, directed=True, return_predecessors=False,
        )
        visit = np.empty(n, dtype=np.int64)
        visit[order] = np.arange(n)

        # Raise at the first failing vertex in visit order: a handler's
        # error, the degree-3 gap check, or the spread check after each vertex.
        too_wide = np.zeros(n, dtype=bool)
        too_wide[deg3] = ~(min_gap <= self.phi_budget + _EPS)
        used = np.zeros(n)
        used[deg3] = arc
        over = np.zeros(n, dtype=bool)
        over[small] = used[small] > self.phi_budget + 1e-9
        bad = [*failed, *np.flatnonzero(too_wide | over).tolist()]
        if bad:
            u = min(bad, key=visit.__getitem__)
            if u in failed:
                raise failed[u]
            if too_wide[u]:
                gap_u = float(min_gap[np.searchsorted(deg3, u)])
                raise AlgorithmInvariantError(f"deg3 at {u}: min gap {gap_u:.6f} exceeds budget")
            raise AlgorithmInvariantError(
                f"vertex {u} uses spread {used[u]:.6f} > budget {self.phi_budget:.6f}"
            )

        # Each sensor's beams and edges in handler order; the columns are
        # concatenated slot by slot, so a stable sort by sensor (beams) or by
        # visit (edges) restores it.
        sensor0, start0, spread0, _ = self.assignment.flattened()
        src0, dst0 = np.asarray(self.intended, dtype=np.int64).reshape(-1, 2).T
        sensor = np.concatenate([sensor0, leaf, deg2, deg2, deg3, deg3])
        start = np.concatenate(
            [start0, pdir[leaf], pdir[deg2], only_dir, arc_start, zero_dir]
        )
        spread = np.concatenate(
            [spread0, np.zeros(leaf.size + 2 * deg2.size), arc, np.zeros(deg3.size)]
        )
        self.assignment = AntennaAssignment.from_columns(n, sensor, start, spread, self.radius)
        src = np.concatenate([src0, leaf, deg2, deg2, deg3, deg3, deg3])
        dst = np.concatenate([dst0, cover[leaf], cover[deg2], only, *edges3])
        by_visit = np.argsort(visit[src], kind="stable")
        self.intended = np.stack([src[by_visit], dst[by_visit]], axis=1)

        names = list(case_id)
        seen = case[order]
        labels, first_seen = np.unique(seen, return_index=True)
        counts = np.bincount(seen, minlength=len(names))
        self.stats["cases"] = {
            names[c]: int(counts[c]) for c in labels[np.argsort(first_seen)].tolist()
        }


def orient_theorem3(
    points: PointSet | np.ndarray,
    phi: float,
    *,
    tree: SpanningTree | None = None,
    root: int | None = None,
    part: int | str = "auto",
) -> OrientationResult:
    """Orient two antennae per sensor under angular-sum budget ``phi``.

    Parameters
    ----------
    points:
        Sensor locations.
    phi:
        Per-sensor sum of the two spreads, ``phi ≥ 2π/3``.
    tree, root:
        Optional precomputed max-degree-5 spanning tree and leaf root.
    part:
        ``"auto"`` (default) picks part 1 for ``phi ≥ π``; forcing ``2`` with
        ``phi ≥ π`` runs part 2 clamped at ``φ_eff = π`` (used by ablations).

    Returns
    -------
    OrientationResult with ``k = 2``.
    """
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
