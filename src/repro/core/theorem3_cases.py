"""Case handlers for the Theorem-3 induction (Figures 3 and 4 of the paper).

Each handler orients the (at most two) antennae of one vertex ``u`` with
three or four children, given the point ``p`` it must cover, decides which
point each child subtree must cover (its parent ``u``, or a sibling in the
delegation cases), and records the case label for the Figure-3/4
benchmarks.  Leaves and vertices with one or two children cannot delegate;
:meth:`repro.core.theorem3.Theorem3Engine.run` decides all of them in one
array pass.

Notation: children ``c1..c_m`` are ccw-sorted starting from the ray
``u → p`` (the paper's ``u(1)..u(δ(u)-1)``); ``pos[i]`` is the ccw offset of
child ``i+1`` from that ray; the paper's ``∠xuy`` is ``ccw(dir_x, dir_y)``.

Two deliberate corrections to the paper's text, both confirmed by its
Figure 4:

* deg-5, part 2, first case, fallback (Fig. 4(d)): the feasible sibling pair
  is ``min{∠u(2)uu(3), ∠u(3)uu(4)} < π − φ/2`` (the text's
  ``∠u(1)uu(2)`` is a typo — it is ``u(3)`` that must be delegated).  The
  sweep ``u(4) → p → u(1)`` and the zero-spread antenna at ``u(2)`` already
  reach ``u(1)``, ``u(2)`` and ``u(4)``; only ``u(3)`` is left, so the
  sibling that covers it is one of its neighbours ``u(2)``, ``u(4)``, and
  the angle that bounds that delegation is one of the two next to ``u(3)``.
* deg-5, part 2, second case (b)ii: the bound on ``∠u(3)uu(4)`` follows
  from Fact 2(2) applied to ``∠u(2)uu(4) ≤ π``, not from the text's chain.
  Fact 2 (:mod:`repro.spanning.facts`) puts each angle between neighbours
  two apart at a degree-5 vertex in ``[2π/3, π]``; with ``∠u(2)uu(3) > φ/2``
  in this sub-case, ``∠u(3)uu(4) = ∠u(2)uu(4) − ∠u(2)uu(3) < π − φ/2``,
  the bound under which ``u(4)`` covers ``u(3)`` within range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AlgorithmInvariantError
from repro.geometry.angles import TWO_PI, angle_of, ccw_angle
from repro.geometry.sectors import Sector, sector_toward

__all__ = [
    "NodeCtx",
    "handle_deg4_part1",
    "handle_deg4_part2",
    "handle_deg5_part1",
    "handle_deg5_part2",
]

_EPS = 1e-9


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AlgorithmInvariantError(msg)


@dataclass
class NodeCtx:
    """Per-vertex geometry snapshot consumed by the handlers."""

    engine: "object"
    u: int
    p_idx: int
    p_coord: np.ndarray
    children: list[int]  # ccw from ray u→p
    pdir: float  # absolute direction u→p
    cdir: np.ndarray  # absolute directions u→child, aligned with children
    pos: np.ndarray  # ccw offsets from pdir, ascending
    parent: int | None
    pushes: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def build(cls, engine, u: int, p_idx: int) -> "NodeCtx":
        rooted = engine.rooted
        coords = rooted.points
        p_coord = np.asarray(coords[p_idx], dtype=float)
        children = rooted.children_ccw_from(u, p_coord)
        up = p_coord - coords[u]
        pdir = float(angle_of(up))
        if children:
            cdir = np.asarray(
                [float(angle_of(coords[c] - coords[u])) for c in children], dtype=float
            )
            pos = np.asarray([float(ccw_angle(pdir, d)) for d in cdir], dtype=float)
        else:
            cdir = np.empty(0)
            pos = np.empty(0)
        parent = int(rooted.parent[u]) if rooted.parent[u] >= 0 else None
        return cls(engine, u, p_idx, p_coord, children, pdir, cdir, pos, parent)

    # -- orientation helpers -------------------------------------------------------
    def zero_to_child(self, i: int) -> None:
        """Zero-spread antenna aimed at child index ``i`` (0-based)."""
        c = self.children[i]
        self.engine.add_sector(
            self.u,
            sector_toward(
                self.engine.rooted.points[self.u],
                self.engine.rooted.points[c],
                radius=self.engine.radius,
            ),
        )
        self.engine.add_edge(self.u, c)

    def zero_to_p(self) -> None:
        """Zero-spread antenna aimed at the covered point ``p``."""
        self.engine.add_sector(
            self.u,
            sector_toward(
                self.engine.rooted.points[self.u], self.p_coord, radius=self.engine.radius
            ),
        )
        self.engine.add_edge(self.u, self.p_idx)

    def arc(self, start_dir: float, end_dir: float, child_idxs: list[int], *, covers_p: bool) -> float:
        """One antenna sweeping ccw from ``start_dir`` to ``end_dir``.

        Records intended edges to the listed children (0-based) and to ``p``
        when ``covers_p``.  Returns the sweep used (for budget asserts).
        """
        sweep = float(ccw_angle(start_dir, end_dir))
        self.engine.add_sector(self.u, Sector(start_dir, sweep, self.engine.radius))
        for i in child_idxs:
            self.engine.add_edge(self.u, self.children[i])
        if covers_p:
            self.engine.add_edge(self.u, self.p_idx)
        return sweep

    def push(self, child_i: int, target: int) -> None:
        """Schedule child index ``child_i`` to cover vertex ``target``."""
        self.pushes.append((self.children[child_i], int(target)))

    def push_rest(self, *delegated: int) -> None:
        """Push every child not named in ``delegated`` with target ``u``."""
        skip = set(delegated)
        for i in range(len(self.children)):
            if i not in skip:
                self.push(i, self.u)

    def delegate(self, donor_i: int, receiver_i: int) -> None:
        """Child ``donor`` covers sibling ``receiver`` (Property-1 delegation)."""
        donor = self.children[donor_i]
        receiver = self.children[receiver_i]
        self.engine.check_delegation(donor, receiver)
        self.push(donor_i, receiver)

    # -- derived angles ----------------------------------------------------------
    def gap(self, i: int, j: int) -> float:
        """ccw angle from child ``i`` to child ``j`` (0-based indices)."""
        return float(ccw_angle(self.cdir[i], self.cdir[j]))

    def child_dist(self, i: int, j: int) -> float:
        """Euclidean distance between children ``i`` and ``j`` (0-based)."""
        return self.engine.rooted.points.distance(self.children[i], self.children[j])

    def pick_donor(self, candidates: tuple[int, int], receiver: int) -> int:
        """The candidate sibling closest to ``receiver`` (robust donor choice).

        The proof guarantees the candidate with the smaller angular gap is
        within range; choosing by actual distance dominates that choice.
        """
        a, b = candidates
        return a if self.child_dist(a, receiver) <= self.child_dist(b, receiver) else b

    def gap_child_to_p(self, i: int) -> float:
        return float(TWO_PI - self.pos[i])

    def gap_p_to_child(self, i: int) -> float:
        return float(self.pos[i])


# ---------------------------------------------------------------------------
# degree 4
# ---------------------------------------------------------------------------

def handle_deg4_part1(ctx: NodeCtx) -> None:
    """δ(u) = 4, φ = π: one of ∠puc2, ∠c2up is ≤ π; sweep it, zero the rest."""
    a = ctx.gap_p_to_child(1)  # ∠p u c2 (ccw, passes c1)
    if a <= np.pi + _EPS:
        ctx.arc(ctx.pdir, ctx.cdir[1], [0, 1], covers_p=True)
        ctx.zero_to_child(2)
        ctx.engine.note_case("deg4.p1.forward")
    else:
        ctx.arc(ctx.cdir[1], ctx.pdir, [1, 2], covers_p=True)
        ctx.zero_to_child(0)
        ctx.engine.note_case("deg4.p1.backward")
    ctx.push_rest()


def handle_deg4_part2(ctx: NodeCtx) -> None:
    """δ(u) = 4, 2π/3 ≤ φ < π (Figure 4(a)/(b))."""
    phi = ctx.engine.phi_budget
    a31 = ctx.gap_child_to_p(2) + ctx.gap_p_to_child(0)  # ∠c3 u c1 through p
    a13 = ctx.gap(0, 2)  # ∠c1 u c3 through c2
    if a31 <= phi + _EPS:
        # Fig 4(a): sweep c3 → (p) → c1; zero antenna at c2.
        ctx.arc(ctx.cdir[2], ctx.cdir[0], [2, 0], covers_p=True)
        ctx.zero_to_child(1)
        ctx.push_rest()
        ctx.engine.note_case("deg4.p2.a")
        return
    if a13 <= phi + _EPS:
        # Mirror of 4(a): sweep c1 → c2 → c3; zero antenna at p.
        ctx.arc(ctx.cdir[0], ctx.cdir[2], [0, 1, 2], covers_p=False)
        ctx.zero_to_p()
        ctx.push_rest()
        ctx.engine.note_case("deg4.p2.b")
        return
    # Fig 4(b): both "outer" sweeps exceed φ; cover the smaller of the gaps
    # adjacent to p, zero the exposed child, and delegate c2 to a sibling.
    g_c3p = ctx.gap_child_to_p(2)
    g_pc1 = ctx.gap_p_to_child(0)
    _require(
        min(g_c3p, g_pc1) <= phi + _EPS,
        f"deg4.p2 at {ctx.u}: min(c3->p, p->c1) = {min(g_c3p, g_pc1):.6f} > phi",
    )
    if g_c3p <= g_pc1:
        ctx.arc(ctx.cdir[2], ctx.pdir, [2], covers_p=True)
        ctx.zero_to_child(0)
    else:
        ctx.arc(ctx.pdir, ctx.cdir[0], [0], covers_p=True)
        ctx.zero_to_child(2)
    donor = ctx.pick_donor((0, 2), 1)
    ctx.delegate(donor, 1)
    ctx.push_rest(donor)
    ctx.engine.note_case("deg4.p2.c")


# ---------------------------------------------------------------------------
# degree 5
# ---------------------------------------------------------------------------

def _parent_in_p_gap(ctx: NodeCtx) -> tuple[bool, float]:
    """Is the real parent p(u) inside the gap (c4 → c1) that contains p?

    Returns ``(in_gap, parent_pos)`` where ``parent_pos`` is the parent
    direction's ccw offset from the ray u→p.
    """
    _require(ctx.parent is not None, f"deg5 vertex {ctx.u} has no parent (bad root)")
    coords = ctx.engine.rooted.points
    padir = float(angle_of(np.asarray(coords[ctx.parent]) - coords[ctx.u]))
    pa_pos = float(ccw_angle(ctx.pdir, padir))
    in_gap = pa_pos >= ctx.pos[3] - _EPS or pa_pos <= ctx.pos[0] + _EPS
    return in_gap, pa_pos


def _deg5_biggap_construction(ctx: NodeCtx, max_inner_gap: float) -> None:
    """Shared second-case construction: sweep c4 → (p) → c1, delegate inside.

    ``max_inner_gap`` is the proof's guaranteed bound on the smallest inner
    gap (4π/9 in part 1; part 2 inherits the same bound).
    """
    sweep = ctx.arc(ctx.cdir[3], ctx.cdir[0], [3, 0], covers_p=True)
    _require(
        sweep <= ctx.engine.phi_budget + _EPS,
        f"deg5 big-gap sweep {sweep:.6f} exceeds budget at {ctx.u}",
    )
    gaps = [ctx.gap(0, 1), ctx.gap(1, 2), ctx.gap(2, 3)]
    i = int(np.argmin(gaps))
    _require(
        gaps[i] <= max_inner_gap + _EPS,
        f"deg5 at {ctx.u}: min inner gap {gaps[i]:.6f} > {max_inner_gap:.6f}",
    )
    if i == 0:  # c1 (already covered) delegates to c2; zero antenna at c3
        ctx.zero_to_child(2)
        ctx.delegate(0, 1)
        ctx.push_rest(0)
    elif i == 1:  # zero at c2; c2 delegates to c3
        ctx.zero_to_child(1)
        ctx.delegate(1, 2)
        ctx.push_rest(1)
    else:  # c4 (covered) delegates to c3; zero antenna at c2
        ctx.zero_to_child(1)
        ctx.delegate(3, 2)
        ctx.push_rest(3)
    ctx.engine.note_case(f"deg5.biggap.i{i}")


def handle_deg5_part1(ctx: NodeCtx) -> None:
    """δ(u) = 5, φ = π (Figure 3(d)/(e))."""
    in_gap, pa_pos = _parent_in_p_gap(ctx)
    if in_gap:
        # Fig 3(d): p(u) shares p's gap; ∠c4uc1 spans two MST gaps (≤ π).
        _deg5_biggap_construction(ctx, max_inner_gap=4.0 * np.pi / 9.0)
        return
    # Fig 3(e): p(u) sits in an inner gap; sweep around the side away from it.
    if pa_pos > ctx.pos[0] and pa_pos < ctx.pos[1]:
        # p(u) in (c1, c2): sweep c3 → c4 → (p) → c1 (two MST gaps ≤ π).
        sweep = ctx.arc(ctx.cdir[2], ctx.cdir[0], [2, 3, 0], covers_p=True)
        ctx.zero_to_child(1)
        ctx.engine.note_case("deg5.p1.inner.mirror")
    else:
        # p(u) in (c2,c3) or (c3,c4): sweep c4 → (p) → c1 → c2.
        sweep = ctx.arc(ctx.cdir[3], ctx.cdir[1], [3, 0, 1], covers_p=True)
        ctx.zero_to_child(2)
        ctx.engine.note_case("deg5.p1.inner")
    _require(sweep <= np.pi + _EPS, f"deg5.p1 sweep {sweep:.6f} > pi at {ctx.u}")
    ctx.push_rest()


def handle_deg5_part2(ctx: NodeCtx) -> None:
    """δ(u) = 5, 2π/3 ≤ φ < π (Figure 4(c)-(f))."""
    phi = ctx.engine.phi_budget
    in_gap, pa_pos = _parent_in_p_gap(ctx)

    if not in_gap:
        # First case: p(u) in an inner gap.
        mirror = ctx.pos[0] < pa_pos < ctx.pos[1]  # p(u) in (c1, c2)
        if not mirror:
            big = ctx.gap(3, 1)  # ∠c4 u c2 through p and c1
            if big <= phi + _EPS:
                ctx.arc(ctx.cdir[3], ctx.cdir[1], [3, 0, 1], covers_p=True)
                ctx.zero_to_child(2)
                ctx.push_rest()
                ctx.engine.note_case("deg5.p2.first.wide")
                return
            sweep = ctx.arc(ctx.cdir[3], ctx.cdir[0], [3, 0], covers_p=True)
            _require(sweep <= phi + _EPS, f"deg5.p2 fallback sweep {sweep:.6f} > phi")
            ctx.zero_to_child(1)
            donor = ctx.pick_donor((1, 3), 2)
            ctx.delegate(donor, 2)
            ctx.push_rest(donor)
            ctx.engine.note_case("deg5.p2.first.delegate")
            return
        big = ctx.gap(2, 0)  # ∠c3 u c1 through c4 and p
        if big <= phi + _EPS:
            ctx.arc(ctx.cdir[2], ctx.cdir[0], [2, 3, 0], covers_p=True)
            ctx.zero_to_child(1)
            ctx.push_rest()
            ctx.engine.note_case("deg5.p2.first.wide.mirror")
            return
        sweep = ctx.arc(ctx.cdir[3], ctx.cdir[0], [3, 0], covers_p=True)
        _require(sweep <= phi + _EPS, f"deg5.p2 fallback sweep {sweep:.6f} > phi")
        ctx.zero_to_child(2)
        donor = ctx.pick_donor((0, 2), 1)
        ctx.delegate(donor, 1)
        ctx.push_rest(donor)
        ctx.engine.note_case("deg5.p2.first.delegate.mirror")
        return

    # Second case: p(u) shares p's gap (c4 → c1).
    ang_c4_c1 = ctx.gap(3, 0)
    ang_c3_p = ctx.gap_child_to_p(2)
    ang_p_c2 = ctx.gap_p_to_child(1)

    if ang_c4_c1 <= phi + _EPS:
        # Same shape as Fig 3(d); delegation bound 2·sin(2π/9) ≤ part-2 R.
        _deg5_biggap_construction(ctx, max_inner_gap=4.0 * np.pi / 9.0)
        return
    if ang_c3_p <= phi + _EPS:
        # Fig 4 second case, sub-case ∠u(3)up ≤ φ.
        ctx.arc(ctx.cdir[2], ctx.pdir, [2, 3], covers_p=True)
        ctx.zero_to_child(0)
        donor = ctx.pick_donor((0, 2), 1)
        ctx.delegate(donor, 1)
        ctx.push_rest(donor)
        ctx.engine.note_case("deg5.p2.second.c3p")
        return
    if ang_p_c2 <= phi + _EPS:
        # Mirror: ∠puu(2) ≤ φ.
        ctx.arc(ctx.pdir, ctx.cdir[1], [0, 1], covers_p=True)
        ctx.zero_to_child(3)
        donor = ctx.pick_donor((1, 3), 2)
        ctx.delegate(donor, 2)
        ctx.push_rest(donor)
        ctx.engine.note_case("deg5.p2.second.pc2")
        return

    # All three sweeps exceed φ: the φ/2-split cases (Fig 4(e)/(f)).
    a = ctx.gap_child_to_p(3)  # ∠u(4) u p
    b = ctx.gap_p_to_child(0)  # ∠p u u(1)
    g23 = ctx.gap(1, 2)  # ∠u(2) u u(3)
    if min(a, b) >= phi / 2.0 - _EPS:
        # Fig 4(e): both sides of p are wide; cover the narrower side.
        if a <= b:
            ctx.arc(ctx.cdir[3], ctx.pdir, [3], covers_p=True)
            ctx.zero_to_child(0)
        else:
            ctx.arc(ctx.pdir, ctx.cdir[0], [0], covers_p=True)
            ctx.zero_to_child(3)
        ctx.delegate(0, 1)
        ctx.delegate(3, 2)
        ctx.push_rest(0, 3)
        ctx.engine.note_case("deg5.p2.second.e")
        return
    if a <= b:
        # a < φ/2 (proof's case (b)).
        if g23 <= phi / 2.0 + _EPS:
            # Fig 4(f): two half-budget antennae.
            ctx.arc(ctx.cdir[3], ctx.pdir, [3], covers_p=True)
            ctx.arc(ctx.cdir[1], ctx.cdir[2], [1, 2], covers_p=False)
            ctx.delegate(1, 0)
            ctx.push_rest(1)
            ctx.engine.note_case("deg5.p2.second.f")
            return
        ctx.arc(ctx.cdir[3], ctx.pdir, [3], covers_p=True)
        ctx.zero_to_child(0)
        ctx.delegate(0, 1)
        ctx.delegate(3, 2)
        ctx.push_rest(0, 3)
        ctx.engine.note_case("deg5.p2.second.g")
        return
    # Mirror of case (b): b < φ/2 ≤ a.
    if g23 <= phi / 2.0 + _EPS:
        ctx.arc(ctx.pdir, ctx.cdir[0], [0], covers_p=True)
        ctx.arc(ctx.cdir[1], ctx.cdir[2], [1, 2], covers_p=False)
        ctx.delegate(2, 3)
        ctx.push_rest(2)
        ctx.engine.note_case("deg5.p2.second.f.mirror")
        return
    ctx.arc(ctx.pdir, ctx.cdir[0], [0], covers_p=True)
    ctx.zero_to_child(3)
    ctx.delegate(0, 1)
    ctx.delegate(3, 2)
    ctx.push_rest(0, 3)
    ctx.engine.note_case("deg5.p2.second.g.mirror")
