"""Bounded-angle wedge layouts over a spanning tree (symmetric mode).

Symmetric connectivity needs every tree edge covered from *both* ends, so
each vertex must aim antennae at **all** of its tree neighbours — there is
no analogue of the strong-mode trick of covering a neighbour one-way and
routing back around the cycle.  The cheapest way to cover ``d`` neighbour
directions with at most ``k`` sectors is to leave the ``k`` largest
circular gaps between consecutive directions uncovered; the minimum
feasible per-vertex spread sum is therefore

    ``s*(v) = 2π − (sum of the k largest ccw gaps at v)``   (0 when d ≤ k).

Unlike Lemma 1's window (``k`` *consecutive* gaps skipped by one antenna),
the ``k`` skipped gaps here may fall anywhere on the circle — each maximal
run of non-skipped gaps becomes one wedge.  The layout depends only on the
neighbour directions, never on the budget φ: φ enters solely through the
feasibility test ``φ ≥ max_v s*(v)`` (see :mod:`repro.core.symmetric`).

The rule is implemented once, as a segment kernel over many stars at a
time: :func:`segment_wedges` and :func:`segment_spread_required` take the
directions of every star concatenated, with CSR offsets ``indptr`` (star
``v`` owns ``angles[indptr[v]:indptr[v + 1]]``; a spanning tree's
:meth:`~repro.spanning.emst.SpanningTree.arcs` are exactly that).  The
symmetric construction, Theorem 2's optimal cover
(:func:`repro.core.lemma1.optimal_star_cover`) and the single-star helpers
below all call it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.angles import TWO_PI, normalize_angle

__all__ = [
    "segment_spread_required",
    "segment_wedges",
    "wedge_spread_required",
    "wedge_layout",
    "tree_spread_requirements",
]


class _SortedStars:
    """Each star's directions sorted ccw, its gaps, and the gaps it skips.

    Per star, exactly what :func:`repro.geometry.angles.ccw_gaps` and a
    stable ``argsort(-gaps)[:k]`` give for that star alone: ``order`` sorts
    by normalised direction (ties keep input order), ``gaps[i]`` is the ccw
    gap after sorted direction ``i``, and ``drop`` holds, for each star of
    degree ``> k`` (``big``), the sorted positions of its ``k`` largest gaps
    (ties to the lower position), ascending.
    """

    def __init__(self, indptr, angles, k: int):
        if k < 0:
            raise InvalidParameterError(f"antenna count k must be >= 0, got {k}")
        indptr = np.asarray(indptr, dtype=np.int64)
        self.angles = np.asarray(angles, dtype=float)
        self.deg = np.diff(indptr)
        self.seg = np.repeat(np.arange(self.deg.size), self.deg)
        key = normalize_angle(self.angles)
        self.order = np.lexsort((key, self.seg))
        srt = key[self.order]
        gaps = np.empty_like(srt)
        gaps[:-1] = srt[1:] - srt[:-1]
        ends = np.flatnonzero(self.deg)
        last = indptr[ends + 1] - 1
        gaps[last] = TWO_PI - (srt[last] - srt[indptr[ends]])
        self.gaps = gaps

        # Sorting keeps every star's rows in place, so sorted position p
        # belongs to star seg[p].
        self.big = np.flatnonzero(self.deg > k)
        rows = np.flatnonzero(self.deg[self.seg] > k)
        ranked = rows[np.lexsort((rows, -gaps[rows], self.seg[rows]))]
        first = np.zeros(self.big.size, dtype=np.int64)
        np.cumsum(self.deg[self.big][:-1], out=first[1:])
        drop = ranked[first[:, None] + np.arange(k)]
        self.drop = np.sort(drop, axis=1)
        self.base = indptr[self.big][:, None]


def segment_spread_required(indptr, angles, k: int) -> np.ndarray:
    """``s*`` of every star: ``2π`` minus its ``k`` largest ccw gaps, at least 0.

    Stars of degree ``<= k`` need 0.  The chosen gaps of a star are added
    in ascending sorted position, as :func:`wedge_spread_required` always
    did (``optimal_star_spread`` adds them largest first, which may round
    differently).
    """
    stars = _SortedStars(indptr, angles, k)
    out = np.zeros(stars.deg.size, dtype=float)
    if stars.big.size:
        left = TWO_PI - stars.gaps[stars.drop].sum(axis=1)
        out[stars.big] = np.where(left > 0.0, left, 0.0)
    return out


def segment_wedges(
    indptr, angles, k: int, *, raw_angles: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(star, start, spread)`` wedges covering every star with ``<= k`` sectors.

    Stars of degree ``d > k`` get ``k`` wedges: wedge ``i`` sweeps ccw from
    the direction after skipped gap ``i`` to the direction before skipped
    gap ``i + 1``, with spread ``normalize(end − start)``.  Rows come
    grouped by star, ascending, each star's wedges in that order.

    ``raw_angles=False`` is :func:`wedge_layout`'s convention: wedges start
    and end at the directions taken ``mod 2π``, and a star with ``d <= k``
    gets one zero-spread ray per *distinct* direction, ascending.
    ``raw_angles=True`` is Theorem 2's optimal cover: wedges start and end
    at the input angles themselves (their difference is normalised, not
    the angles), and a star with ``d <= k`` gets one ray per input
    direction in input order.  Starts are returned as computed; mounting
    them as sectors normalises them.
    """
    stars = _SortedStars(indptr, angles, k)
    values = stars.angles if raw_angles else np.mod(stars.angles, TWO_PI)
    srt = values[stars.order]

    d = stars.deg[stars.big][:, None]
    s = stars.base + (stars.drop - stars.base + 1) % d
    e = np.roll(stars.drop, -1, axis=1)
    big_star = np.repeat(stars.big, k)
    big_start = srt[s].reshape(-1)
    big_spread = normalize_angle(srt[e] - srt[s]).reshape(-1)

    small = stars.deg[stars.seg] <= k  # input rows of stars with d <= k
    if raw_angles:
        small_star, small_start = stars.seg[small], stars.angles[small]
    else:
        rows = np.flatnonzero(small)
        rows = rows[np.lexsort((values[rows], stars.seg[rows]))]  # as np.unique sorts
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (stars.seg[rows[1:]] != stars.seg[rows[:-1]]) | (
            values[rows[1:]] != values[rows[:-1]]
        )
        small_star, small_start = stars.seg[rows[keep]], values[rows[keep]]

    star = np.concatenate([small_star, big_star])
    order = np.argsort(star, kind="stable")
    start = np.concatenate([small_start, big_start])[order]
    spread = np.concatenate([np.zeros(small_star.size), big_spread])[order]
    return star[order], start, spread


def wedge_spread_required(angles, k: int) -> float:
    """Minimum total spread to cover every direction with ``<= k`` sectors."""
    a = np.asarray(angles, dtype=float).reshape(-1)
    return float(segment_spread_required([0, a.size], a, k)[0])


def wedge_layout(angles, k: int) -> list[tuple[float, float]]:
    """``(start, spread)`` wedges covering all ``angles`` with ``<= k`` sectors.

    Achieves exactly :func:`wedge_spread_required` total spread.  With
    ``d <= k`` directions every wedge degenerates to a zero-spread ray
    (duplicates collapse); otherwise wedge ``i`` sweeps ccw from the
    direction following skipped gap ``i`` to the direction preceding
    skipped gap ``i + 1``.
    """
    if k < 1:
        raise InvalidParameterError(f"antenna count k must be >= 1, got {k}")
    a = np.asarray(angles, dtype=float).reshape(-1)
    _, start, spread = segment_wedges([0, a.size], a, k)
    return list(zip(start.tolist(), spread.tolist()))


def tree_spread_requirements(points, tree, k: int) -> np.ndarray:
    """Per-vertex ``s*(v)`` over ``tree``'s neighbour directions.

    ``points`` is the ``(n, 2)`` coordinate array (or anything exposing
    ``.coords``); the tree supplies the neighbours.  Feasibility of a
    budget φ is ``φ >= tree_spread_requirements(...).max()``.
    """
    coords = getattr(points, "coords", None)
    if coords is None:
        coords = np.asarray(points, dtype=float)
    arcs = tree.arcs()
    off = coords[arcs.dst] - coords[arcs.src]
    return segment_spread_required(arcs.indptr, np.arctan2(off[:, 1], off[:, 0]), k)
