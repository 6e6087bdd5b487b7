"""The skip-the-k-largest-gaps segment kernel against the single-star helpers.

:func:`repro.spanning.bounded_angle.segment_wedges` and
:func:`~repro.spanning.bounded_angle.segment_spread_required` run the rule
over many stars at once.  Each test compares them, star by star, with the
per-star helpers as they were before the kernel existed
(:mod:`tests.construction_reference`), bit for bit, on tie-heavy stars:
regular d-gons, repeated directions, ``d = k`` and ``d = k + 1``.  The
traps each test names are the places where a plausible vectorisation
rounds differently or orders differently.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lemma1 import optimal_star_cover, optimal_star_spread
from repro.errors import InvalidParameterError
from repro.geometry.angles import normalize_angle
from repro.spanning.bounded_angle import (
    segment_spread_required,
    segment_wedges,
    wedge_layout,
    wedge_spread_required,
)
from tests import construction_reference as ref

TWO_PI = 2.0 * np.pi


def bits(x) -> list[str]:
    """Exact float identity, ``-0.0`` and ``0.0`` kept apart."""
    return [float(v).hex() for v in np.ravel(x)]


# -- strategies ------------------------------------------------------------------

#: Offsets that put directions on the 0 / 2π seam: ``-1e-17`` makes
#: ``np.mod`` return 2π itself while ``normalize_angle`` gives 0.
OFFSETS = [0.0, -1e-17, 1e-17, -np.pi / 7, np.pi, -np.pi, 2.5]


@st.composite
def star_angles(draw) -> np.ndarray:
    """Directions of one star, as ``arctan2`` would give them or normalised."""
    kind = draw(st.sampled_from(["polygon", "repeated", "free"]))
    d = draw(st.integers(0, 8))
    if kind == "polygon":
        ang = np.linspace(0.0, TWO_PI, d, endpoint=False) + draw(st.sampled_from(OFFSETS))
    elif kind == "repeated":
        pool = draw(st.lists(st.sampled_from(OFFSETS + [0.5, 1.0, 3.0]), min_size=1, max_size=3))
        ang = np.asarray(draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d)), float)
    else:
        ang = np.asarray(
            draw(st.lists(st.floats(-np.pi, np.pi), min_size=d, max_size=d)), float
        )
    if draw(st.booleans()):
        ang = np.arctan2(np.sin(ang), np.cos(ang))  # the raw (-π, π] range
    return ang


def concat(stars: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.concatenate([[0], np.cumsum([s.size for s in stars])]).astype(np.int64)
    flat = np.concatenate(stars) if stars else np.empty(0)
    return indptr, flat


def per_star(star: np.ndarray, *cols: np.ndarray, n: int) -> list[list[np.ndarray]]:
    return [[c[star == v] for c in cols] for v in range(n)]


@st.composite
def stars_and_k(draw):
    """Several stars and a k at ``d`` or ``d - 1`` of one of them
    (``d = k`` and ``d = k + 1``), or small."""
    stars = draw(st.lists(star_angles(), min_size=1, max_size=6))
    sizes = [s.size for s in stars if s.size] or [1]
    d = draw(st.sampled_from(sizes))
    k = draw(st.sampled_from(sorted({max(d, 1), max(d - 1, 1), 1, 2, 3})))
    return stars, k


# -- the kernel against the reference helpers ---------------------------------------


class TestKernelMatchesHelpers:
    @settings(max_examples=300, deadline=None)
    @given(stars_and_k())
    def test_spread_required(self, case):
        """Chosen gaps are added in ascending sorted position, with numpy's
        association: a sequential sum of k floats rounds differently in
        another order."""
        stars, k = case
        indptr, flat = concat(stars)
        got = segment_spread_required(indptr, flat, k)
        want = [ref.wedge_spread_required(s, k) for s in stars]
        assert bits(got) == bits(want)
        assert bits([wedge_spread_required(s, k) for s in stars]) == bits(want)

    @settings(max_examples=300, deadline=None)
    @given(stars_and_k())
    def test_wedge_layout(self, case):
        """``wedge_layout`` starts wedges at the directions taken ``mod 2π``
        (which can be 2π itself) and, when ``d <= k``, collapses duplicate
        directions into one ray each, ascending (``np.unique``)."""
        stars, k = case
        indptr, flat = concat(stars)
        star, start, spread = segment_wedges(indptr, flat, k)
        assert np.all(np.diff(star) >= 0)
        for s, (st_, sp) in zip(stars, per_star(star, start, spread, n=len(stars))):
            want = ref.wedge_layout(s, k)
            assert bits(st_) == bits([w[0] for w in want])
            assert bits(sp) == bits([w[1] for w in want])
            assert [tuple(map(float.hex, w)) for w in wedge_layout(s, k)] == [
                tuple(map(float.hex, w)) for w in want
            ]

    @settings(max_examples=300, deadline=None)
    @given(stars_and_k(), st.floats(0.5, 4.0))
    def test_optimal_star_cover(self, case, scale):
        """Theorem 2's cover subtracts the raw ``arctan2`` angles (only the
        difference is normalised) and keeps one ray per neighbour, in input
        order, when ``d <= k``."""
        stars, k = case
        apex = np.array([0.25, -1.5])
        nbrs = [apex + scale * np.stack([np.cos(s), np.sin(s)], axis=1) for s in stars]
        raw = [np.arctan2(p[:, 1] - apex[1], p[:, 0] - apex[0]) for p in nbrs]
        indptr, flat = concat(raw)
        star, start, spread = segment_wedges(indptr, flat, k, raw_angles=True)
        for p, (st_, sp) in zip(nbrs, per_star(star, start, spread, n=len(stars))):
            want = ref.optimal_star_cover(apex, p, k, radius=2.0)
            got = optimal_star_cover(apex, p, k, radius=2.0)
            assert got == want
            assert bits([s.start for s in got]) == bits([s.start for s in want])
            assert bits([s.spread for s in got]) == bits([s.spread for s in want])
            assert bits(normalize_angle(st_)) == bits([s.start for s in want])
            assert bits(sp) == bits([s.spread for s in want])


class TestTraps:
    def test_raw_and_normalised_subtraction_differ(self):
        """The two conventions give different last bits on this wedge; each
        kernel mode reproduces its own helper."""
        s, e = -0.12292057180858407, 0.04958290658558728
        ang = np.array([e, s])
        _, _, wedge = segment_wedges([0, 2], ang, 1)
        _, _, cover = segment_wedges([0, 2], ang, 1, raw_angles=True)
        assert bits(wedge) == bits([ref.wedge_layout(ang, 1)[0][1]])
        apex = np.zeros(2)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        assert np.array_equal(np.arctan2(pts[:, 1], pts[:, 0]), ang)
        assert bits(cover) == bits([ref.optimal_star_cover(apex, pts, 1)[0].spread])
        assert bits(wedge) != bits(cover)

    def test_duplicates_collapse_only_in_wedge_layout(self):
        ang = np.array([1.0, 1.0, 2.0])
        star, start, _ = segment_wedges([0, 3], ang, 3)
        assert start.tolist() == [1.0, 2.0] and star.tolist() == [0, 0]
        _, start, _ = segment_wedges([0, 3], ang, 3, raw_angles=True)
        assert start.tolist() == [1.0, 1.0, 2.0]

    def test_seam_direction_starts_at_two_pi(self):
        """``np.mod(-1e-17, 2π)`` is 2π: wedge_layout keeps it as a start
        (mounting it as a sector turns it into 0)."""
        ang = np.array([-1e-17, 1.0, 2.5, 4.0])
        want = ref.wedge_layout(ang, 2)
        assert any(w[0] == TWO_PI for w in want)
        assert wedge_layout(ang, 2) == want

    def test_optimal_star_spread_adds_largest_first(self):
        """``optimal_star_spread`` is not a kernel call: it sums the chosen
        gaps largest first, which may round differently from the kernel's
        index order; both are the same minimum up to rounding."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            ang = rng.uniform(-np.pi, np.pi, size=int(rng.integers(2, 7)))
            k = int(rng.integers(1, ang.size))
            assert optimal_star_spread(ang, k) == pytest.approx(
                wedge_spread_required(ang, k), abs=1e-12
            )

    def test_empty_and_invalid(self):
        star, start, spread = segment_wedges([0, 0, 0], np.empty(0), 2)
        assert star.size == start.size == spread.size == 0
        assert segment_spread_required([0, 0], np.empty(0), 1).tolist() == [0.0]
        assert wedge_layout([], 2) == []
        with pytest.raises(InvalidParameterError):
            wedge_layout([0.0, 1.0], 0)
        with pytest.raises(InvalidParameterError):
            segment_spread_required([0, 2], [0.0, 1.0], -1)
        with pytest.raises(InvalidParameterError):
            optimal_star_cover((0.0, 0.0), [(1.0, 0.0), (0.0, 0.0)], 1)
        with pytest.raises(InvalidParameterError):
            optimal_star_cover((0.0, 0.0), [(1.0, 0.0)], 0)
