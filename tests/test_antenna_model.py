"""Unit tests for repro.antenna.model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.antenna.model import AntennaAssignment
from repro.errors import InvalidParameterError
from repro.geometry.sectors import Sector
from tests import construction_reference as ref


class TestConstruction:
    def test_empty(self):
        a = AntennaAssignment(3)
        assert len(a) == 3
        assert a.total_antennae() == 0

    def test_from_sector_lists(self):
        a = AntennaAssignment(2, [[Sector(0, 1)], [Sector(1, 0.5), Sector(2, 0.25)]])
        assert list(a.counts()) == [1, 2]

    def test_wrong_list_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            AntennaAssignment(2, [[Sector(0, 1)]])

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            AntennaAssignment(-1)

    def test_add_bounds_checked(self):
        a = AntennaAssignment(2)
        with pytest.raises(InvalidParameterError):
            a.add(5, Sector(0, 1))

    def test_non_sector_rejected(self):
        a = AntennaAssignment(2)
        with pytest.raises(InvalidParameterError):
            a.add(0, "not a sector")  # type: ignore[arg-type]


class TestAggregates:
    def make(self) -> AntennaAssignment:
        a = AntennaAssignment(3)
        a.add(0, Sector(0.0, 1.0, 2.0))
        a.add(0, Sector(1.0, 0.5, 3.0))
        a.add(2, Sector(2.0, 0.0, 1.0))
        return a

    def test_counts(self):
        assert list(self.make().counts()) == [2, 0, 1]

    def test_spread_sums(self):
        sums = self.make().spread_sums()
        assert sums[0] == pytest.approx(1.5)
        assert sums[1] == 0.0

    def test_max_spread_sum(self):
        assert self.make().max_spread_sum() == pytest.approx(1.5)

    def test_max_radius(self):
        assert self.make().max_radius() == pytest.approx(3.0)

    def test_iteration_yields_pairs(self):
        pairs = list(self.make())
        assert len(pairs) == 3
        assert all(isinstance(s, Sector) for _, s in pairs)

    def test_getitem_copies(self):
        a = self.make()
        lst = a[0]
        lst.append(Sector(0, 0))
        assert len(a[0]) == 2

    def test_extend(self):
        a = AntennaAssignment(1)
        a.extend(0, [Sector(0, 0), Sector(1, 0)])
        assert a.total_antennae() == 2


class TestTransforms:
    def test_with_uniform_radius(self):
        a = AntennaAssignment(2)
        a.add(0, Sector(0.0, 1.0, 5.0))
        a.add(1, Sector(1.0, 2.0, 7.0))
        b = a.with_uniform_radius(3.0)
        assert all(s.radius == 3.0 for _, s in b)
        # original untouched
        assert a.max_radius() == 7.0

    def test_flattened(self):
        a = AntennaAssignment(2)
        a.add(1, Sector(0.5, 1.0, 2.0))
        a.add(0, Sector(0.25, 0.0, 1.0))
        idx, start, spread, radius = a.flattened()
        assert list(idx) == [0, 1]
        assert start[1] == pytest.approx(0.5)
        assert spread[1] == pytest.approx(1.0)
        assert radius[0] == pytest.approx(1.0)


# -- columnar construction ------------------------------------------------------------

SPREADS = [0.0, 0.1, 0.2, 0.3, 1e-16, 1.0, 3.0, np.pi, 2 * np.pi, 2 * np.pi + 5e-13]
STARTS = [0.0, -1e-17, 0.5, -2.0, 7.0, 2 * np.pi, -np.pi]


@st.composite
def columns(draw):
    """``n`` and per-antenna rows in emission order (sensors interleaved)."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 12))
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, n - 1),
            st.one_of(st.sampled_from(STARTS), st.floats(-20.0, 20.0)),
            st.one_of(st.sampled_from(SPREADS), st.floats(0.0, 2 * np.pi)),
            st.one_of(st.just(np.inf), st.floats(0.0, 5.0)),
        ),
        min_size=m, max_size=m,
    ))
    return n, rows


def _cols(rows):
    return [np.asarray([r[i] for r in rows], dtype=np.int64 if i == 0 else float)
            for i in range(4)]


def _by_add(cls, n, rows):
    a = cls(n)
    for s, start, spread, radius in rows:
        a.add(s, Sector(start, spread, radius))
    return a


def _same(a, b) -> None:
    for x, y in zip(a.flattened(), b.flattened()):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert np.array_equal(a.counts(), b.counts()) and a.counts().dtype == b.counts().dtype
    assert a.spread_sums().tobytes() == b.spread_sums().tobytes()
    assert a.total_antennae() == b.total_antennae()
    assert a.max_spread_sum() == b.max_spread_sum()
    assert a.max_radius() == b.max_radius()
    assert list(a) == list(b)
    for i in range(a.n):
        assert a[i] == b[i]
        assert [s.start.hex() for s in a[i]] == [s.start.hex() for s in b[i]]


class TestFromColumns:
    @settings(max_examples=200, deadline=None)
    @given(columns())
    def test_matches_repeated_add(self, case):
        """Same columns, counts, per-sensor spread sums (added in emission
        order), iteration and indexing as adding Sector by Sector — to the
        class and to the list-of-lists original."""
        n, rows = case
        cols = AntennaAssignment.from_columns(n, *_cols(rows))
        added = _by_add(AntennaAssignment, n, rows)
        original = _by_add(ref.AntennaAssignment, n, rows)
        _same(cols, original)
        _same(added, original)
        _same(cols.with_uniform_radius(2.5), original.with_uniform_radius(2.5))
        _same(added.with_uniform_radius(0.0), original.with_uniform_radius(0.0))

    @settings(max_examples=100, deadline=None)
    @given(columns(), columns())
    def test_add_after_from_columns(self, first, more):
        n, rows = first
        extra = [(s % n, *rest) for s, *rest in more[1]]
        a = AntennaAssignment.from_columns(n, *_cols(rows))
        for s, start, spread, radius in extra:
            a.add(s, Sector(start, spread, radius))
        _same(a, _by_add(ref.AntennaAssignment, n, rows + extra))

    @settings(max_examples=50, deadline=None)
    @given(columns())
    def test_io_round_trip(self, case):
        from repro.core.result import OrientationResult
        from repro.geometry.points import PointSet
        from repro.io import result_from_dict, result_to_dict

        n, rows = case
        ps = PointSet(np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1))

        def as_dict(assignment):
            return result_to_dict(OrientationResult(
                ps, assignment, np.empty((0, 2)), 1, 1.0, 1.0, 1.0, "x"))

        data = as_dict(AntennaAssignment.from_columns(n, *_cols(rows)))
        assert data == as_dict(_by_add(ref.AntennaAssignment, n, rows))
        back = result_from_dict(data).assignment
        _same(back, _by_add(ref.AntennaAssignment, n, rows))

    def test_scalar_columns_broadcast(self):
        a = AntennaAssignment.from_columns(3, [2, 0, 2], [0.5, 1.0, -1.0], 0.0, 4.0)
        assert a.counts().tolist() == [1, 0, 2]
        assert a.flattened()[3].tolist() == [4.0, 4.0, 4.0]
        assert [s.start for s in a[2]] == [0.5, 2 * np.pi - 1.0]

    @pytest.mark.parametrize("row", [
        (0, 0.0, -0.1, 1.0),
        (0, 0.0, 2 * np.pi + 1e-9, 1.0),
        (0, 0.0, np.nan, 1.0),
        (0, 0.0, np.inf, 1.0),
        (0, 0.0, 1.0, -1.0),
        (3, 0.0, 1.0, 1.0),
        (-1, 0.0, 1.0, 1.0),
        (5, 0.0, 7.0, 1.0),
        (5, 0.0, 1.0, -2.0),
    ])
    def test_rejects_what_sector_and_add_reject(self, row):
        rows = [(1, 0.3, 0.5, 1.0), row, (2, 0.0, -5.0, 1.0)]
        with pytest.raises(InvalidParameterError) as want:
            _by_add(ref.AntennaAssignment, 3, rows)
        with pytest.raises(InvalidParameterError) as got:
            AntennaAssignment.from_columns(3, *_cols(rows))
        assert str(got.value) == str(want.value)

    def test_with_uniform_radius_rejects_negative(self):
        a = AntennaAssignment.from_columns(2, [0], [0.0], [1.0], [1.0])
        with pytest.raises(InvalidParameterError):
            a.with_uniform_radius(-1.0)
        assert AntennaAssignment(2).with_uniform_radius(-1.0).total_antennae() == 0

    def test_getitem_indexes_like_a_list(self):
        a = AntennaAssignment.from_columns(3, [0, 2], [0.0, 1.0], 0.0, 1.0)
        assert a[-1] == a[2]
        with pytest.raises(IndexError):
            a[3]
