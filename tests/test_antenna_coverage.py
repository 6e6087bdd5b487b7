"""Unit tests for repro.antenna.coverage."""

import numpy as np
import pytest

from repro.antenna.coverage import (
    coverage_matrix,
    critical_range,
    transmission_graph,
)
from repro.antenna.model import AntennaAssignment
from repro.geometry.points import PointSet
from repro.geometry.sectors import Sector, sector_toward
from repro.graph.connectivity import is_strongly_connected


def square_points() -> PointSet:
    return PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])


def ring_assignment(ps: PointSet, radius: float = 1.5) -> AntennaAssignment:
    """Each sensor aims a zero-spread antenna at the next (a 4-cycle)."""
    a = AntennaAssignment(len(ps))
    for i in range(len(ps)):
        j = (i + 1) % len(ps)
        a.add(i, sector_toward(ps[i], ps[j], radius=radius))
    return a


class TestCoverageMatrix:
    def test_cycle_coverage(self):
        ps = square_points()
        cover = coverage_matrix(ps, ring_assignment(ps))
        for i in range(4):
            assert cover[i, (i + 1) % 4]
        assert cover.sum() == 4

    def test_radius_respected(self):
        ps = square_points()
        a = AntennaAssignment(4)
        a.add(0, sector_toward(ps[0], ps[2], radius=0.5))  # too short
        cover = coverage_matrix(ps, a)
        assert cover.sum() == 0

    def test_ignore_radius(self):
        ps = square_points()
        a = AntennaAssignment(4)
        a.add(0, sector_toward(ps[0], ps[2], radius=0.5))
        cover = coverage_matrix(ps, a.with_uniform_radius(np.inf))
        assert cover[0, 2]

    def test_omni_covers_all(self):
        ps = square_points()
        a = AntennaAssignment(4)
        a.add(1, Sector(0.0, 2 * np.pi, 10.0))
        cover = coverage_matrix(ps, a)
        assert cover[1].sum() == 3
        assert not cover[1, 1]

    def test_no_diagonal(self):
        ps = square_points()
        cover = coverage_matrix(ps, ring_assignment(ps))
        assert not cover.diagonal().any()


class TestTransmissionGraph:
    def test_cycle_strongly_connected(self):
        ps = square_points()
        g = transmission_graph(ps, ring_assignment(ps))
        assert g.m == 4
        assert is_strongly_connected(g)

    def test_empty_assignment(self):
        ps = square_points()
        g = transmission_graph(ps, AntennaAssignment(4))
        assert g.m == 0


class TestCriticalRange:
    def test_cycle_critical_is_edge_length(self):
        ps = square_points()
        # Generous stored radii; critical range recomputes from scratch.
        assert critical_range(ps, ring_assignment(ps, radius=100.0)) == pytest.approx(1.0)

    def test_inf_when_never_connected(self):
        ps = square_points()
        a = AntennaAssignment(4)
        a.add(0, sector_toward(ps[0], ps[1]))
        assert critical_range(ps, a) == np.inf

    def test_single_point(self):
        ps = PointSet([[0.0, 0.0]])
        assert critical_range(ps, AntennaAssignment(1)) == 0.0

    def test_scales_with_instance(self):
        ps = square_points()
        big = PointSet(ps.coords * 7.0)
        assert critical_range(big, ring_assignment(big, radius=100.0)) == pytest.approx(7.0)

    def test_orientation_result_consistency(self, uniform50):
        from repro.core.planner import orient_antennae

        res = orient_antennae(uniform50, 2, np.pi)
        crit = critical_range(res.points, res.assignment)
        assert crit <= res.realized_range() + 1e-9
        assert crit <= res.range_bound_absolute * (1 + 1e-7)
