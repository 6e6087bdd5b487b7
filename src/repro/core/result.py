"""The common result object returned by every orientation algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.antenna.coverage import critical_range, transmission_graph
from repro.antenna.model import AntennaAssignment
from repro.antenna.validate import ValidationReport, validate_assignment
from repro.geometry.points import PointSet
from repro.graph.digraph import DiGraph
from repro.kernels.backend import active_backend
from repro.kernels.geometry import PolarTables
from repro.kernels.instrument import recording

__all__ = ["OrientationResult"]


@dataclass
class OrientationResult:
    """Output of an antenna-orientation algorithm.

    Attributes
    ----------
    points:
        The sensor locations.
    assignment:
        Sectors per sensor.
    intended_edges:
        ``(m, 2)`` directed edges forming the algorithm's connectivity
        certificate (a strongly connected subgraph of the transmission graph).
    k:
        Antennae-per-sensor budget the algorithm was run with.
    phi:
        Per-sensor angular-sum budget (radians).
    range_bound:
        The algorithm's guaranteed range in **normalized** units (multiples
        of ``lmax``); ``range_bound * lmax`` is the absolute guarantee.
    lmax:
        The normalization unit (longest MST edge, absolute units).
    algorithm:
        Human-readable algorithm identifier (e.g. ``"theorem3.part1"``).
    stats:
        Free-form per-algorithm counters (case frequencies etc.).
    """

    points: PointSet
    assignment: AntennaAssignment
    intended_edges: np.ndarray
    k: int
    phi: float
    range_bound: float
    lmax: float
    algorithm: str
    stats: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.intended_edges = np.asarray(self.intended_edges, dtype=np.int64).reshape(-1, 2)

    # -- measured quantities -----------------------------------------------------
    @property
    def range_bound_absolute(self) -> float:
        """Guaranteed range in the instance's own units."""
        return float(self.range_bound * self.lmax)

    def realized_range(self) -> float:
        """Longest intended edge (absolute units): the range the construction used."""
        if self.intended_edges.size == 0:
            return 0.0
        c = self.points.coords
        diff = c[self.intended_edges[:, 0]] - c[self.intended_edges[:, 1]]
        return float(np.hypot(diff[:, 0], diff[:, 1]).max())

    def realized_range_normalized(self) -> float:
        """Longest intended edge in multiples of lmax."""
        return self.realized_range() / self.lmax if self.lmax > 0 else 0.0

    def measured_critical_range(
        self, *, tables: PolarTables | None = None, mode: str = "strong"
    ) -> float:
        """Minimal uniform radius achieving connectivity under ``mode`` (absolute).

        Records the kernel work it performed (connectivity probes, graph
        builds — zero by construction — trig evaluations) under
        ``stats["critical_range_kernels"]``, tagged with the name of the
        kernel backend that produced it.  ``tables`` is the optional
        shared polar geometry (one trig pass per instance when provided).
        """
        with recording() as rec:
            cr = critical_range(self.points, self.assignment, tables=tables, mode=mode)
        self.stats["critical_range_kernels"] = {
            "backend": active_backend().name,
            **rec.as_dict(),
        }
        return cr

    def max_spread_sum(self) -> float:
        """Largest per-sensor angular sum actually used (radians)."""
        return self.assignment.max_spread_sum()

    def transmission_graph(self, *, tables: PolarTables | None = None) -> DiGraph:
        return transmission_graph(self.points, self.assignment, tables=tables)

    # -- validation -----------------------------------------------------------------
    def validate(self, *, check_transmission: bool = True) -> ValidationReport:
        """Run the full certificate validation (see :mod:`repro.antenna.validate`)."""
        return validate_assignment(
            self.points,
            self.assignment,
            self.intended_edges,
            k=self.k,
            phi=self.phi,
            range_bound=self.range_bound_absolute,
            check_transmission=check_transmission,
        )

    def summary(self) -> str:
        """One-line report used by examples and benchmarks."""
        return (
            f"{self.algorithm}: n={len(self.points)}, k={self.k}, phi={self.phi:.4f}, "
            f"bound={self.range_bound:.4f}·lmax, realized="
            f"{self.realized_range_normalized():.4f}·lmax, "
            f"max spread sum={self.max_spread_sum():.4f}"
        )
