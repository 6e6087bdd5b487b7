"""Antenna assignment model and induced transmission digraph."""

from repro.antenna.model import AntennaAssignment
from repro.antenna.coverage import (
    transmission_graph,
    coverage_matrix,
    critical_range,
)
from repro.antenna.validate import OrientationIssue, validate_assignment

__all__ = [
    "AntennaAssignment",
    "transmission_graph",
    "coverage_matrix",
    "critical_range",
    "OrientationIssue",
    "validate_assignment",
]
