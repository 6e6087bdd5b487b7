"""Induced transmission digraph of an antenna assignment.

The paper's model: a directed edge ``(u, v)`` exists iff ``v`` lies within
the spread and range of some antenna at ``u``.  All heavy lifting happens
in :mod:`repro.kernels`: the batched coverage kernel evaluates every
``k·n`` sector against the shared :class:`~repro.kernels.geometry.PolarTables`
in pure array ops, and :func:`critical_range` is one unperturbed trial of
the candidate-pair measurement loop
(:func:`repro.ensemble.trials.measure_columns`), whose search bisects a
once-sorted edge list with zero per-probe graph rebuilds.  Pass
``tables=`` (e.g. from the engine's
:class:`~repro.engine.cache.ArtifactCache`) to share the polar geometry
across calls on the same point set.
"""

from __future__ import annotations

import numpy as np

from repro.antenna.model import AntennaAssignment
from repro.geometry.points import PointSet
from repro.graph.digraph import DiGraph
from repro.kernels.backend import active_backend
from repro.kernels.coverage import batched_coverage
from repro.kernels.geometry import PolarTables, polar_tables
from repro.kernels.sparse import SparsePolarTables

__all__ = [
    "coverage_matrix",
    "graph_from_cover",
    "transmission_graph",
    "critical_range",
]


def _points_arr(points) -> np.ndarray:
    return points.coords if isinstance(points, PointSet) else np.asarray(points, float)


def _tables_for(coords: np.ndarray, tables: PolarTables | None) -> PolarTables:
    if tables is None:
        return polar_tables(coords)
    if tables.n != coords.shape[0]:
        raise ValueError(
            f"polar tables are for n={tables.n}, point set has n={coords.shape[0]}"
        )
    return tables


def coverage_matrix(
    points,
    assignment: AntennaAssignment,
    *,
    eps: float = 1e-9,
    tables: PolarTables | None = None,
) -> np.ndarray:
    """Boolean ``(n, n)`` matrix: ``M[u, v]`` iff some antenna of u covers v.

    ``tables`` is the optional precomputed polar geometry; without it the
    tables are built once for this call.  Angular containment alone is the
    matrix of ``assignment.with_uniform_radius(np.inf)``.
    """
    coords = _points_arr(points)
    n = coords.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    idx, start, spread, radius = assignment.flattened()
    if idx.size == 0:
        return np.zeros((n, n), dtype=bool)
    return batched_coverage(
        _tables_for(coords, tables),
        idx,
        start,
        spread,
        radius,
        eps=eps,
    )


def graph_from_cover(cover: np.ndarray) -> DiGraph:
    """The :class:`DiGraph` whose edges are the True entries of ``cover``.

    The one place a coverage matrix becomes a graph — the validator and
    :func:`transmission_graph` must agree on this derivation.
    """
    src, dst = np.nonzero(cover)
    edges = np.stack([src, dst], axis=1) if src.size else np.empty((0, 2), dtype=np.int64)
    return DiGraph(cover.shape[0], edges)


def transmission_graph(
    points,
    assignment: AntennaAssignment,
    *,
    eps: float = 1e-9,
    tables: PolarTables | None = None,
) -> DiGraph:
    """The directed transmission graph induced by ``assignment``."""
    return graph_from_cover(coverage_matrix(points, assignment, eps=eps, tables=tables))


def critical_range(
    points,
    assignment: AntennaAssignment,
    *,
    eps: float = 1e-9,
    tables: PolarTables | SparsePolarTables | None = None,
    mode: str = "strong",
) -> float:
    """Smallest uniform antenna radius making the network connected.

    Keeps every sector's orientation and spread and bisects over the
    distances of the angularly covered pairs.  The value is the critical
    range of one unperturbed trial of
    :func:`repro.ensemble.trials.measure_columns`, measured without its
    connectivity flag.  ``tables`` is the shared dense or sparse geometry;
    without it the active backend's ``use_sparse`` rule picks the route,
    as :func:`~repro.analysis.metrics.orientation_metrics` does, and dense
    tables are built here.  The stored radii only pick the first candidate
    cutoff: the loop's certificates widen it until the value is exact, so
    it equals the search over all ``n²`` pairs bit for bit, with zero
    per-probe graph constructions (see the kernel counters).  ``mode``
    selects the objective: strong connectivity of the directed graph (the
    paper's model) or, for ``"symmetric"``, undirected connectivity of the
    mutual-coverage graph.  Returns ``inf`` if no radius achieves
    connectivity (the orientations themselves are deficient), and ``0.0``
    for at most one sensor.

    This is the honest "measured range" metric reported by the benchmarks:
    for an orientation produced by an algorithm with bound ``r_bound``, the
    paper's claim corresponds to ``critical_range ≤ r_bound · lmax``.
    """
    from repro.ensemble.trials import measure_columns  # lazy: avoids cycle

    coords = _points_arr(points)
    if tables is None and not active_backend().use_sparse(coords.shape[0]):
        tables = polar_tables(coords)
    _, _, critical = measure_columns(
        points, tables, *assignment.flattened(), eps=eps,
        want_connectivity=False, mode=mode,
    )
    return float(critical[0])
