"""Symmetric-mode orientation: the bounded-angle MST construction.

In symmetric mode a transmission edge exists only when *both* endpoints
cover each other, so an orientation is useful exactly when every spanning
tree edge is covered from both ends.  The construction here aims wedges at
the EMST neighbours of each vertex (:mod:`repro.spanning.bounded_angle`):

* degree ``d <= k``: one zero-spread ray per neighbour (spread sum 0);
* degree ``d > k``: ``k`` wedges leaving the ``k`` largest angular gaps
  uncovered — the provably minimal spread sum ``s*(v)``.

The layout never depends on φ; the budget only decides **feasibility**
(``φ >= max_v s*(v)``).  When feasible, every tree edge is mutual and the
symmetric critical range is at most ``lmax`` (``range_bound = 1.0``).  When
infeasible, no per-vertex wedge set within budget can cover all neighbours,
so each vertex falls back to ``k`` zero-spread rays at its ``k`` nearest
tree neighbours — a *subset* of the feasible layout's coverage, which keeps
coverage pointwise monotone in φ and hence the measured critical range
weakly non-increasing (the property the frontier bisection relies on);
``range_bound = inf`` records that no connectivity guarantee is claimed.

``intended_edges`` lists both directions of every tree edge in both cases,
so ``realized_range`` is identically ``1.0`` — constant, therefore also
monotone — and the infeasible fallback is visibly deficient through the
``critical_range`` / ``strongly_connected`` measurements instead.
"""

from __future__ import annotations

import numpy as np

from repro.antenna.model import AntennaAssignment
from repro.core.planner import SYMMETRIC_ALGORITHM, orient_antennae
from repro.core.result import OrientationResult
from repro.errors import InvalidParameterError
from repro.geometry.angles import BUDGET_SLOP, angle_of, clamp_angular_budget
from repro.geometry.points import PointSet
from repro.kernels.connectivity import validate_mode
from repro.spanning.bounded_angle import segment_wedges, tree_spread_requirements
from repro.spanning.emst import SpanningTree, euclidean_mst

__all__ = ["SYMMETRIC_ALGORITHM", "orient_bounded_angle_mst", "orient_for_mode"]


def orient_bounded_angle_mst(
    points: PointSet | np.ndarray,
    k: int,
    phi: float,
    *,
    tree: SpanningTree | None = None,
) -> OrientationResult:
    """Orient ``k`` antennae per sensor for *symmetric* connectivity.

    Feasible (``φ >= max_v s*(v)``): every EMST edge is covered from both
    ends, the mutual graph contains the tree, and the symmetric critical
    range is ``<= lmax`` (``range_bound = 1.0``).  Infeasible: ``k``
    zero-spread rays at the ``k`` nearest tree neighbours per vertex,
    ``range_bound = inf``.
    """
    k = int(k)
    if k < 1:
        raise InvalidParameterError(f"antenna count k must be >= 1, got {k}")
    phi = clamp_angular_budget(phi)
    ps = points if isinstance(points, PointSet) else PointSet(points)
    n = len(ps)
    if tree is None:
        tree = euclidean_mst(ps)
    lmax = tree.lmax if n > 1 else 0.0
    if n <= 1:
        return OrientationResult(
            ps, AntennaAssignment(n), np.empty((0, 2), dtype=np.int64), k, phi,
            1.0, lmax, SYMMETRIC_ALGORITHM,
            stats={"feasible": True, "spread_required": 0.0},
        )

    requirements = tree_spread_requirements(ps, tree, k)
    required = float(requirements.max())
    feasible = phi >= required - BUDGET_SLOP
    arcs = tree.arcs()
    off = ps.coords[arcs.dst] - ps.coords[arcs.src]
    if feasible:
        sensor, start, spread = segment_wedges(arcs.indptr, angle_of(off), k)
    else:
        # The k nearest neighbours of each vertex, ties to the lower index.
        dist = np.hypot(off[:, 0], off[:, 1])
        ranked = np.lexsort((arcs.dst, dist, arcs.src))  # still grouped by src
        nearest = ranked[np.arange(ranked.size) - arcs.indptr[arcs.src] < k]
        sensor, start, spread = arcs.src[nearest], angle_of(off[nearest]), 0.0
    assignment = AntennaAssignment.from_columns(n, sensor, start, spread, lmax)

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


def orient_for_mode(
    points: PointSet | np.ndarray,
    k: int,
    phi: float,
    *,
    mode: str = "strong",
    tree: SpanningTree | None = None,
) -> OrientationResult:
    """Mode dispatcher: Table-1 planning (strong) or bounded-angle (symmetric).

    The single construction entry point the engine, frontier and ensemble
    executors call once a plan carries a connectivity mode.
    """
    validate_mode(mode)
    if mode == "strong":
        return orient_antennae(points, k, phi, tree=tree)
    return orient_bounded_angle_mst(points, k, phi, tree=tree)
