"""Table-1 planner: dispatch the best algorithm for ``(k, φ)``.

:func:`orient_antennae` is the library's main entry point — it picks the
algorithm achieving the smallest proven range for the requested number of
antennae ``k`` and per-sensor angular budget ``φ``, runs it, and returns the
:class:`~repro.core.result.OrientationResult`.
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import best_achievable_bound, paper_range_bound, thm2_phi_threshold
from repro.core.kone import orient_k1
from repro.core.ktwo_zero import orient_k2_zero_spread
from repro.core.theorem2 import orient_theorem2
from repro.core.theorem3 import orient_theorem3
from repro.core.theorem5 import orient_theorem5
from repro.core.theorem6 import orient_theorem6
from repro.core.result import OrientationResult
from repro.errors import InvalidParameterError
from repro.geometry.angles import clamp_angular_budget
from repro.geometry.points import PointSet
from repro.spanning.emst import SpanningTree

__all__ = [
    "PHI_FREE_ALGORITHMS",
    "SYMMETRIC_ALGORITHM",
    "choose_algorithm",
    "choose_dispatch",
    "orient_antennae",
    "phi_free_regime",
    "recorded_budget",
]

_TWO_THIRDS_PI = 2.0 * np.pi / 3.0

#: Algorithm tag on symmetric-mode results (the bounded-angle MST
#: construction of :mod:`repro.core.symmetric`).
SYMMETRIC_ALGORITHM = "bounded-angle-mst"

#: Algorithms whose construction, and therefore every measured metric except
#: the recorded k budget and φ, is independent of φ within their dispatch
#: regime.  Theorem 2 / 5 / 6 and ``k2-zero-spread`` aim antennae purely
#: from the spanning tree; ``k1-tour`` aims its zero-spread beams along the
#: bottleneck tour; Theorem 3 part 1 clamps its working budget to π.  The
#: φ-dependent regimes (``k1-pairs``, ``theorem3.part2``) widen their
#: sectors with φ and must be evaluated again.
#:
#: Audited for symmetric mode: the bounded-angle construction
#: (:data:`SYMMETRIC_ALGORITHM`) is deliberately NOT a member.  Its wedge
#: *layout* ignores φ, but the feasible/infeasible decision (and with it
#: every measured metric) flips at ``max_v s*(v)``.
PHI_FREE_ALGORITHMS = frozenset(
    {"theorem2", "theorem3.part1", "k1-tour", "k2-zero-spread", "theorem5", "theorem6"}
)


def _algorithm_for_exact_k(k: int, phi: float) -> str:
    """The Table-1 algorithm when exactly ``k`` antennae must carry the row."""
    if phi >= thm2_phi_threshold(k) - 1e-12:
        return "theorem2"
    if k == 1:
        return "k1-pairs" if phi >= np.pi - 1e-12 else "k1-tour"
    if k == 2:
        if phi >= np.pi - 1e-12:
            return "theorem3.part1"
        if phi >= _TWO_THIRDS_PI - 1e-12:
            return "theorem3.part2"
        return "k2-zero-spread"
    if k == 3:
        return "theorem5"
    return "theorem6"  # k == 4 (k == 5 is covered by theorem2 above)


def choose_dispatch(k: int, phi: float) -> tuple[str, int]:
    """Full Table-1 dispatch for a ``(k, φ)`` budget: ``(algorithm, k_used)``.

    Minimizes the proven range over all ``k' ≤ k`` — Table 1 alone is not
    monotone in k (see :func:`repro.core.bounds.best_achievable_bound`), so
    e.g. ``k = 3, φ = 2.4`` dispatches to Theorem 3 part 2 with two antennae
    rather than the table's √3 row.

    This is the single source of truth for dispatch, shared by
    :func:`choose_algorithm`, :func:`orient_antennae` and the regime memos
    of the sweep, frontier and ensemble executors (:func:`phi_free_regime`)
    — a memo is sound only because it classifies evaluations with exactly
    the dispatch the planner runs.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    phi = clamp_angular_budget(phi)  # constructions assume phi <= 2pi exactly
    _, k_used, _ = best_achievable_bound(min(int(k), 5), phi)
    return _algorithm_for_exact_k(k_used, phi), k_used


def choose_algorithm(k: int, phi: float) -> str:
    """Name of the algorithm :func:`orient_antennae` will dispatch to."""
    return choose_dispatch(k, phi)[0]


def phi_free_regime(
    k: int, phi: float, mode: str = "strong"
) -> tuple[str, tuple[str, int] | None]:
    """The algorithm a ``(k, φ)`` evaluation runs under ``mode``, and its φ-free regime.

    The regime is ``(algorithm, k_used)`` when the algorithm is one of
    :data:`PHI_FREE_ALGORITHMS`: two evaluations of one instance in the same
    regime build the same orientation, so their metrics differ only in the
    recorded k budget and φ (see :func:`recorded_budget`).  ``k_used``
    matters: with a k = 2 budget Theorem 2 runs with 2 antennae for
    φ ≥ 6π/5, a different construction than Theorem 2 with 1 antenna.  The
    regime is ``None`` for φ-dependent algorithms and for every
    symmetric-mode evaluation, which no memo may answer.
    """
    if mode != "strong":
        return SYMMETRIC_ALGORITHM, None
    algo, k_used = choose_dispatch(k, phi)
    return algo, ((algo, k_used) if algo in PHI_FREE_ALGORITHMS else None)


def recorded_budget(k: int, phi: float) -> tuple[int, float]:
    """The ``(k, φ)`` an :func:`orient_antennae` result records.

    k above 5 behaves like 5, and φ is clamped to ``[0, 2π]``.
    """
    return min(int(k), 5), clamp_angular_budget(phi)


def orient_antennae(
    points: PointSet | np.ndarray,
    k: int,
    phi: float,
    *,
    tree: SpanningTree | None = None,
) -> OrientationResult:
    """Orient ``k`` antennae per sensor with spread sum ≤ ``phi``.

    Guarantees the resulting transmission graph is strongly connected with
    range at most ``paper_range_bound(k, phi)`` times the longest MST edge
    (except the k = 1, φ < π regime, where the paper's own row is loose and
    the result carries the measured bottleneck — see :mod:`repro.btsp`).

    Parameters
    ----------
    points:
        Sensor coordinates, ``(n, 2)`` or a :class:`PointSet`.
    k:
        Antennae per sensor (≥ 1; > 5 behaves like 5).
    phi:
        Bound on the per-sensor sum of spreads, in radians.
    tree:
        Optional precomputed max-degree-5 spanning tree (reused across
        calls by sweeps and benchmarks).
    """
    algo, k_used = choose_dispatch(min(int(k), 5), phi)
    keff, phi = recorded_budget(k, phi)  # the clamps the dispatch validated
    if algo == "theorem2":
        result = orient_theorem2(points, k_used, phi=phi, tree=tree)
    elif algo == "theorem3.part1":
        result = orient_theorem3(points, phi, tree=tree, part=1)
    elif algo == "theorem3.part2":
        result = orient_theorem3(points, phi, tree=tree, part=2)
    elif algo == "k2-zero-spread":
        result = orient_k2_zero_spread(points, phi=phi, tree=tree)
    elif algo == "theorem5":
        result = orient_theorem5(points, phi=phi, tree=tree)
    elif algo == "theorem6":
        result = orient_theorem6(points, phi=phi, tree=tree)
    else:  # k == 1 family
        result = orient_k1(points, phi, tree=tree)
    expected, source = paper_range_bound(keff, phi)
    result.stats.setdefault("table1_bound", expected)
    result.stats.setdefault("table1_source", source)
    result.stats.setdefault("k_used", k_used)
    # Report the caller's k budget even when fewer antennae are used.
    result.k = keff
    return result
