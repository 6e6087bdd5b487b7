"""Adaptive φ-frontier solver: bisection instead of dense ``(k, φ)`` grids.

The paper's central object is the tradeoff curve φ ↦ minimum stretch
achievable with ``k`` antennae of angular sum φ.  A dense sweep samples it
on a hand-picked grid — wasting kernel work far from the transition and
missing the transition between grid lines.  This package resolves the curve
adaptively:

* :mod:`repro.frontier._solver` — per-(instance, k) bisection of φ, with
  probes warm-started across the dispatch regimes of
  :func:`repro.core.planner.choose_algorithm` (constructions that ignore φ
  within their regime are evaluated once per regime, not once per probe);
  the probe memo and the bisection are shared with the ensemble's
  probabilistic frontier;
* :mod:`repro.frontier.executor` — :func:`execute_frontier`, the
  frontier's slot layout, unit of work and result type on the one durable
  executor (:func:`repro.engine.executor.execute`): frontier runs are
  durable, resumable with zero kernel re-execution, and shardable
  bit-identically.

Specs live alongside the sweep specs:
:class:`repro.engine._spec.FrontierRequest`.  The CLI surface is
``repro frontier`` (and ``repro merge``, which recognises frontier ledgers).
"""

from repro.engine._spec import FrontierRequest
from repro.frontier.executor import (
    FrontierBatch,
    InstanceOutcome,
    execute_frontier,
)
from repro.frontier._solver import (
    PHI_FREE_ALGORITHMS,
    FrontierProbe,
    KFrontier,
    ProbeEngine,
    dispatch_regime,
    solve_instance_frontier,
)

__all__ = [
    "FrontierRequest",
    "FrontierBatch",
    "FrontierProbe",
    "InstanceOutcome",
    "KFrontier",
    "PHI_FREE_ALGORITHMS",
    "ProbeEngine",
    "dispatch_regime",
    "execute_frontier",
    "solve_instance_frontier",
]
