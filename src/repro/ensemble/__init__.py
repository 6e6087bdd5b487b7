"""Monte-Carlo ensemble layer: probabilistic frontiers over random
orientations and failures.

See :mod:`repro.ensemble.spec` for the request model,
:mod:`repro.ensemble.trials` for the batched trial kernels,
:mod:`repro.ensemble.solver` for the sequential Wilson-interval probe and
φ-bisection, and :mod:`repro.ensemble.executor` for durable execution.
Importing this package registers the ``"ensemble"`` request kind.
"""

from repro.ensemble.executor import (
    EnsembleBatch,
    EnsembleOutcome,
    execute_ensemble,
)
from repro.ensemble.solver import (
    EnsembleProbe,
    KEnsembleFrontier,
    monotonicity_audit,
    solve_instance_ensemble,
    wilson_interval,
)
from repro.ensemble.spec import EnsembleRequest, Perturbation

__all__ = [
    "EnsembleRequest",
    "Perturbation",
    "EnsembleBatch",
    "EnsembleOutcome",
    "execute_ensemble",
    "EnsembleProbe",
    "KEnsembleFrontier",
    "monotonicity_audit",
    "solve_instance_ensemble",
    "wilson_interval",
]
