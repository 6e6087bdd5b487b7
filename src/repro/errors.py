"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
letting programming errors (``TypeError`` and friends) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidPointSetError",
    "InvalidParameterError",
    "DegreeBoundError",
    "AlgorithmInvariantError",
    "InfeasibleInstanceError",
    "ValidationError",
    "PlanCancelled",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidPointSetError(ReproError, ValueError):
    """The input point set is malformed (wrong shape, NaN, duplicates...)."""


class InvalidParameterError(ReproError, ValueError):
    """An algorithm parameter (``k``, ``phi``, budgets...) is out of range."""


class DegreeBoundError(ReproError, RuntimeError):
    """A spanning tree could not be brought to the required max degree."""


class AlgorithmInvariantError(ReproError, RuntimeError):
    """An invariant guaranteed by the paper's proof failed at runtime.

    Raised defensively: if the geometry of an instance violates a case
    condition that the proof shows must hold, this indicates either a bug or
    an input that is not a valid Euclidean MST configuration.  The message
    records the vertex and the failed condition for debugging.
    """


class InfeasibleInstanceError(ReproError, ValueError):
    """The requested orientation problem has no solution under the model.

    Example: ``k = 1`` with spread 0 requires a Hamiltonian-cycle orientation,
    which the caller may have constrained to an impossible range.
    """


class ValidationError(ReproError, AssertionError):
    """An orientation result failed post-hoc certificate validation."""


class PlanCancelled(ReproError, RuntimeError):
    """A durable plan execution stopped at its cancellation tombstone.

    Raised by :func:`repro.engine.execute_plan` /
    :func:`repro.frontier.execute_frontier` when the plan's run store
    carries a cancel marker (see :meth:`repro.store.RunStore.cancel`).  Every
    chunk completed before the stop is already checkpointed in the ledger;
    clearing the tombstone and resuming continues from there.
    """
