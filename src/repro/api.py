"""The single public surface of the library.

Everything that runs a request — the CLI, the planning service
(:mod:`repro.service`), worker processes, benchmarks, user scripts —
routes through this façade, and user code should import *from here*:

>>> from repro.api import submit, PlanRequest           # doctest: +SKIP
>>> result = submit(request, store=store, resume=True)  # doctest: +SKIP

Every request kind (``"sweep"``, ``"frontier"``, ``"ensemble"``) derives
from :class:`~repro.engine._spec.RequestBase`, which owns fingerprinting,
versioned wire serialization (:meth:`~repro.engine._spec.RequestBase.to_wire`
/ :func:`~repro.engine._spec.request_from_wire`) and backend validation.
Dispatch is one literal table from ``request.KIND`` to the kind's
:class:`~repro.engine.executor.Kind` record, which the one durable
executor (:func:`repro.engine.executor.execute`) and the one reassembly
path (:func:`repro.engine.executor.assemble`) both run from.  A request
that round-trips the service's wire format therefore executes identically
to one constructed in-process, for every kind.

The implementation modules are not a public surface; there are no
deep-import shims.
"""

from __future__ import annotations

from typing import Any, Callable, Union

from repro.engine.cache import ArtifactCache
from repro.engine import executor as _executor
from repro.engine.executor import SWEEP, BatchResult, InstanceReport
from repro.engine._spec import (
    WIRE_VERSION,
    FrontierRequest,
    GridCell,
    PlanRequest,
    RequestBase,
    Scenario,
    Shard,
    UnknownRequestKind,
    UnsupportedWireVersion,
    WireFormatError,
    request_from_wire,
)
from repro.ensemble.executor import ENSEMBLE, EnsembleBatch
from repro.ensemble.spec import EnsembleRequest, Perturbation
from repro.errors import InvalidParameterError, PlanCancelled, ReproError
from repro.frontier.executor import FRONTIER, FrontierBatch

__all__ = [
    # entry points
    "submit",
    "assemble",
    "assemble_rows",
    # request model
    "RequestBase",
    "PlanRequest",
    "FrontierRequest",
    "EnsembleRequest",
    "Perturbation",
    "Scenario",
    "GridCell",
    "Shard",
    # result types
    "BatchResult",
    "FrontierBatch",
    "EnsembleBatch",
    "InstanceReport",
    # wire format
    "WIRE_VERSION",
    "request_from_wire",
    "WireFormatError",
    "UnknownRequestKind",
    "UnsupportedWireVersion",
    # errors
    "ReproError",
    "InvalidParameterError",
    "PlanCancelled",
]

#: What :func:`submit` returns: the result type of the request's kind.
SubmitResult = Union[BatchResult, FrontierBatch, EnsembleBatch]

_KINDS = {
    PlanRequest.KIND: SWEEP,
    FrontierRequest.KIND: FRONTIER,
    EnsembleRequest.KIND: ENSEMBLE,
}


def _kind(request: RequestBase) -> _executor.Kind:
    kind = getattr(type(request), "KIND", None)
    if kind not in _KINDS:
        raise InvalidParameterError(
            f"no executor for request kind {kind!r} "
            f"(got {type(request).__name__}); known kinds: {sorted(_KINDS)}"
        )
    return _KINDS[kind]


def submit(
    request: RequestBase,
    *,
    store: Any = None,
    shard: "Shard | tuple[int, int] | None" = None,
    resume: bool = False,
    backend: "str | None" = None,
    jobs: int = 1,
    cache: "ArtifactCache | None" = None,
    on_instance: "Callable[[InstanceReport], None] | None" = None,
) -> SubmitResult:
    """Execute any request kind through its executor; block until done.

    Parameters are the shared durable-execution surface (identical
    meaning to :func:`~repro.engine.execute_plan` /
    :func:`~repro.frontier.execute_frontier` /
    :func:`~repro.ensemble.execute_ensemble`):

    store / shard / resume:
        Checkpoint into a :class:`~repro.store.RunStore`, restrict to one
        round-robin :class:`Shard`, replay already-ledgered chunks.
    backend:
        Kernel backend name (``None`` → request field → ``REPRO_BACKEND``
        env → numpy default).
    jobs:
        Worker processes for chunk fan-out; ``<= 1`` runs inline.
    cache / on_instance:
        Serial-path artifact cache injection and per-instance progress
        hook, as on the executors.

    Returns :class:`BatchResult` for a :class:`PlanRequest`,
    :class:`FrontierBatch` for a :class:`FrontierRequest`,
    :class:`EnsembleBatch` for an :class:`EnsembleRequest`.  Raises
    :class:`~repro.errors.PlanCancelled` if the store carries the plan's
    cancellation tombstone (clear it with
    :meth:`~repro.store.RunStore.clear_cancel` and resubmit with
    ``resume=True`` to continue).
    """
    return _executor.execute(
        _kind(request),
        request,
        jobs=jobs,
        cache=cache,
        on_instance=on_instance,
        store=store,
        shard=shard,
        resume=resume,
        backend=backend,
    )


def assemble(
    request: RequestBase,
    store: Any,
    *,
    allow_partial: bool = False,
) -> SubmitResult:
    """Rebuild the full result of ``request`` purely from ledger rows.

    The read-side twin of :func:`submit`: loads the kind's ledgered rows
    and reassembles them through the kind's ``build`` function.  No kernel
    work runs; with ``allow_partial=False`` every plan slot must be
    ledgered (across any shard files in the run directory).
    """
    kind = _kind(request)
    return _executor.assemble(
        kind, request, store.rows_for(request), allow_partial=allow_partial
    )


def assemble_rows(
    request: RequestBase,
    rows: dict[int, Any],
    *,
    allow_partial: bool = False,
) -> SubmitResult:
    """Like :func:`assemble`, from already-loaded ledger rows.

    For callers that gathered the rows themselves — e.g. ``repro merge``
    after :func:`~repro.store.merge_stores` pooled shard ledgers from
    several run directories.
    """
    return _executor.assemble(
        _kind(request), request, rows, allow_partial=allow_partial
    )
