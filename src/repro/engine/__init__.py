"""Batch planning engine: request specs, artifact caching, durable execution.

* :mod:`repro.engine._spec` — declarative descriptions of a workload
  ensemble (:class:`Scenario`), of the ``(k, φ)`` grid to evaluate over it
  (:class:`PlanRequest`) and of the other request kinds' shared base
  (:class:`RequestBase`); public through :mod:`repro.api`;
* :mod:`repro.engine.cache` — a content-addressed :class:`ArtifactCache`
  sharing point sets, polar tables and spanning trees across every grid
  cell of an instance;
* :mod:`repro.engine.executor` — the one durable executor every request
  kind runs on (chunked process-pool fan-out with a serial fallback,
  ledger checkpointing, resume, shards, deterministic result order) and
  the sweep kind, whose entry point is :func:`execute_plan`.

Experiment drivers (:mod:`repro.experiments`), the ``repro sweep`` CLI and
the benchmarks run sweeps through :func:`execute_plan`.
"""

from repro.engine.cache import ArtifactCache, CacheStats, content_hash
from repro.engine.executor import (
    BatchResult,
    InstanceReport,
    RunRecord,
    execute_plan,
    run_instance_grid,
)
from repro.engine._spec import (
    FrontierRequest,
    GridCell,
    PlanRequest,
    RequestBase,
    Scenario,
    Shard,
    request_from_wire,
)

__all__ = [
    "ArtifactCache",
    "BatchResult",
    "CacheStats",
    "FrontierRequest",
    "GridCell",
    "InstanceReport",
    "PlanRequest",
    "RequestBase",
    "RunRecord",
    "Scenario",
    "Shard",
    "content_hash",
    "execute_plan",
    "request_from_wire",
    "run_instance_grid",
]
