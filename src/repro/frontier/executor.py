"""Durable, shardable execution of :class:`~repro.engine._spec.FrontierRequest`.

The shared executor (:func:`repro.engine.executor.execute`) does the
chunking, process-pool fan-out, checkpointing, resume, sharding and
reassembly.  What is the frontier's own: one slot per instance, whose unit
of work solves the instance's frontier at every requested ``k`` (sharing
its artifacts through the worker's
:class:`~repro.engine.cache.ArtifactCache`) and ledgers one
:meth:`~repro.frontier._solver.KFrontier.as_dict` payload per ``k``; and
:class:`FrontierBatch`, the result built from those rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.engine.cache import ArtifactCache, CacheStats
from repro.engine.executor import (
    InstanceReport,
    Kind,
    _ledger_row,
    _timed,
    execute,
    instance_slots,
)
from repro.engine._spec import FrontierRequest, Shard
from repro.frontier._solver import KFrontier, solve_instance_frontier
from repro.kernels.backend import use_backend

__all__ = [
    "InstanceOutcome",
    "FrontierBatch",
    "execute_frontier",
]


@dataclass(frozen=True)
class InstanceOutcome:
    """One instance's solved frontiers (one :class:`KFrontier` per k)."""

    scenario_index: int
    instance_index: int
    frontiers: list[KFrontier]


def _frontier_chunk(
    tasks: list, request: FrontierRequest, backend_name: str, cache: ArtifactCache
) -> Iterator[tuple[int, Any]]:
    """The frontier's unit of work, one row per instance as it completes.

    Solving stays per instance (the adaptive bisection is sequential per
    ``(instance, k)``), so each row is yielded, and checkpointed, as soon
    as its instance is solved.
    """
    with use_backend(backend_name):
        for task in tasks:
            (frontiers, facts), dt, delta = _timed(
                cache, solve_instance_frontier, task[3], request, cache=cache
            )
            yield _ledger_row(
                request, task, backend_name, [f.as_dict() for f in frontiers],
                facts, dt, delta,
            )


@dataclass
class FrontierBatch:
    """All solved frontiers of a request, in deterministic plan order."""

    request: FrontierRequest
    outcomes: list[InstanceOutcome]
    instance_reports: list[InstanceReport]
    cache_stats: CacheStats
    jobs_used: int
    elapsed: float
    fallback_reason: str | None = None
    replayed_instances: int = 0
    shard: Shard = field(default_factory=Shard)
    backend: str | None = None

    def probe_totals(self) -> tuple[int, int]:
        """``(total probes, reused probes)`` over every (instance, k)."""
        total = reused = 0
        for outcome in self.outcomes:
            for f in outcome.frontiers:
                total += f.probe_count
                reused += f.reused_count
        return total, reused

    def aggregate_rows(self) -> list[dict[str, Any]]:
        """One row per (scenario, k) over every instance present.

        Threshold mode reports where the φ* landed (over the instances whose
        frontier was located or already met at ``phi_lo``); staircase mode
        reports plateau counts.  Scenarios with no instances in this shard
        are skipped.  Probe counts separate warm-start hits (``reused``)
        from planner+kernel evaluations.
        """
        buckets: dict[tuple[int, int], list[KFrontier]] = {}
        for outcome in self.outcomes:
            for ki, f in enumerate(outcome.frontiers):
                buckets.setdefault((outcome.scenario_index, ki), []).append(f)
        rows: list[dict[str, Any]] = []
        for si, ki in sorted(buckets):
            scenario = self.request.scenarios[si]
            fs = buckets[(si, ki)]
            row: dict[str, Any] = {
                "workload": scenario.workload,
                "n": scenario.n,
                "k": self.request.ks[ki],
                "metric": self.request.metric,
                "runs": len(fs),
            }
            if self.request.search_mode == "threshold":
                stars = [f.phi_star for f in fs if f.phi_star is not None]
                row["target"] = self.request.target
                row["found"] = len(stars)
                row["phi_star_mean"] = (
                    sum(stars) / len(stars) if stars else None
                )
                row["phi_star_min"] = min(stars) if stars else None
                row["phi_star_max"] = max(stars) if stars else None
            else:
                levels = [len(f.steps) for f in fs]
                row["levels_mean"] = sum(levels) / len(levels)
                row["transitions_mean"] = sum(x - 1 for x in levels) / len(levels)
            row["probes"] = sum(f.probe_count for f in fs)
            row["evaluated"] = sum(f.evaluated_count for f in fs)
            row["reused"] = sum(f.reused_count for f in fs)
            rows.append(row)
        return rows

    def summary(self) -> str:
        mode = f"{self.jobs_used} workers" if self.jobs_used > 1 else "serial"
        total, reused = self.probe_totals()
        parts = [
            f"{len(self.outcomes)} instances × k∈{list(self.request.ks)}: "
            f"{total} probes ({reused} warm-start reuses, "
            f"{total - reused} evaluated)"
        ]
        if not self.shard.is_whole:
            parts.append(f"shard {self.shard.label}")
        if self.replayed_instances:
            parts.append(f"{self.replayed_instances} instances from ledger")
        return f"{'; '.join(parts)} ({mode}, {self.elapsed:.2f}s)"


def _build_frontier_batch(
    request: FrontierRequest, rows: list, **facts
) -> FrontierBatch:
    outcomes = [
        InstanceOutcome(
            row.scenario_index,
            row.instance_index,
            [KFrontier.from_dict(d) for d in row.frontiers],
        )
        for row in rows
    ]
    return FrontierBatch(request=request, outcomes=outcomes, **facts)


FRONTIER = Kind(
    slots=instance_slots,
    chunk=_frontier_chunk,
    width=lambda request: len(request.ks),
    build=_build_frontier_batch,
)


def execute_frontier(
    request: FrontierRequest,
    *,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    on_instance: Callable[[InstanceReport], None] | None = None,
    store: Any = None,
    shard: "Shard | tuple[int, int] | None" = None,
    resume: bool = False,
    backend: str | None = None,
) -> FrontierBatch:
    """Solve every (instance × k) frontier of ``request``.

    The parameters mirror :func:`repro.engine.execute_plan`: ``jobs`` for
    process-pool fan-out (serial fallback recorded in ``fallback_reason``),
    ``store``/``shard``/``resume`` for durable, partitioned, replayable
    execution, ``backend`` to pick the kernel backend (``None`` defers to
    ``request.backend``, then ``REPRO_BACKEND``, then numpy).  Results are
    reassembled in plan order, so serial, parallel, sharded-and-merged and
    resumed runs are all bit-identical.
    """
    return execute(
        FRONTIER, request,
        jobs=jobs, cache=cache, on_instance=on_instance,
        store=store, shard=shard, resume=resume, backend=backend,
    )
