"""Durable, shardable execution of :class:`~repro.ensemble.spec.EnsembleRequest`.

The shared executor (:func:`repro.engine.executor.execute`) does the
chunking, process-pool fan-out, checkpointing, resume, sharding and
reassembly.  What is the ensemble's own is its slot layout and unit of
work:

* **curve mode** — one slot per ``(instance, trial chunk)``
  (``slot = instance_slot · n_chunks + chunk_index``), so a kill lands
  between trial chunks and a resume replays completed chunks with zero
  kernel re-execution.  A slot's unit of work measures *every* grid cell
  over its chunk of trials — one coverage launch per mask and cell.
* **threshold mode** — one slot per instance; a slot solves the
  probabilistic φ-frontier at every requested ``k``
  (:func:`repro.ensemble.solver.solve_instance_ensemble`).

Trial randomness is keyed by ``(plan fingerprint, instance slot, trial
index)``, so serial, parallel, sharded-and-merged and resumed runs are
all bit-identical — the same guarantee the deterministic kinds make,
extended to Monte-Carlo draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.symmetric import orient_for_mode
from repro.engine.cache import ArtifactCache, CacheStats
from repro.engine.executor import (
    InstanceReport,
    Kind,
    _ledger_row,
    _timed,
    execute,
    instance_artifacts,
    instance_slots,
)
from repro.engine._spec import Shard
from repro.ensemble.solver import (
    KEnsembleFrontier,
    solve_instance_ensemble,
    wilson_interval,
)
from repro.ensemble.spec import EnsembleRequest
from repro.ensemble.trials import measure_trials
from repro.kernels.backend import use_backend

__all__ = [
    "EnsembleOutcome",
    "EnsembleBatch",
    "execute_ensemble",
]


@dataclass(frozen=True)
class EnsembleOutcome:
    """One ledgered slot's results.

    ``results`` holds one dict per grid cell (curve mode — the slot is one
    trial chunk) or one :meth:`KEnsembleFrontier.as_dict` per ``k``
    (threshold mode — the slot is one whole instance).
    """

    slot: int
    scenario_index: int
    instance_index: int
    results: list[dict[str, Any]]


def _ensemble_slots(request: EnsembleRequest) -> list:
    if request.objective == "threshold":
        return instance_slots(request)
    n_chunks = request.n_chunks
    return [
        (islot * n_chunks + c, si, ii, coords)
        for islot, (si, ii, coords) in enumerate(request.instances())
        for c in range(n_chunks)
    ]


def _ensemble_chunk(
    tasks: list, request: EnsembleRequest, backend_name: str, cache: ArtifactCache
) -> Iterator[tuple[int, Any]]:
    """The ensemble's unit of work, one row per slot as it completes.

    The orientation memo is chunk-scoped: consecutive slots of the same
    instance (its trial chunks are adjacent in slot space) reuse the
    deterministic orientation instead of re-running the planner.
    """
    key = request.fingerprint()
    orient_memo: dict = {}
    with use_backend(backend_name):
        for task in tasks:
            (results, facts), dt, delta = _timed(
                cache, _run_slot, task, request, key, cache, orient_memo
            )
            yield _ledger_row(request, task, backend_name, results, facts, dt, delta)


def _run_slot(task, request: EnsembleRequest, key: str, cache, orient_memo: dict):
    """``(results, facts)`` of one slot: per-k frontier dicts (threshold)
    or per-cell trial tallies over the slot's trial chunk (curve)."""
    slot, _si, _ii, coords = task
    if request.objective == "threshold":
        frontiers, facts = solve_instance_ensemble(
            coords, request, key, slot, cache=cache
        )
        return [f.as_dict() for f in frontiers], facts
    instance_slot, chunk_index = divmod(slot, request.n_chunks)
    ps, tree, tables, facts = instance_artifacts(cache, coords)
    trial_indices = request.chunk_trials(chunk_index)
    results = []
    for ci, cell in enumerate(request.grid):
        memo_key = (instance_slot, ci)
        result = orient_memo.get(memo_key)
        if result is None:
            result = orient_for_mode(
                ps, cell.k, cell.phi, mode=request.mode, tree=tree
            )
            orient_memo[memo_key] = result
        m = measure_trials(
            ps, tables, result, request.perturbation, key, instance_slot,
            trial_indices, cache=cache, want_connectivity=True,
            want_critical=request.compute_critical, mode=request.mode,
        )
        results.append(
            {
                "successes": int(m.connected.sum()),
                "trials": len(trial_indices),
                "critical": (
                    None
                    if m.critical is None
                    else [float(x) for x in m.critical]
                ),
            }
        )
    return results, facts


def _chunk_quantile(values: list[float], q: float) -> float:
    """Deterministic order statistic: smallest value with CDF ≥ q."""
    ordered = sorted(values)
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return float(ordered[idx])


@dataclass
class EnsembleBatch:
    """All ledgered slots of an ensemble request, in deterministic order."""

    request: EnsembleRequest
    outcomes: list[EnsembleOutcome]
    instance_reports: list[InstanceReport]
    cache_stats: CacheStats
    jobs_used: int
    elapsed: float
    fallback_reason: str | None = None
    replayed_instances: int = 0
    shard: Shard = field(default_factory=Shard)
    backend: str | None = None

    def frontiers(self) -> "list[tuple[EnsembleOutcome, list[KEnsembleFrontier]]]":
        """Threshold-mode outcomes with their parsed per-k frontiers."""
        return [
            (o, [KEnsembleFrontier.from_dict(d) for d in o.results])
            for o in self.outcomes
        ]

    def trial_totals(self) -> tuple[int, int]:
        """``(trials evaluated, trials saved by early stopping)``."""
        used = saved = 0
        if self.request.objective == "curve":
            for o in self.outcomes:
                used += sum(r["trials"] for r in o.results)
        else:
            for o in self.outcomes:
                for d in o.results:
                    used += int(d["trials_used"])
                    saved += int(d["trials_saved"])
        return used, saved

    def aggregate_rows(self) -> list[dict[str, Any]]:
        """Curve mode: one row per (scenario, grid cell) — the connection
        probability with its Wilson interval and the critical-range
        quantile pooled over every instance and trial chunk present.
        Threshold mode: one row per (scenario, k) — where φ* landed, with
        trial and audit accounting."""
        if self.request.objective == "curve":
            return self._aggregate_curve()
        return self._aggregate_threshold()

    def _aggregate_curve(self) -> list[dict[str, Any]]:
        request = self.request
        buckets: dict[tuple[int, int], dict[str, Any]] = {}
        for o in self.outcomes:  # plan order: pooled lists are deterministic
            islot = o.slot // request.n_chunks
            for ci, res in enumerate(o.results):
                b = buckets.setdefault(
                    (o.scenario_index, ci),
                    {"successes": 0, "trials": 0, "critical": [], "slots": set()},
                )
                b["successes"] += int(res["successes"])
                b["trials"] += int(res["trials"])
                if res["critical"] is not None:
                    b["critical"].extend(float(x) for x in res["critical"])
                b["slots"].add(islot)
        rows: list[dict[str, Any]] = []
        for si, ci in sorted(buckets):
            scenario = request.scenarios[si]
            cell = request.grid[ci]
            b = buckets[(si, ci)]
            lo, hi = wilson_interval(
                b["successes"], b["trials"], request.confidence
            )
            row: dict[str, Any] = {
                "workload": scenario.workload,
                "n": scenario.n,
                "k": cell.k,
                "phi": cell.phi,
                "runs": len(b["slots"]),
                "trials": b["trials"],
                "p_connected": (
                    b["successes"] / b["trials"] if b["trials"] else None
                ),
                "p_lo": lo,
                "p_hi": hi,
            }
            if b["critical"]:
                row[f"critical_q{request.quantile:g}"] = _chunk_quantile(
                    b["critical"], request.quantile
                )
            rows.append(row)
        return rows

    def _aggregate_threshold(self) -> list[dict[str, Any]]:
        request = self.request
        buckets: dict[tuple[int, int], list[KEnsembleFrontier]] = {}
        for o, frontiers in self.frontiers():
            for ki, f in enumerate(frontiers):
                buckets.setdefault((o.scenario_index, ki), []).append(f)
        rows: list[dict[str, Any]] = []
        for si, ki in sorted(buckets):
            scenario = request.scenarios[si]
            fs = buckets[(si, ki)]
            stars = [f.phi_star for f in fs if f.phi_star is not None]
            row: dict[str, Any] = {
                "workload": scenario.workload,
                "n": scenario.n,
                "k": request.ks[ki],
                "predicate": request.predicate,
                "bound": request.threshold_probability,
                "runs": len(fs),
                "found": len(stars),
                "phi_star_mean": sum(stars) / len(stars) if stars else None,
                "phi_star_min": min(stars) if stars else None,
                "phi_star_max": max(stars) if stars else None,
                "probes": sum(f.probe_count for f in fs),
                "evaluated": sum(f.evaluated_count for f in fs),
                "reused": sum(f.reused_count for f in fs),
                "trials": sum(f.trials_used for f in fs),
                "trials_saved": sum(f.trials_saved for f in fs),
                "audit_violations": sum(len(f.audit) for f in fs),
            }
            if request.predicate == "quantile":
                row["metric"] = request.metric
                row["target"] = request.target
            rows.append(row)
        return rows

    def summary(self) -> str:
        mode = f"{self.jobs_used} workers" if self.jobs_used > 1 else "serial"
        used, saved = self.trial_totals()
        if self.request.objective == "curve":
            head = (
                f"{len(self.outcomes)} trial chunks × "
                f"{len(self.request.grid)} cells: {used} trials "
                f"({self.request.perturbation.label()})"
            )
        else:
            head = (
                f"{len(self.outcomes)} instances × "
                f"k∈{list(self.request.ks)}: {used} trials "
                f"({saved} saved by early stopping)"
            )
        parts = [head]
        if not self.shard.is_whole:
            parts.append(f"shard {self.shard.label}")
        if self.replayed_instances:
            parts.append(f"{self.replayed_instances} slots from ledger")
        return f"{'; '.join(parts)} ({mode}, {self.elapsed:.2f}s)"


def _build_ensemble_batch(
    request: EnsembleRequest, rows: list, **facts
) -> EnsembleBatch:
    outcomes = [
        EnsembleOutcome(
            row.slot, row.scenario_index, row.instance_index, list(row.results)
        )
        for row in rows
    ]
    return EnsembleBatch(request=request, outcomes=outcomes, **facts)


ENSEMBLE = Kind(
    slots=_ensemble_slots,
    chunk=_ensemble_chunk,
    width=lambda request: (
        len(request.grid) if request.objective == "curve" else len(request.ks)
    ),
    build=_build_ensemble_batch,
)


def execute_ensemble(
    request: EnsembleRequest,
    *,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    on_instance: Callable[[InstanceReport], None] | None = None,
    store: Any = None,
    shard: "Shard | tuple[int, int] | None" = None,
    resume: bool = False,
    backend: str | None = None,
) -> EnsembleBatch:
    """Run every slot of ``request`` (curve chunks or threshold instances).

    The parameters mirror :func:`repro.engine.execute_plan` /
    :func:`repro.frontier.execute_frontier`: ``jobs`` for process-pool
    fan-out (serial fallback recorded in ``fallback_reason``),
    ``store``/``shard``/``resume`` for durable, partitioned, replayable
    execution, ``backend`` for kernel selection.  Results reassemble in
    slot order, so serial, parallel, sharded-and-merged and resumed runs
    are all bit-identical — including every Monte-Carlo draw.
    """
    return execute(
        ENSEMBLE, request,
        jobs=jobs, cache=cache, on_instance=on_instance,
        store=store, shard=shard, resume=resume, backend=backend,
    )
