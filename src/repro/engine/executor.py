"""Parallel batch executor: the one way to run a :class:`PlanRequest`.

Work is chunked by *instance* (each unit of work plans one instance at every
grid cell, reusing the instance's spanning tree through the
:class:`~repro.engine.cache.ArtifactCache`, and measuring each φ-free
dispatch regime once), dispatched to a ``ProcessPoolExecutor`` when
``jobs > 1`` and run inline otherwise.  Results
are reassembled in plan order, so serial and parallel execution return
bit-identical :class:`~repro.analysis.metrics.OrientationMetrics`.

With a :class:`~repro.store.RunStore` the executor becomes durable: every
completed instance chunk is checkpointed into the store's append-only
ledger, ``resume=True`` replays ledgered chunks instead of re-executing
them, and ``shard=(i, m)`` restricts execution to one of ``m`` disjoint,
deterministic partitions of the plan's instances — the merged shards are
bit-identical to an unsharded run.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis.metrics import (
    OrientationMetrics,
    batched_orientation_metrics,
    orientation_metrics,
)
from repro.core.planner import phi_free_regime, recorded_budget
from repro.core.symmetric import orient_for_mode
from repro.engine.cache import ArtifactCache, CacheStats
from repro.engine._spec import GridCell, PlanRequest, Scenario, Shard
from repro.experiments.harness import aggregate_rows
from repro.geometry.points import max_pairwise_distance
from repro.kernels.backend import active_backend, resolve_backend, use_backend
from repro.kernels.batch import pack_instances
from repro.kernels.sparse import default_instance_cutoff

__all__ = [
    "RunRecord",
    "InstanceReport",
    "BatchResult",
    "instance_artifacts",
    "run_instance_grid",
    "execute_plan",
]


@dataclass(frozen=True)
class RunRecord:
    """One planner run: (scenario, instance) evaluated at one grid cell."""

    scenario: Scenario
    instance_index: int
    cell: GridCell
    metrics: OrientationMetrics
    scenario_index: int = -1


@dataclass(frozen=True)
class InstanceReport:
    """Per-instance facts shared by every cell (computed once via the cache)."""

    scenario_index: int
    instance_index: int
    n: int
    lmax: float
    mst_weight: float
    diameter: float
    elapsed: float


def instance_artifacts(cache: ArtifactCache, coords: np.ndarray):
    """``(pointset, tree, tables, facts)`` for one instance, via the cache.

    The ``facts`` dict is the ledgered schema behind
    :class:`InstanceReport` (``n``/``lmax``/``mst_weight``/``diameter``) —
    shared by the sweep and frontier executors so their replay paths
    cannot drift apart.  Under a sparse-routing backend ``tables`` is the
    cached radius-bounded :class:`~repro.kernels.sparse.SparsePolarTables`
    artifact at the instance's default cutoff instead of the dense
    ``(n, n)`` tables; the facts keep the same values (``diameter`` via
    :func:`~repro.geometry.points.max_pairwise_distance`).
    """
    ps = cache.pointset(coords)
    tree = cache.tree(ps)
    if active_backend().use_sparse(len(ps)):
        tables = cache.sparse_polar(ps, default_instance_cutoff(tree.lmax))
        diameter = max_pairwise_distance(ps.coords) if len(ps) > 1 else 0.0
    else:
        tables = cache.polar(ps)
        diameter = float(tables.dist.max()) if tables.dist.size else 0.0
    facts = {
        "n": float(len(ps)),
        "lmax": tree.lmax,
        "mst_weight": tree.total_weight,
        "diameter": diameter,
    }
    return ps, tree, tables, facts


def run_instance_grid(
    coords: np.ndarray,
    grid: Sequence[GridCell],
    *,
    compute_critical: bool = True,
    cache: ArtifactCache | None = None,
    mode: str = "strong",
) -> tuple[list[OrientationMetrics], dict[str, float]]:
    """Plan one instance at every grid cell, building its artifacts once.

    Returns the per-cell metrics (grid order) and the instance-level facts
    derived from the cached artifacts (``lmax``, MST weight, diameter).
    ``mode`` selects the connectivity objective: the Table-1 dispatcher for
    ``"strong"``, the bounded-angle MST construction for ``"symmetric"``
    (see :func:`repro.core.symmetric.orient_for_mode`) — measured under the
    same mode.  A cell in the φ-free regime of an earlier cell reuses that
    cell's metrics (see :func:`_relabel`).
    """
    cache = cache if cache is not None else ArtifactCache()
    ps, tree, tables, facts = instance_artifacts(cache, coords)
    metrics: list[OrientationMetrics] = []
    measured: dict[tuple[str, int], OrientationMetrics] = {}
    for cell in grid:
        _, regime = phi_free_regime(cell.k, cell.phi, mode)
        if regime in measured:
            metrics.append(_relabel(measured[regime], cell))
            continue
        result = orient_for_mode(ps, cell.k, cell.phi, mode=mode, tree=tree)
        m = orientation_metrics(
            result, compute_critical=compute_critical, tables=tables, mode=mode,
        )
        if regime is not None:
            measured[regime] = m
        metrics.append(m)
    return metrics, facts


def _relabel(m: OrientationMetrics, cell: GridCell) -> OrientationMetrics:
    """``m``, measured in ``cell``'s φ-free regime, as a fresh evaluation of
    ``cell`` reports it: the orientation is the same, so only the recorded
    k budget and φ change."""
    k, phi = recorded_budget(cell.k, cell.phi)
    return replace(m, k=k, phi=phi)


# -- parallel plumbing ------------------------------------------------------------

#: One unit of work shipped to a worker: (slot, scenario_index, instance_index,
#: coords).  ``slot`` is the task's position in plan order.
_Task = tuple[int, int, int, np.ndarray]

#: One completed unit of work: (per-cell metrics, instance facts, elapsed
#: seconds, per-instance CacheStats delta, backend name).  The delta is what
#: makes cache accounting independent of chunking/sharding: totals are sums
#: of deltas.  The backend name records which kernel backend produced the
#: metrics (provenance for the ledger row).
_Payload = tuple[
    list[OrientationMetrics], dict[str, float], float, dict[str, int], str
]

#: Cap on ``m * n_max**2`` elements per packed batch: a sub-batch of this
#: size costs ~64 MB in float64 polar tables, so huge-n chunks degrade to
#: smaller launches instead of exhausting memory.  Sub-batch boundaries are
#: a pure function of the chunk's contents, so metrics stay bit-identical
#: and counter totals stay reproducible for a given chunking.
_BATCH_MAX_ELEMS = 4_000_000


def _run_chunk(
    chunk: list[_Task],
    grid: tuple[GridCell, ...],
    compute_critical: bool,
    backend_name: str,
    batched: bool,
    cache: ArtifactCache | None = None,
    mode: str = "strong",
) -> list[tuple[int, _Payload]]:
    """Worker entry point: process a chunk of instances with a local cache.

    All kernel work (per-instance or batched) runs under ``backend_name``,
    planning and measuring under connectivity ``mode``.
    """
    cache = cache if cache is not None else ArtifactCache()
    with use_backend(backend_name) as backend:
        if batched:
            # Sparse-routed instances cannot take the packed dense path
            # (it materializes (m, n_max, n_max) tables); split the chunk
            # and measure them per-instance, everything else packed.
            dense = [t for t in chunk if not backend.use_sparse(t[3].shape[0])]
            sparse = [t for t in chunk if backend.use_sparse(t[3].shape[0])]
            out: list[tuple[int, _Payload]] = []
            if dense:
                out.extend(
                    _run_chunk_batched(
                        dense, grid, compute_critical, cache, backend_name, mode
                    )
                )
            out.extend(
                (
                    slot,
                    _run_task(
                        coords, grid, compute_critical, cache, backend_name, mode
                    ),
                )
                for slot, _si, _ii, coords in sparse
            )
            return out
        return [
            (
                slot,
                _run_task(coords, grid, compute_critical, cache, backend_name, mode),
            )
            for slot, _si, _ii, coords in chunk
        ]


def _run_task(
    coords, grid, compute_critical, cache, backend_name, mode="strong"
) -> _Payload:
    """Run one instance, measuring wall time and its cache-stats delta."""
    before = cache.stats.as_dict()
    t0 = time.perf_counter()
    metrics, facts = run_instance_grid(
        coords, grid, compute_critical=compute_critical, cache=cache, mode=mode
    )
    dt = time.perf_counter() - t0
    after = cache.stats.as_dict()
    delta = {k: after[k] - before[k] for k in after}
    return metrics, facts, dt, delta, backend_name


def _run_chunk_batched(
    chunk: list[_Task],
    grid: tuple[GridCell, ...],
    compute_critical: bool,
    cache: ArtifactCache,
    backend_name: str,
    mode: str = "strong",
) -> list[tuple[int, _Payload]]:
    """Process a chunk through the packed multi-instance kernels.

    Per-instance artifacts (pointset, spanning tree) are still built one at
    a time inside per-instance cache-stat delta windows — so ledgered cache
    accounting is identical to the per-instance path — but measurement is
    one packed kernel launch per grid cell for the whole chunk instead of a
    Python-level launch per instance.  Packed polar tables are chunk-scoped
    (see :meth:`ArtifactCache.packed_polar`) and kept out of the deltas.

    Metrics are bit-identical to the per-instance path.  Elapsed time is
    each instance's own artifact and construction time plus an even share
    of the fused remainder (packing, packed kernels, facts), so the
    chunk's instances still sum to its wall time.
    """
    t0 = time.perf_counter()
    own = [0.0] * len(chunk)  # per-instance artifact + construction seconds
    entries = []  # (slot, pointset, tree, cache-stats delta)
    for j, (slot, _si, _ii, coords) in enumerate(chunk):
        t = time.perf_counter()
        before = cache.stats.as_dict()
        ps = cache.pointset(coords)
        tree = cache.tree(ps)
        after = cache.stats.as_dict()
        entries.append(
            (slot, ps, tree, {k: after[k] - before[k] for k in after})
        )
        own[j] += time.perf_counter() - t

    n_max = max(len(ps) for _, ps, _, _ in entries)
    per = max(1, _BATCH_MAX_ELEMS // max(n_max * n_max, 1))
    payload_parts: list[tuple[int, list[OrientationMetrics], dict, dict]] = []
    for base in range(0, len(entries), per):
        sub = entries[base : base + per]
        batch = pack_instances([ps.coords for _, ps, _, _ in sub])
        tables = cache.packed_polar(batch)
        cell_metrics: list[list[OrientationMetrics]] = [[] for _ in sub]
        measured: dict[tuple[str, int], int] = {}  # φ-free regime -> cell index
        for ci, cell in enumerate(grid):
            _, regime = phi_free_regime(cell.k, cell.phi, mode)
            if regime in measured:
                for ms in cell_metrics:
                    ms.append(_relabel(ms[measured[regime]], cell))
                continue
            if regime is not None:
                measured[regime] = ci
            results = []
            for j, (_, ps, tree, _) in enumerate(sub):
                t = time.perf_counter()
                results.append(orient_for_mode(ps, cell.k, cell.phi, mode=mode, tree=tree))
                own[base + j] += time.perf_counter() - t
            for j, m in enumerate(
                batched_orientation_metrics(
                    results, batch, tables,
                    compute_critical=compute_critical, mode=mode,
                )
            ):
                cell_metrics[j].append(m)
        for j, (slot, ps, tree, delta) in enumerate(sub):
            n = len(ps)
            facts = {
                "n": float(n),
                "lmax": tree.lmax,
                "mst_weight": tree.total_weight,
                "diameter": float(tables.dist[j, :n, :n].max()) if n else 0.0,
            }
            payload_parts.append((slot, cell_metrics[j], facts, delta))

    shared = (time.perf_counter() - t0 - sum(own)) / max(len(chunk), 1)
    return [
        (slot, (metrics, facts, own[j] + shared, delta, backend_name))
        for j, (slot, metrics, facts, delta) in enumerate(payload_parts)
    ]


@dataclass
class BatchResult:
    """All runs of a plan, in deterministic plan order, plus execution facts.

    For sharded runs the records cover exactly the shard's instances (still
    whole instance × grid blocks, in plan order); ``replayed_instances``
    counts chunks that came from a store ledger rather than execution.
    """

    request: PlanRequest
    records: list[RunRecord]
    instance_reports: list[InstanceReport]
    cache_stats: CacheStats
    jobs_used: int
    elapsed: float
    fallback_reason: str | None = None
    replayed_instances: int = 0
    shard: Shard = field(default_factory=Shard)
    backend: str | None = None
    _by_cell: list[list[OrientationMetrics]] = field(default=None, repr=False)  # type: ignore[assignment]

    def metrics_by_cell(self) -> list[list[OrientationMetrics]]:
        """Metrics grouped per grid position (plan order within each group).

        Records always arrive in whole per-instance blocks of
        ``len(request.grid)`` cells, so the grouping is valid for sharded
        and ledger-assembled results too.
        """
        if self._by_cell is None:
            ncells = len(self.request.grid)
            groups: list[list[OrientationMetrics]] = [[] for _ in range(ncells)]
            for i, rec in enumerate(self.records):
                groups[i % ncells].append(rec.metrics)
            self._by_cell = groups
        return self._by_cell

    def aggregate_by_cell(self) -> list[dict[str, Any]]:
        """One aggregate row per grid cell, over every instance present.

        Empty for a batch with no records (e.g. a shard that owns no
        instances of a small plan).
        """
        return [aggregate_rows(ms) for ms in self.metrics_by_cell() if ms]

    def aggregate_by_scenario_cell(self) -> list[dict[str, Any]]:
        """One aggregate row per (scenario, cell), labelled with the scenario.

        Scenarios with no instances present (possible in a sharded partial
        result) are skipped rather than reported as empty rows.
        """
        ncells = len(self.request.grid)
        buckets: dict[tuple[int, int], list[OrientationMetrics]] = {}
        for base in range(0, len(self.records), ncells):
            block = self.records[base : base + ncells]
            si = block[0].scenario_index
            for ci, rec in enumerate(block):
                buckets.setdefault((si, ci), []).append(rec.metrics)
        rows = []
        for si in sorted({key[0] for key in buckets}):
            scenario = self.request.scenarios[si]
            for ci in range(ncells):
                ms = buckets.get((si, ci))
                if not ms:
                    continue
                row = aggregate_rows(ms)
                row["workload"] = scenario.workload
                row["n"] = scenario.n
                rows.append(row)
        return rows

    def cache_summary(self) -> str:
        """Deterministic cache facts (identical for serial and parallel runs)."""
        s = self.cache_stats
        return (
            f"{len(self.records)} runs over {len(self.instance_reports)} instances; "
            f"{s.tree_builds} EMST builds shared across {len(self.request.grid)} "
            f"grid cells ({s.hits} cache hits)"
        )

    def summary(self) -> str:
        mode = f"{self.jobs_used} workers" if self.jobs_used > 1 else "serial"
        parts = [self.cache_summary()]
        if not self.shard.is_whole:
            parts.append(f"shard {self.shard.label}")
        if self.replayed_instances:
            parts.append(f"{self.replayed_instances} instances from ledger")
        return f"{'; '.join(parts)} ({mode}, {self.elapsed:.2f}s)"


def _chunk_tasks(tasks: list[_Task], jobs: int) -> list[list[_Task]]:
    """Split tasks into contiguous chunks, ~4 per worker for load balance."""
    target = max(1, -(-len(tasks) // (jobs * 4)))
    return [tasks[i : i + target] for i in range(0, len(tasks), target)]


def _tombstone_check(store: Any, request: Any) -> "Callable[[], bool] | None":
    """``should_stop`` hook polling the plan's cancel marker in ``store``."""
    if store is None or not hasattr(store, "is_cancelled"):
        return None
    key = request.fingerprint()
    return lambda: store.is_cancelled(key)


def _execute_durable(
    request: Any,
    all_tasks: list[_Task],
    shard: Shard,
    *,
    jobs: int,
    cache: "ArtifactCache | None",
    on_instance: "Callable[[InstanceReport], None] | None",
    store: Any,
    resume: bool,
    run_chunk_serial: Callable[[list[_Task], ArtifactCache], Any],
    submit_chunk: Callable[[Any, list[_Task]], Any],
    rows_for_resume: Callable[[Any, str], dict[int, Any]],
    payload_of_row: Callable[[int, Any], Any],
    row_of_payload: Callable[[int, int, int, Any], Any],
    should_stop: "Callable[[], bool] | None" = None,
) -> tuple[dict[int, Any], int, int, "str | None", Any]:
    """The durable-execution skeleton shared by the sweep and frontier
    executors: resume-guarded store handling, per-completion checkpointing,
    process-pool fan-out with serial fallback, payloads keyed by plan slot.

    Payloads are ``(result, facts, elapsed, cache_delta, backend)`` tuples;
    only the ``result`` element differs between executors, which is what the
    ``run_chunk_serial`` / ``submit_chunk`` / ``payload_of_row`` /
    ``row_of_payload`` hooks parameterize (``submit_chunk`` exists because
    pool workers must be module-level picklable functions;
    ``run_chunk_serial`` yields completed ``(slot, payload)`` pairs for one
    chunk inline, so a batched executor can fuse kernel launches across the
    chunk while a per-instance one checkpoints as each instance lands).
    ``rows_for_resume`` loads the plan's ledgered rows; ``payload_of_row``
    validates one against the request shape (raising ``StoreError``) and
    converts it.

    ``should_stop`` is the cancellation hook: polled before execution
    starts and between completed chunks.  When it reports ``True`` the
    ledger is closed (completed chunks stay checkpointed, no ``shard_done``
    summary is written) and :class:`~repro.errors.PlanCancelled` is raised,
    so a later resume continues exactly where the cancel landed.

    Returns ``(payloads, replayed, jobs_used, fallback_reason, ledger)``;
    the caller reassembles its result type in plan order and must
    ``finish``/``close`` the ledger (if any) once its stats are summed —
    any change to this orchestration (fallback policy, refusal rules,
    checkpoint timing) applies to both executors by construction.
    """
    payloads: dict[int, Any] = {}
    ledger = None
    replayed = 0
    if store is not None:
        from repro.store.ledger import StoreError  # lazy: avoids cycle

        key = store.write_plan(request)
        if not resume and store.shard_rows(request, shard):
            raise StoreError(
                f"{store.ledger_path(key, shard)} already records completed "
                "instances for this plan; pass resume=True (or --resume) to "
                "continue it, or use a fresh run directory"
            )
        if resume:
            for slot, row in rows_for_resume(store, key).items():
                if not shard.owns(slot) or not 0 <= slot < len(all_tasks):
                    continue
                payloads[slot] = payload_of_row(slot, row)
            replayed = len(payloads)

    todo = [t for t in all_tasks if shard.owns(t[0]) and t[0] not in payloads]

    def stop_check() -> None:
        if should_stop is None or not should_stop():
            return
        from repro.errors import PlanCancelled

        if ledger is not None:
            ledger.close()  # checkpointed chunks survive; no shard_done
        raise PlanCancelled(
            f"plan execution cancelled (shard {shard.label}); completed "
            "chunks are ledgered — clear the cancel marker and resume to "
            "continue"
        )

    def checkpoint(slot: int, payload: Any) -> None:
        nonlocal ledger
        if store is None:
            return
        if ledger is None:
            ledger = store.open_shard(request, shard)
        _, si, ii, _ = all_tasks[slot]
        ledger.append(row_of_payload(slot, si, ii, payload))

    def complete(slot: int, payload: Any) -> None:
        payloads[slot] = payload
        checkpoint(slot, payload)
        if on_instance is not None:
            _, si, ii, _ = all_tasks[slot]
            on_instance(_report(si, ii, payload[1], payload[2]))

    stop_check()
    fallback_reason = None
    jobs_used = 1
    pool = None
    if jobs > 1 and len(todo) > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)))
        except (OSError, ValueError, PermissionError) as exc:
            fallback_reason = f"process pool unavailable ({exc}); ran serially"

    if pool is not None:
        chunks = _chunk_tasks(todo, min(jobs, len(todo)))
        try:
            futures = [submit_chunk(pool, chunk) for chunk in chunks]
            jobs_used = min(jobs, len(todo))
            for future in as_completed(futures):
                for slot, payload in future.result():
                    complete(slot, payload)
                stop_check()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    else:
        local_cache = cache if cache is not None else ArtifactCache()
        for serial_chunk in _chunk_tasks(todo, 1):
            for slot, payload in run_chunk_serial(serial_chunk, local_cache):
                complete(slot, payload)
            stop_check()
    return payloads, replayed, jobs_used, fallback_reason, ledger


def execute_plan(
    request: PlanRequest,
    *,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    on_instance: Callable[[InstanceReport], None] | None = None,
    store: Any = None,
    shard: "Shard | tuple[int, int] | None" = None,
    resume: bool = False,
    backend: str | None = None,
    batch_instances: bool = True,
) -> BatchResult:
    """Run every (instance × cell) of ``request`` and collect the metrics.

    Parameters
    ----------
    request:
        The batch description.
    jobs:
        Worker processes; ``<= 1`` runs inline.  Parallel execution falls
        back to serial (recording ``fallback_reason``) if a process pool
        cannot be created in the current environment.
    cache:
        Serial path only: an external :class:`ArtifactCache` to use/observe.
        Workers always build their own per-process caches; their stats are
        merged into the result.
    on_instance:
        Progress hook invoked with each :class:`InstanceReport` as it
        completes (arrival order; the result itself stays in plan order).
        Not invoked for instances replayed from a store ledger.
    store:
        A :class:`~repro.store.RunStore`.  Every completed instance chunk is
        appended to the plan's shard ledger as it finishes, so a killed run
        can be resumed without losing completed work.
    shard:
        A :class:`~repro.engine.spec.Shard` (or ``(i, m)`` tuple): execute
        only the instances with plan slot ``slot % m == i``.  The returned
        records cover exactly those instances; the union over all shards is
        bit-identical to an unsharded run.
    resume:
        With a ``store``: replay already-ledgered instance chunks (from any
        shard's ledger in the run directory) instead of re-executing them.
        Without ``resume``, a ledger that already has rows for this plan's
        shard is an error — appending twice would corrupt the run.  With a
        ``store`` the plan's cancellation tombstone (see
        :meth:`~repro.store.RunStore.cancel`) is polled between chunks;
        a set tombstone stops execution with
        :class:`~repro.errors.PlanCancelled`, keeping completed chunks
        ledgered for a later resume.
    backend:
        Kernel backend name for all measurement work.  ``None`` defers to
        ``request.backend``, then the ``REPRO_BACKEND`` environment
        variable, then the numpy default.  Unknown backend names
        raise :class:`~repro.kernels.backend.BackendUnavailable` up front.
    batch_instances:
        Evaluate each chunk of instances through the packed multi-instance
        kernels (one launch per grid cell per chunk) instead of a Python
        loop of per-instance launches.  Metrics are bit-identical either
        way; ``False`` is the per-instance escape hatch.
    """
    t_start = time.perf_counter()
    backend_name = resolve_backend(backend or request.backend).name
    shard = Shard.of(shard)
    all_tasks: list[_Task] = [
        (slot, si, ii, coords)
        for slot, (si, ii, coords) in enumerate(request.instances())
    ]
    grid = request.grid

    def payload_of_row(slot: int, row: Any) -> _Payload:
        from repro.store.ledger import StoreError  # lazy: avoids cycle

        if len(row.metrics) != len(grid):
            raise StoreError(
                f"ledger row for slot {slot} has {len(row.metrics)} "
                f"cell metrics, plan has {len(grid)} grid cells"
            )
        return (
            row.cell_metrics(),
            dict(row.facts),
            row.elapsed,
            row.cache,
            getattr(row, "backend", "numpy"),
        )

    def row_of_payload(slot: int, si: int, ii: int, payload: _Payload) -> Any:
        from repro.store.ledger import LedgerRow  # lazy: avoids cycle

        metrics, facts, dt, delta, row_backend = payload
        return LedgerRow(
            slot=slot,
            scenario_index=si,
            instance_index=ii,
            elapsed=dt,
            facts=facts,
            metrics=[m.as_dict() for m in metrics],
            cache=delta,
            backend=row_backend,
            mode=request.mode,
        )

    payloads, replayed, jobs_used, fallback_reason, ledger = _execute_durable(
        request, all_tasks, shard,
        jobs=jobs, cache=cache, on_instance=on_instance,
        store=store, resume=resume,
        run_chunk_serial=lambda chunk, c: _run_chunk(
            chunk, grid, request.compute_critical,
            backend_name, batch_instances, cache=c, mode=request.mode,
        ),
        submit_chunk=lambda pool, chunk: pool.submit(
            _run_chunk, chunk, grid, request.compute_critical,
            backend_name, batch_instances, mode=request.mode,
        ),
        rows_for_resume=lambda s, key: s.load_rows(key),
        payload_of_row=payload_of_row,
        row_of_payload=row_of_payload,
        should_stop=_tombstone_check(store, request),
    )

    # Reassemble in plan order (restricted to the shard).  Cache stats are
    # the sum of per-instance deltas — replayed instances contribute their
    # ledgered deltas, so a resumed run reports the same totals as an
    # uninterrupted one.
    records: list[RunRecord] = []
    reports: list[InstanceReport] = []
    stats = CacheStats()
    for slot, si, ii, _coords in all_tasks:
        if not shard.owns(slot):
            continue
        payload = payloads.get(slot)
        assert payload is not None, f"missing result for task slot {slot}"
        metrics, facts, dt, delta, _row_backend = payload
        scenario = request.scenarios[si]
        reports.append(_report(si, ii, facts, dt))
        stats.merge(CacheStats.from_dict(delta))
        for cell, m in zip(grid, metrics):
            records.append(RunRecord(scenario, ii, cell, m, scenario_index=si))
    elapsed = time.perf_counter() - t_start
    if ledger is not None:
        ledger.finish(stats, elapsed)
        ledger.close()
    return BatchResult(
        request=request,
        records=records,
        instance_reports=reports,
        cache_stats=stats,
        jobs_used=jobs_used,
        elapsed=elapsed,
        fallback_reason=fallback_reason,
        replayed_instances=replayed,
        shard=shard,
        backend=backend_name,
    )


def _report(si: int, ii: int, facts: dict[str, float], dt: float) -> InstanceReport:
    return InstanceReport(
        scenario_index=si,
        instance_index=ii,
        n=int(facts["n"]),
        lmax=facts["lmax"],
        mst_weight=facts["mst_weight"],
        diameter=facts["diameter"],
        elapsed=dt,
    )
