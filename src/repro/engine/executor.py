"""The one durable executor, and the sweep kind it runs.

:func:`execute` runs every request kind — sweeps here,
:mod:`repro.frontier.executor` and :mod:`repro.ensemble.executor` — from a
:class:`Kind` record that says what is the kind's own: its slot layout, a
module-level chunk generator that yields one ledger row per completed slot,
the payload width a row must carry, and a ``build`` function that turns
rows in slot order into the kind's result type.  Everything else is
shared: chunks are dispatched to a ``ProcessPoolExecutor`` when
``jobs > 1`` and run inline otherwise, and the result is built from the
rows in slot order, so serial and parallel execution are bit-identical.

The ledger row is the only payload.  With a :class:`~repro.store.RunStore`
every completed row is checkpointed into the store's append-only ledger as
it lands, ``resume=True`` replays ledgered rows instead of re-executing
them, and ``shard=(i, m)`` restricts execution to one of ``m`` disjoint,
deterministic partitions of the slots — the merged shards are bit-identical
to an unsharded run.  :func:`assemble` rebuilds the same result from rows
alone, through the same row check and the same ``build``.

The sweep's unit of work plans one instance at every grid cell, reusing the
instance's spanning tree through the
:class:`~repro.engine.cache.ArtifactCache` and measuring each φ-free
dispatch regime once; a chunk's dense-routed instances share one kernel
launch per grid cell over their stacked candidate pairs.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Sequence

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
from repro.kernels.batch import packed_candidates
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


# -- the durable executor ---------------------------------------------------------

#: One slot of a request: (slot, scenario_index, instance_index, coords).
#: ``slot`` is the task's position in slot order.
_Task = tuple[int, int, int, np.ndarray]


@dataclass(frozen=True)
class Kind:
    """What one request kind supplies to :func:`execute` and :func:`assemble`.

    ``slots(request)`` lays the request out as tasks in slot order.
    ``chunk(tasks, request, backend_name, cache)`` runs a list of tasks and
    yields ``(slot, row)`` per completed slot; it must be a module-level
    function, because pool workers pickle it.  ``width(request)`` is the
    payload length every row must carry.  ``build(request, rows, **facts)``
    turns rows in slot order into the kind's result type.
    """

    slots: Callable[[Any], list[_Task]]
    chunk: Callable[..., Iterator[tuple[int, Any]]]
    width: Callable[[Any], int]
    build: Callable[..., Any]


def instance_slots(request: Any) -> list[_Task]:
    """One slot per instance, in plan order (sweeps and frontiers)."""
    return [
        (slot, si, ii, coords)
        for slot, (si, ii, coords) in enumerate(request.instances())
    ]


def _ledger_row(request, task, backend_name, payload, facts, elapsed, cache_delta):
    """``(slot, row)`` for one completed task, as the request kind's row type.

    The row class comes from the store's one kind→row-type map.  The cache
    delta is what makes cache accounting independent of chunking and
    sharding (totals are sums of deltas); the backend name records which
    kernel backend produced the payload.
    """
    from repro.store.ledger import _KIND_ROW_TYPES, _ROW_TYPES  # lazy: avoids cycle

    row_cls = _ROW_TYPES[_KIND_ROW_TYPES[request.KIND]]
    slot, si, ii, _coords = task
    return slot, row_cls(
        slot=slot,
        scenario_index=si,
        instance_index=ii,
        elapsed=elapsed,
        facts=facts,
        cache=cache_delta,
        backend=backend_name,
        mode=request.mode,
        **{row_cls.PAYLOAD: payload},
    )


def _timed(cache: ArtifactCache, work, /, *args, **kwargs):
    """``(work(*args, **kwargs), seconds, cache-stats delta)``."""
    before = cache.stats.as_dict()
    t0 = time.perf_counter()
    out = work(*args, **kwargs)
    dt = time.perf_counter() - t0
    after = cache.stats.as_dict()
    return out, dt, {k: after[k] - before[k] for k in after}


def _pool_chunk(run_chunk, tasks, request, backend_name) -> list[tuple[int, Any]]:
    """Pool-worker entry point: run one chunk with a worker-local cache."""
    return list(run_chunk(tasks, request, backend_name, ArtifactCache()))


def _chunk_tasks(tasks: list[_Task], jobs: int) -> list[list[_Task]]:
    """Split tasks into contiguous chunks, ~4 per worker for load balance."""
    target = max(1, -(-len(tasks) // (jobs * 4)))
    return [tasks[i : i + target] for i in range(0, len(tasks), target)]


def _check_row(kind: Kind, request: Any, row: Any) -> None:
    """Refuse a ledgered row that cannot belong to ``request``: a slot
    outside the plan, or a payload of the wrong width.  Resume and
    :func:`assemble` both apply it, so they refuse the same rows."""
    from repro.store.ledger import StoreError  # lazy: avoids cycle

    if not 0 <= row.slot < request.total_slots:
        raise StoreError(f"ledger row slot {row.slot} outside the plan")
    got, want = len(getattr(row, row.PAYLOAD)), kind.width(request)
    if got != want:
        raise StoreError(
            f"ledger row for slot {row.slot} carries {got} {row.PAYLOAD} "
            f"entries, the request expects {want}"
        )


def _build(kind: Kind, request: Any, rows: list, stats: CacheStats, **facts):
    return kind.build(
        request,
        rows,
        instance_reports=[row.report() for row in rows],
        cache_stats=stats,
        **facts,
    )


def _cache_total(rows: list) -> CacheStats:
    """The sum of the rows' cache deltas: replayed rows contribute their
    ledgered deltas, so a resumed run reports an uninterrupted one's totals."""
    stats = CacheStats()
    for row in rows:
        stats.merge(CacheStats.from_dict(row.cache))
    return stats


def execute(
    kind: Kind,
    request: Any,
    *,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    on_instance: Callable[[InstanceReport], None] | None = None,
    store: Any = None,
    shard: "Shard | tuple[int, int] | None" = None,
    resume: bool = False,
    backend: str | None = None,
) -> Any:
    """Run every slot of ``request`` the shard owns; build ``kind``'s result.

    The parameters are :func:`execute_plan`'s.  Every completed slot is one
    ledger row: it is appended to the shard's ledger as it lands, and with
    ``resume`` the plan's ledgered rows are checked (see :func:`_check_row`)
    and replayed instead of re-executed.  The store's cancellation
    tombstone is polled before execution and between chunks; when set, the
    ledger is closed (completed chunks stay checkpointed, no ``shard_done``
    summary is written) and :class:`~repro.errors.PlanCancelled` is raised,
    so a later resume continues exactly where the cancel landed.
    """
    t_start = time.perf_counter()
    backend_name = resolve_backend(backend or request.backend).name
    shard = Shard.of(shard)
    tasks = [task for task in kind.slots(request) if shard.owns(task[0])]
    rows: dict[int, Any] = {}
    ledger = None
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
            for slot, row in store.rows_for(request).items():
                _check_row(kind, request, row)
                if shard.owns(slot):
                    rows[slot] = row
    replayed = len(rows)
    todo = [task for task in tasks if task[0] not in rows]

    def stop_check() -> None:
        if store is None or not store.is_cancelled(key):
            return
        from repro.errors import PlanCancelled

        if ledger is not None:
            ledger.close()  # checkpointed chunks survive; no shard_done
        raise PlanCancelled(
            f"plan execution cancelled (shard {shard.label}); completed "
            "chunks are ledgered — clear the cancel marker and resume to "
            "continue"
        )

    def complete(slot: int, row: Any) -> None:
        nonlocal ledger
        rows[slot] = row
        if store is not None:
            if ledger is None:
                ledger = store.open_shard(request, shard)
            ledger.append(row)
        if on_instance is not None:
            on_instance(row.report())

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
        try:
            futures = [
                pool.submit(_pool_chunk, kind.chunk, chunk, request, backend_name)
                for chunk in _chunk_tasks(todo, min(jobs, len(todo)))
            ]
            jobs_used = min(jobs, len(todo))
            for future in as_completed(futures):
                for slot, row in future.result():
                    complete(slot, row)
                stop_check()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    else:
        local_cache = cache if cache is not None else ArtifactCache()
        for chunk in _chunk_tasks(todo, 1):
            for slot, row in kind.chunk(chunk, request, backend_name, local_cache):
                complete(slot, row)
            stop_check()

    ordered = [rows[task[0]] for task in tasks]
    stats = _cache_total(ordered)
    elapsed = time.perf_counter() - t_start
    if ledger is not None:
        ledger.finish(stats, elapsed)
        ledger.close()
    return _build(
        kind, request, ordered, stats,
        jobs_used=jobs_used,
        elapsed=elapsed,
        fallback_reason=fallback_reason,
        replayed_instances=replayed,
        shard=shard,
        backend=backend_name,
    )


def assemble(
    kind: Kind, request: Any, rows: dict[int, Any], *, allow_partial: bool = False
) -> Any:
    """Rebuild ``kind``'s result for ``request`` purely from ledger rows.

    The rows go through :func:`execute`'s row check and ``kind.build`` in
    slot order, so the result's tables are bit-identical to an in-process
    run of the same request.  Unless ``allow_partial``, every slot must be
    present.
    """
    from repro.store.ledger import StoreError  # lazy: avoids cycle

    expected = request.total_slots
    missing = [slot for slot in range(expected) if slot not in rows]
    if missing and not allow_partial:
        unit = "instances" if expected == request.total_instances else "slots"
        raise StoreError(
            f"ledger covers {expected - len(missing)}/{expected} {unit} "
            f"(first missing plan slot: {missing[0]}); run the remaining "
            "shards or pass allow_partial"
        )
    ordered = [rows[slot] for slot in sorted(rows)]
    for row in ordered:
        _check_row(kind, request, row)
    return _build(
        kind, request, ordered, _cache_total(ordered),
        jobs_used=1,
        elapsed=sum((row.elapsed for row in ordered), 0.0),
        replayed_instances=len(ordered),
    )


# -- the sweep kind ----------------------------------------------------------------

#: Cap on ``m * n_max**2`` elements per sub-batch: a sub-batch of this
#: size costs at most ~64 MB in float64 polar tables, so huge-n chunks
#: degrade to smaller launches instead of exhausting memory.  Sub-batch
#: boundaries are a pure function of the chunk's contents, so metrics stay
#: bit-identical and counter totals stay reproducible for a given chunking.
_BATCH_MAX_ELEMS = 4_000_000


def _sweep_chunk(
    tasks: list[_Task],
    request: PlanRequest,
    backend_name: str,
    cache: ArtifactCache,
) -> Iterator[tuple[int, Any]]:
    """The sweep's unit of work: every grid cell of each instance.

    Dense-routed instances are measured together over their stacked
    candidate pairs (:func:`_packed_rows`) and yielded first.
    Sparse-routed instances cannot take that path (it derives the pairs
    from each instance's dense ``(n, n)`` tables); each is measured on its
    own by :func:`run_instance_grid`, after the stacked ones.
    """
    with use_backend(backend_name) as backend:
        dense = [t for t in tasks if not backend.use_sparse(t[3].shape[0])]
        if dense:
            yield from _packed_rows(dense, request, backend_name, cache)
        for task in tasks:
            if not backend.use_sparse(task[3].shape[0]):
                continue
            (metrics, facts), dt, delta = _timed(
                cache, run_instance_grid, task[3], request.grid,
                compute_critical=request.compute_critical, cache=cache,
                mode=request.mode,
            )
            yield _ledger_row(
                request, task, backend_name, [m.as_dict() for m in metrics],
                facts, dt, delta,
            )


def _packed_rows(
    tasks: list[_Task],
    request: PlanRequest,
    backend_name: str,
    cache: ArtifactCache,
) -> list[tuple[int, Any]]:
    """Measure a chunk's instances over their stacked candidate pairs.

    Per-instance artifacts (pointset, spanning tree) are still built one at
    a time inside per-instance cache-stat delta windows — so ledgered cache
    accounting is identical to the per-instance path — but measurement is
    one kernel launch per grid cell for the whole chunk instead of a
    Python-level launch per instance.  Each sub-batch's polar tables (one
    per instance) and the candidate pairs derived from them once (see
    :func:`~repro.kernels.batch.packed_candidates`) are chunk-scoped: kept
    out of the deltas (see :meth:`ArtifactCache.packed_polar`) and
    released before the next sub-batch is built.

    Metrics are bit-identical to the per-instance path.  Elapsed time is
    each instance's own artifact and construction time plus an even share
    of the fused remainder (tables, chunk kernels, facts), so the
    chunk's instances still sum to its wall time.
    """
    grid, mode = request.grid, request.mode

    def artifacts(coords):
        ps = cache.pointset(coords)
        return ps, cache.tree(ps)

    t0 = time.perf_counter()
    own = [0.0] * len(tasks)  # per-instance artifact + construction seconds
    entries = []  # (task, pointset, tree, cache-stats delta)
    for j, task in enumerate(tasks):
        (ps, tree), own[j], delta = _timed(cache, artifacts, task[3])
        entries.append((task, ps, tree, delta))

    n_max = max(len(ps) for _, ps, _, _ in entries)
    per = max(1, _BATCH_MAX_ELEMS // max(n_max * n_max, 1))
    parts: list[tuple[_Task, list[OrientationMetrics], dict, dict]] = []
    for base in range(0, len(entries), per):
        sub = entries[base : base + per]
        tables = cache.packed_polar([ps.coords for _, ps, _, _ in sub])
        candidates = packed_candidates(tables, [tree.lmax for _, _, tree, _ in sub])
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
                    results, tables, candidates,
                    compute_critical=request.compute_critical, mode=mode,
                )
            ):
                cell_metrics[j].append(m)
        for j, (task, ps, tree, delta) in enumerate(sub):
            n = len(ps)
            facts = {
                "n": float(n),
                "lmax": tree.lmax,
                "mst_weight": tree.total_weight,
                "diameter": float(tables[j].dist.max()) if n else 0.0,
            }
            parts.append((task, cell_metrics[j], facts, delta))
        del tables, candidates  # chunk-scoped: free before the next sub-batch

    shared = (time.perf_counter() - t0 - sum(own)) / max(len(tasks), 1)
    return [
        _ledger_row(
            request, task, backend_name, [m.as_dict() for m in metrics],
            facts, own[j] + shared, delta,
        )
        for j, (task, metrics, facts, delta) in enumerate(parts)
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


def _build_batch(request: PlanRequest, rows: list, **facts) -> BatchResult:
    records = [
        RunRecord(
            request.scenarios[row.scenario_index], row.instance_index, cell, m,
            scenario_index=row.scenario_index,
        )
        for row in rows
        for cell, m in zip(request.grid, row.cell_metrics())
    ]
    return BatchResult(request=request, records=records, **facts)


SWEEP = Kind(
    slots=instance_slots,
    chunk=_sweep_chunk,
    width=lambda request: len(request.grid),
    build=_build_batch,
)


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
        A :class:`~repro.engine._spec.Shard` (or ``(i, m)`` tuple): execute
        only the instances with plan slot ``slot % m == i``.  The returned
        records cover exactly those instances; the union over all shards is
        bit-identical to an unsharded run.
    resume:
        With a ``store``: replay already-ledgered instance chunks (from any
        shard's ledger in the run directory) instead of re-executing them.
        A ledgered row outside the plan or of the wrong width raises
        :class:`~repro.store.StoreError`, as assembly does.
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
    """
    return execute(
        SWEEP, request,
        jobs=jobs, cache=cache, on_instance=on_instance,
        store=store, shard=shard, resume=resume, backend=backend,
    )
