"""Per-layer tracing recorded from outside the library.

:class:`Tracer` wraps the public functions each layer's callers reach —
the names ``repro`` modules import from one another, plus a few public
methods — and records a span around every call: name, start, end, parent
span and request id.  Nothing under ``src/`` is edited; :meth:`Tracer.install`
swaps the attributes and :meth:`Tracer.uninstall` restores the originals,
so one process can alternate traced and untraced passes.

The current span travels in a :class:`contextvars.ContextVar`, which
``asyncio`` copies into the service's handler threads, so a store read
done inside ``GET /result`` is a child of the client's ``service.result``
span.  The service's job thread starts with an empty context; its root
span is ``service.job`` and carries the job id as request id.

A span's *self time* is its duration minus the part of it covered by its
children; a layer's total is the summed duration of its outermost spans
(those with no ancestor in the same layer).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

#: Layers are the repo's modules; a span's layer is its name up to the
#: first dot.
LAYERS = (
    "engine", "spanning", "btsp", "core", "analysis", "kernels",
    "frontier", "ensemble", "store", "service",
)

#: Every ``OrientationResult.algorithm`` the constructions report.
ALGORITHMS = (
    "k1-tour", "k1-pairs", "theorem2", "theorem3.part1", "theorem3.part2",
    "k2-zero-spread", "theorem5", "theorem6", "bounded-angle-mst",
)

#: ``repro.kernels.instrument`` counters reported as ``kernels.<name>``.
KERNEL_COUNTERS = (
    "coverage_calls", "trig_evals", "connectivity_probes",
    "critical_searches", "graph_builds", "rcut_widenings",
    "ensemble_trials", "ensemble_trials_saved",
)

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_REQUEST: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_request", default="-"
)
_MUTED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "perfbench_muted", default=False
)


@contextmanager
def request_id(rid: str) -> Iterator[None]:
    """Tag spans started in this context (and its children) with ``rid``."""
    token = _REQUEST.set(rid)
    try:
        yield
    finally:
        _REQUEST.reset(token)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    request: str
    thread: str


class Tracer:
    """Span and count recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self._run(name, fn, args, kwargs)

    def _run(self, name: str, fn: Callable, args: tuple, kwargs: dict, *,
             rid: "str | None" = None,
             rename: "Callable[[Any], str] | None" = None):
        """Run ``fn`` inside a span; ``rename(result)`` may refine its name."""
        parent = _CURRENT.get()
        rid = rid or (parent.request if parent else _REQUEST.get())
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    parent.id if parent else None, rid,
                    threading.current_thread().name)
        token = _CURRENT.set(span)
        try:
            result = fn(*args, **kwargs)
            if rename is not None:
                span.name = rename(result)
            return result
        finally:
            span.end = time.perf_counter()
            _CURRENT.reset(token)
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, by: float = 1) -> None:
        with self._lock:
            self.counts[name] += by

    # -- wrappers ----------------------------------------------------------

    @contextmanager
    def muted(self) -> Iterator[None]:
        """Call straight through every wrapper in this context: for the
        benchmark's own checks, which must not count as the program's work."""
        token = _MUTED.set(True)
        try:
            yield
        finally:
            _MUTED.reset(token)

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]):
        original = getattr(owner, attr)
        traced = make(original)

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            if _MUTED.get():
                return original(*args, **kwargs)
            return traced(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _span(self, owner: Any, attr: str, name: str, *,
              rename: "Callable[[Any], str] | None" = None,
              counter: "str | None" = None) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                if counter is not None:
                    self.count(counter)
                return self._run(name, original, args, kwargs, rename=rename)
            return wrapper
        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every traced call site; :meth:`uninstall` restores them."""
        import repro.api
        import repro.core.kone
        import repro.engine.cache
        import repro.engine.executor
        import repro.ensemble.executor
        import repro.ensemble.solver
        import repro.frontier._solver
        import repro.frontier.executor
        import repro.kernels.backend
        import repro.service.jobs
        import repro.service.worker
        from repro.engine.cache import ArtifactCache
        from repro.frontier._solver import ProbeEngine
        from repro.store.ledger import RunStore, ShardLedger

        def construct_name(result) -> str:
            self.count(f"core.construct.{result.algorithm}.calls")
            return f"core.construct.{result.algorithm}"

        # core: every construction, as called by engine, frontier, ensemble.
        for mod in (repro.engine.executor, repro.frontier._solver,
                    repro.ensemble.solver, repro.ensemble.executor):
            self._span(mod, "orient_for_mode", "core.construct",
                       rename=construct_name)
        self._span(repro.core.kone, "best_tour", "btsp.best_tour",
                   counter="btsp.best_tour_calls")

        # engine: whole-request execution and the artifact cache.
        self._span(repro.api, "submit", "engine.execute")
        self._span(repro.service.worker, "submit", "engine.execute")
        self._span(ArtifactCache, "tree", "engine.cache.tree")
        for method in ("polar", "sparse_polar", "packed_polar"):
            self._span(ArtifactCache, method, "engine.cache.tables")
        # spanning / kernels: the builds the cache performs on a miss.
        self._span(repro.engine.cache, "euclidean_mst", "spanning.emst",
                   counter="engine.cache.tree_builds")
        self._span(repro.engine.cache, "polar_tables", "kernels.polar_tables",
                   counter="engine.cache.table_builds")
        self._span(repro.engine.cache, "sparse_polar_tables",
                   "kernels.sparse_polar_tables",
                   counter="engine.cache.table_builds")
        self._span(repro.kernels.backend, "packed_polar_tables",
                   "kernels.packed_polar_tables",
                   counter="engine.cache.table_builds")

        # analysis: deterministic measurement (single and packed).
        for mod in (repro.engine.executor, repro.frontier._solver):
            self._span(mod, "orientation_metrics", "analysis.measure")
        self._span(repro.engine.executor, "batched_orientation_metrics",
                   "analysis.measure")

        # frontier / ensemble solvers.
        self._span(repro.frontier.executor, "solve_instance_frontier",
                   "frontier.solve")
        self._span(repro.ensemble.executor, "solve_instance_ensemble",
                   "ensemble.solve")
        for mod in (repro.ensemble.solver, repro.ensemble.executor):
            self._span(mod, "measure_trials", "ensemble.measure_trials")

        def probe(original):
            def wrapper(engine, phi):
                result = original(engine, phi)
                self.count("frontier.probes")
                if result.reused:
                    self.count("frontier.reused")
                return result
            return wrapper
        self._patch(ProbeEngine, "__call__", probe)

        # store: ledger writes and reads.
        self._span(ShardLedger, "append", "store.append", counter="store.rows")
        for method in ("load_rows", "load_typed_rows", "shard_rows"):
            self._span(RunStore, method, "store.read")

        # service: the job thread's drain loop, tagged with the job id.
        def drain(original):
            def wrapper(store, plan_key, **kwargs):
                return self._run("service.job", original, (store, plan_key),
                                 kwargs, rid=f"job-{plan_key[:12]}")
            return wrapper
        self._patch(repro.service.jobs, "drain_plan", drain)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -----------------------------------------------------------

    def dump(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]

    def summary(self) -> dict[str, float]:
        """Totals and self times by span name and by layer."""
        by_id = {s.id: s for s in self.spans}
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        def self_time(s: Span) -> float:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return (s.end - s.start) - covered

        def outermost(s: Span, same: Callable[[Span], bool]) -> bool:
            parent = by_id.get(s.parent) if s.parent is not None else None
            while parent is not None:
                if same(parent):
                    return False
                parent = by_id.get(parent.parent) if parent.parent else None
            return True

        out: Counter[str] = Counter()
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            own = self_time(s)
            out[f"{s.name}.self_s"] += own
            out[f"layer.{layer}.self_s"] += own
            if outermost(s, lambda p: p.name == s.name):
                out[f"{s.name}_s"] += s.end - s.start
            if outermost(s, lambda p: p.name.split(".", 1)[0] == layer):
                out[f"layer.{layer}_s"] += s.end - s.start
        return dict(out)


def per_layer_metrics(tracer: Tracer, kernels: dict[str, int]) -> dict[str, tuple[float, str]]:
    """The fixed per-layer metric set, as ``name -> (value, unit)``.

    ``kernels`` is the ``repro.kernels.instrument`` counter delta over the
    traced pass.  Every name is always present (zero when the workload
    never reaches that layer), so workloads report the same set.
    """
    s = tracer.summary()
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def sec(name: str, value: "float | None" = None) -> None:
        out[name] = (s.get(name, 0.0) if value is None else value, "s")

    def cnt(name: str, value: float) -> None:
        out[name] = (value, "count")

    def ratio(name: str, num: float, den: float) -> None:
        out[name] = (num / den if den else 0.0, "ratio")

    sec("core.construct_s", sum(s.get(f"core.construct.{a}_s", 0.0) for a in ALGORITHMS))
    sec("core.construct.self_s",
        sum(s.get(f"core.construct.{a}.self_s", 0.0) for a in ALGORITHMS))
    for a in ALGORITHMS:
        sec(f"core.construct.{a}_s")
        sec(f"core.construct.{a}.self_s")
        cnt(f"core.construct.{a}.calls", c[f"core.construct.{a}.calls"])
    sec("btsp.best_tour_s")
    sec("btsp.best_tour.self_s")
    cnt("btsp.best_tour_calls", c["btsp.best_tour_calls"])
    sec("engine.execute_s")
    sec("engine.execute.self_s")
    sec("engine.cache.tree_s")
    sec("engine.cache.tables_s")
    cnt("engine.cache.tree_builds", c["engine.cache.tree_builds"])
    cnt("engine.cache.table_builds", c["engine.cache.table_builds"])
    sec("spanning.emst_s")
    sec("kernels.tables_s", sum(
        s.get(f"kernels.{t}_s", 0.0)
        for t in ("polar_tables", "sparse_polar_tables", "packed_polar_tables")
    ))
    sec("analysis.measure_s")
    sec("analysis.measure.self_s")
    for name in KERNEL_COUNTERS:
        cnt(f"kernels.{name}", kernels.get(name, 0))
    saved = kernels.get("ensemble_trials_saved", 0)
    ratio("kernels.trials_saved_ratio", saved, saved + kernels.get("ensemble_trials", 0))
    sec("frontier.solve_s")
    cnt("frontier.probes", c["frontier.probes"])
    ratio("frontier.reused_ratio", c["frontier.reused"], c["frontier.probes"])
    sec("ensemble.solve_s")
    sec("ensemble.measure_trials_s")
    sec("store.append_s")
    cnt("store.rows", c["store.rows"])
    out["store.bytes"] = (c["store.bytes"], "bytes")
    sec("store.replay_s", s.get("store.read_s", 0.0))
    sec("service.submit_s")
    sec("service.result_s")
    cnt("service.poll_count", c["service.poll_count"])
    sec("service.queue_wait_s", c["service.queue_wait_s"])
    sec("service.job_s")
    for layer in LAYERS:
        sec(f"layer.{layer}_s")
        sec(f"layer.{layer}.self_s")
    cnt("trace.spans", len(tracer.spans))
    return out
