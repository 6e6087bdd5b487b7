"""The three workloads: seeded inputs, whole requests, output checks.

Inputs.  Each workload draws fixed base instances from the library's own
generators and places them by a rigid motion (rotation plus translation)
chosen from ``--seed``.  Every seed therefore hands the program different
coordinates for the same amount of work, so run-to-run spread measures
the machine and the code, not the luck of the draw.  The placed
coordinates reach the program as a registered workload generator, so a
request only ever sees coordinates; the seed is also in each scenario's
tag, so fingerprints (and the ensembles' trial streams) differ by seed.

A workload object is built once per process (set-up) and then runs
:meth:`run_pass` any number of times; each pass is the whole workload and
returns a :class:`PassResult`.  Every constructor takes ``params``, which
defaults to the workload's :data:`spec.PARAMS` entry; the untimed warm-up
builds a second object from :func:`spec.warmup_params`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import api
from repro.api import (
    EnsembleRequest, FrontierRequest, GridCell, Perturbation, PlanRequest,
    Scenario,
)
from repro.experiments.workloads import WORKLOADS as GENERATORS, make_workload
from repro.geometry.angles import BUDGET_SLOP
from repro.geometry.points import PointSet
from repro.service import ServiceClient, create_app, submit_payload
from repro.spanning.bounded_angle import tree_spread_requirements
from repro.spanning.emst import euclidean_mst
from repro.store import RunStore
from repro.utils.rng import stable_seed

from spec import PARAMS
from tracing import request_id

__all__ = ["NullTracer", "PassResult", "InfeasibleCell", "RUNNERS"]

#: A request that never finishes fails its pass instead of hanging the run.
_JOB_TIMEOUT_S = 120.0


class NullTracer:
    """Tracer stand-in for untraced passes: calls straight through."""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, by: float = 1) -> None:
        pass

    def muted(self):
        return contextlib.nullcontext()


class InfeasibleCell(RuntimeError):
    """A symmetric grid cell below its tree's spread requirement."""


@dataclass
class PassResult:
    """One pass: request latencies, result checks and informational summaries.

    ``latencies`` maps each request of the pass to its time from submit to
    result, in the order the pass sends them; the benchmark's own checks
    run outside those windows.
    """

    cells: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    latencies: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


#: Placed coordinates by the instance seed the library derives for them.
#: The library's generator registry is process-wide, so this table is too.
_PLACED: dict[int, np.ndarray] = {}


def _placed(n: int, seed: int) -> np.ndarray:
    return _PLACED[int(seed)].copy()


class Placement:
    """Fixed base instances under one seed-chosen rigid motion."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([abs(seed), 0x5EED])  # entropy must be >= 0
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        self.rotation = np.array([[c, -s], [s, c]])
        self.shift = rng.uniform(-10.0, 10.0, size=2)
        self.seed = seed

    def scenario(self, base: str, n: int, count: int) -> Scenario:
        """A scenario whose instances are the placed base instances."""
        name = f"perfbench-{base}"
        GENERATORS[name] = _placed
        scenario = Scenario(name, n, seeds=count, tag=f"perfbench-{self.seed}")
        for i in range(count):
            coords = make_workload(base, n, stable_seed("perfbench", base, n, i))
            _PLACED[scenario.instance_seed(i)] = coords @ self.rotation.T + self.shift
        return scenario


def _grid(cells) -> tuple[GridCell, ...]:
    return tuple(GridCell(k, phi) for k, phi in cells)


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf8")).hexdigest()[:12]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_sweep(batch, out: PassResult) -> list:
    """Every cell with a finite bound is connected and within it."""
    metrics = [rec.metrics for rec in batch.records]
    for rec, m in zip(batch.records, metrics):
        out.attempted += 1
        if math.isfinite(m.range_bound) and not (
            m.strongly_connected and m.bound_satisfied()
        ):
            out.failed += 1
            out.failures.append(
                f"{rec.scenario.label}#{rec.instance_index} k={m.k} "
                f"phi={m.phi:.4f} {m.algorithm} [{m.mode}]: connected="
                f"{m.strongly_connected} critical={m.critical_range} "
                f"bound={m.range_bound}"
            )
    out.cells += len(metrics)
    return metrics


def sweep_summaries(metrics: list, out: PassResult) -> None:
    """Mean critical range over lmax, and a digest per algorithm."""
    finite = [m.critical_range for m in metrics if math.isfinite(m.critical_range)]
    out.quality["range_ratio_mean"] = sum(finite) / len(finite) if finite else math.nan
    by_algo: dict[str, list] = {}
    for m in metrics:
        by_algo.setdefault(f"{m.algorithm}[{m.mode}]", []).append(m.as_dict())
    out.digests.update(
        {algo: f"{_digest(rows)} ({len(rows)} cells)" for algo, rows in by_algo.items()}
    )


class Table1Sweep:
    """``sweep-table1``: every Table-1 regime at n = 512, ledgered and replayed."""

    name = "sweep-table1"

    def __init__(self, seed: int, workdir: Path, tracer, params=None) -> None:
        p = params or PARAMS[self.name]
        place = Placement(seed)
        self.request = PlanRequest(
            scenarios=tuple(place.scenario(b, p["n"], p["per_base"]) for b in p["bases"]),
            grid=_grid(p["grid"]),
            mode=p["mode"],
            backend=p["backend"],
        )
        self.workdir = workdir
        self.tracer = tracer

    def run_pass(self, index: int) -> PassResult:
        run_dir = self.workdir / f"store-{index}"
        store = RunStore(run_dir)
        out = PassResult()
        try:
            with request_id("live"):
                t0 = time.perf_counter()
                live = self.tracer.call("request", api.submit, self.request, store=store)
                out.latencies["live"] = time.perf_counter() - t0
            with request_id("replay"):
                t0 = time.perf_counter()
                replay = self.tracer.call(
                    "request", api.submit, self.request, store=store, resume=True
                )
                out.latencies["replay"] = time.perf_counter() - t0
            metrics = check_sweep(live, out)
            out.attempted += 1
            same = (
                replay.replayed_instances == self.request.total_instances
                and len(replay.records) == len(live.records)
                and all(
                    a.metrics.identical(b.metrics)
                    for a, b in zip(live.records, replay.records)
                )
                and replay.instance_reports == live.instance_reports
            )
            if not same:
                out.failed += 1
                out.failures.append("resume=True replay differs from the live result")
        finally:
            store.close()
        sweep_summaries(metrics, out)
        self.tracer.count("store.bytes", _dir_bytes(run_dir))
        shutil.rmtree(run_dir, ignore_errors=True)
        return out


class SparseSweep:
    """``sweep-sparse-20k``: one n = 2·10⁴ instance, strong and symmetric."""

    name = "sweep-sparse-20k"

    def __init__(self, seed: int, workdir: Path, tracer, params=None) -> None:
        p = params or PARAMS[self.name]
        place = Placement(seed)
        scenarios = tuple(place.scenario(b, p["n"], p["per_base"]) for b in p["bases"])
        self._guard(scenarios, p["symmetric"])
        self.requests = {
            mode: PlanRequest(
                scenarios=scenarios, grid=_grid(p[mode]), mode=mode,
                backend=p["backend"],
            )
            for mode in ("strong", "symmetric")
        }
        self.tracer = tracer

    @staticmethod
    def _guard(scenarios, cells) -> None:
        """Refuse symmetric cells below max_v s*(v): their infeasible
        fallback forces the complete sparse cutoff, O(n^2) pairs."""
        for scenario in scenarios:
            for i in range(scenario.seeds):
                ps = PointSet(scenario.instance(i))
                tree = euclidean_mst(ps)
                for k, phi in cells:
                    need = float(tree_spread_requirements(ps, tree, k).max())
                    if phi < need - BUDGET_SLOP:
                        raise InfeasibleCell(
                            f"symmetric cell (k={k}, phi={phi:.4f}) on "
                            f"{scenario.label}#{i} needs phi >= {need:.4f}; "
                            "refusing it (the infeasible fallback stores "
                            "O(n^2) candidate pairs)"
                        )

    def run_pass(self, index: int) -> PassResult:
        out = PassResult()
        metrics = []
        for mode, request in self.requests.items():
            with request_id(mode):
                t0 = time.perf_counter()
                batch = self.tracer.call("request", api.submit, request)
                out.latencies[mode] = time.perf_counter() - t0
            metrics += check_sweep(batch, out)
        sweep_summaries(metrics, out)
        return out


class ServiceProbes:
    """``service-probes``: frontier + two ensembles through the service."""

    name = "service-probes"

    def __init__(self, seed: int, workdir: Path, tracer, params=None) -> None:
        p = params or PARAMS[self.name]
        place = Placement(seed)

        def scenarios(q):
            return tuple(place.scenario(b, q["n"], q["per_base"]) for b in p["bases"])

        f, t, c = p["frontier"], p["ensemble-threshold"], p["ensemble-curve"]
        self.requests = {
            "frontier": FrontierRequest(
                scenarios=scenarios(f), ks=f["ks"], metric=f["metric"],
                target=f["target"], phi_lo=f["phi_lo"], phi_hi=f["phi_hi"],
                tol=f["tol"],
            ),
            "ensemble-threshold": EnsembleRequest(
                scenarios=scenarios(t), ks=t["ks"], p_target=t["p_target"],
                perturbation=Perturbation(
                    edge_fail=t["edge_fail"], fade_sigma=t["fade_sigma"]
                ),
                phi_lo=t["phi_lo"], phi_hi=t["phi_hi"], tol=t["tol"],
                trials=t["trials"], chunk=t["chunk"],
            ),
            "ensemble-curve": EnsembleRequest(
                scenarios=scenarios(c), grid=_grid(c["grid"]),
                perturbation=Perturbation(rotate=c["rotate"]),
                trials=c["trials"], chunk=c["chunk"],
            ),
        }
        self.poll_s = p["poll_s"]
        self.workdir = workdir
        self.tracer = tracer
        #: Submit time of each job of the current pass, by request id.
        self.submitted: dict[str, float] = {}

    def _roundtrip(self, client, label: str, request, out: PassResult):
        """Submit, poll /progress until done, GET /result; returns rows."""
        call = self.tracer.call
        t0 = time.perf_counter()
        with request_id(label):
            job = call("service.submit", client.post, "/plans",
                       json_body=submit_payload(request)).raise_for_status().json["id"]
            while True:
                progress = call("service.poll", client.get,
                                f"/plans/{job}/progress").raise_for_status().json
                self.tracer.count("service.poll_count")
                if progress["state"] == "done":
                    break
                if "error" in progress or time.perf_counter() - t0 > _JOB_TIMEOUT_S:
                    raise RuntimeError(
                        f"{label} job {job[:12]} did not finish: "
                        f"{progress.get('error', progress['state'])}"
                    )
                time.sleep(self.poll_s)
            rows = call("service.result", client.get,
                        f"/plans/{job}/result").raise_for_status().json["rows"]
        out.latencies[label] = time.perf_counter() - t0
        self.submitted[f"job-{job[:12]}"] = t0
        out.digests[label] = _digest(rows)
        out.cells += sum(int(r["runs"]) for r in rows)
        return rows

    def _check_stars(self, label, rows, request, out: PassResult) -> None:
        for r in rows:
            out.attempted += 1
            if r["found"] and not (
                request.phi_lo <= r["phi_star_min"] <= r["phi_star_max"] <= request.phi_hi
            ):
                out.failed += 1
                out.failures.append(
                    f"{label} {r['workload']} k={r['k']}: phi* "
                    f"[{r['phi_star_min']}, {r['phi_star_max']}] outside "
                    f"[{request.phi_lo}, {request.phi_hi}]"
                )

    def _check_p(self, label, p, lo, hi, out: PassResult) -> None:
        out.attempted += 1
        slack = 1e-12  # Wilson bounds at p = 0 or 1 round off by ~1e-18
        if not (0.0 <= p <= 1.0 and lo - slack <= p <= hi + slack):
            out.failed += 1
            out.failures.append(f"{label}: p={p} outside Wilson [{lo}, {hi}]")

    def run_pass(self, index: int) -> PassResult:
        run_dir = self.workdir / f"service-{index}"
        store = RunStore(run_dir)
        app = create_app(store)
        client = ServiceClient(app)
        out = PassResult()
        self.submitted.clear()
        try:
            frontier = self.requests["frontier"]
            rows = self._roundtrip(client, "frontier", frontier, out)
            self._check_stars("frontier", rows, frontier, out)
            stars = [(r["phi_star_mean"], r["found"]) for r in rows if r["found"]]
            found = sum(w for _, w in stars)
            out.quality["phi_threshold_mean"] = (
                sum(s * w for s, w in stars) / found if found else math.nan
            )

            threshold = self.requests["ensemble-threshold"]
            rows = self._roundtrip(client, "ensemble-threshold", threshold, out)
            self._check_stars("ensemble-threshold", rows, threshold, out)

            rows = self._roundtrip(client, "ensemble-curve",
                                   self.requests["ensemble-curve"], out)
            for r in rows:
                self._check_p(f"ensemble-curve k={r['k']} phi={r['phi']:.4f}",
                              r["p_connected"], r["p_lo"], r["p_hi"], out)

            # The service's rows carry no per-probe p-hat, so the threshold
            # probes are read back from the store: outside the timed windows
            # and untraced, since the program itself never does this.
            with self.tracer.muted():
                batch = api.assemble(threshold, store)
            for _outcome, frontiers in batch.frontiers():
                for f in frontiers:
                    for probe in f.probes:
                        lo, hi = probe.interval(threshold.confidence)
                        self._check_p("ensemble-threshold probe", probe.p_hat,
                                      lo, hi, out)
        finally:
            app.manager.join(timeout=_JOB_TIMEOUT_S)
            store.close()
        self._queue_waits()
        self.tracer.count("store.bytes", _dir_bytes(run_dir))
        shutil.rmtree(run_dir, ignore_errors=True)
        return out

    def _queue_waits(self) -> None:
        """Submit-to-first-ledgered-row, summed over the jobs (traced only)."""
        first: dict[str, float] = {}
        for span in getattr(self.tracer, "spans", ()):
            if span.name == "store.append" and span.request in self.submitted:
                first[span.request] = min(first.get(span.request, span.start), span.start)
        for rid, t in first.items():
            self.tracer.count("service.queue_wait_s", t - self.submitted[rid])


#: Workload name -> class; ``RUNNERS[name](seed, workdir, tracer)`` is the set-up.
RUNNERS = {cls.name: cls for cls in (Table1Sweep, SparseSweep, ServiceProbes)}
