#!/usr/bin/env python3
"""End-to-end benchmark of the planner, its service and its layers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-table1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --describe                     # inputs, why, layer map

Workloads, gated end-to-end metrics with their units, and per-layer metric
names come from ``BENCHMARK.json``; input parameters from ``spec.py``.
Load comes from one process at a time, serially (``jobs=1``), with numeric
libraries pinned to one thread.

``--trace 0`` measures the end-to-end metrics.  One fresh process builds
the workload's inputs, runs the same requests once on small instances
(an untimed warm-up), then repeats the whole workload (a *pass*) while
one more pass, as long as the last, still fits in ``--seconds``.  A pass
times each of its requests from submit to result; ``wall_s`` sums, over
the requests, each one's fastest time across the passes, and
``cells_per_s`` is the cells of one pass over ``wall_s``.  On a shared
virtual machine other tenants only ever slow a request down (by up to
1.5x, for seconds to minutes), so the fastest time is the steadiest
estimate of what the code costs, and taking it per request rather than
per pass uses the quiet stretches of every pass.
``peak_rss_mb`` is the process's own ``ru_maxrss``, so memory belongs to
this workload alone.  Set-up is timed from process start until the inputs,
store or app and requests are ready; :data:`SETUPS` fresh processes set up
one after another (the measuring one first) and ``setup_s`` is their
median.

``--trace 1`` measures the per-layer metrics in one fresh process: the
warm-up, then traced, untraced and traced passes on the same inputs.  Layer
metrics come from the first traced pass; its deterministic counters must
equal the second's; the tracing overhead is the traced minus the untraced
wall time.  Spans are written to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

Every pass checks its outputs.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 1 when a check failed and 2 when the benchmark could not
run (for instance without the ``src/`` tree beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh processes whose set-up time an untraced run takes the median of.
SETUPS = 3
#: Hard limit on one whole run; a child still alive then is killed.
RUN_LIMIT_S = 170.0
#: Counters that must repeat exactly between two traced passes.
DETERMINISTIC = (
    "engine.cache.tree_builds", "btsp.best_tour_calls", "frontier.probes",
    "store.rows",
)

sys.path.insert(0, str(HERE))
import spec  # noqa: E402  (stdlib only)


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def _load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


# -- child process: one workload, set-up then passes -------------------------------


def _warm_up(args: argparse.Namespace, workdir: Path) -> None:
    """The same requests on small instances, untimed and untraced."""
    from workloads import RUNNERS, NullTracer

    small = RUNNERS[args.workload](args.seed, workdir, NullTracer(),
                                   spec.warmup_params(args.workload))
    small.run_pass(-1)


def _traced_passes(runner, args: argparse.Namespace):
    """Traced, untraced, traced passes.

    Returns the passes and the per-layer metrics of the first traced pass,
    plus the tracing overhead and whether the deterministic counters
    repeated in the second traced pass (a mismatch fails the last pass).
    """
    from repro.kernels.instrument import recording
    from tracing import KERNEL_COUNTERS, Tracer, per_layer_metrics
    from workloads import NullTracer

    passes, traced = [], []
    for on in (True, False, True):
        tracer = Tracer() if on else None
        runner.tracer = tracer or NullTracer()
        if tracer:
            tracer.install()
        try:
            with recording() as kernels:
                passes.append(runner.run_pass(len(passes)))
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            traced.append((tracer, per_layer_metrics(tracer, kernels.as_dict())))
    keys = DETERMINISTIC + tuple(f"kernels.{k}" for k in KERNEL_COUNTERS)
    (first, layers), (_, again) = traced
    diff = [k for k in keys if layers[k] != again[k]]
    if diff:
        passes[-1].failed += 1
        passes[-1].failures.append(f"counters differ between traced passes: {diff}")
    walls = [sum(p.latencies.values()) for p in passes]
    traced_wall = statistics.median((walls[0], walls[2]))
    metrics = dict(layers)
    metrics["trace.counters_repeat"] = (float(not diff), "count")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (walls[1], "s")
    metrics["trace.overhead_s"] = (traced_wall - walls[1], "s")
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "per_layer": metrics, "spans": first.dump()}
    ))
    return passes, metrics


def _timed_passes(runner, budget: float, start: float) -> list:
    """Whole passes while one more, as long as the last, fits in the budget."""
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(runner.run_pass(len(passes)))
        now = time.perf_counter()
        if now - start + (now - t0) > budget:
            return passes


def _child(args: argparse.Namespace) -> int:
    # The protocol keeps a private copy of stdout; everything else written
    # to fd 1 (Python or native) goes to stderr instead.
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    import resource
    from workloads import RUNNERS, NullTracer

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = RUNNERS[args.workload](args.seed, workdir, NullTracer())
        proto.write(json.dumps({"event": "ready"}) + "\n")
        start = time.perf_counter()
        passes, extra = [], {}
        if args.trace:
            _warm_up(args, workdir)
            passes, per_layer = _traced_passes(runner, args)
            extra = {"per_layer": per_layer}
        elif args.budget > 0:
            _warm_up(args, workdir)
            passes = _timed_passes(runner, args.budget, start)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        proto.write(json.dumps({
            "event": "done",
            "peak_rss_mb": peak_mb,
            "passes": [p.__dict__ for p in passes],
            **extra,
        }) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# -- parent: spawn children, combine, print ------------------------------------------


def _spawn(args: argparse.Namespace, name: str, budget: float, deadline: float):
    """Run one child; returns ``(setup_s, done_message)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("REPRO_BACKEND", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", name, "--seed", str(args.seed),
           "--trace", str(args.trace), "--budget", repr(budget)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    setup_s = done = None
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if msg["event"] == "ready":
                setup_s = time.perf_counter() - t0
            elif msg["event"] == "done":
                done = msg
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    if code != 0 or setup_s is None or done is None:
        raise BenchError(f"{name} child exited with code {code} before reporting")
    return setup_s, done


def _run_workload(args: argparse.Namespace, bench: dict, name: str,
                  deadline: float) -> dict:
    runs = [_spawn(args, name, args.seconds, deadline)]
    if not args.trace:
        runs += [_spawn(args, name, 0.0, deadline) for _ in range(SETUPS - 1)]
    passes = runs[0][1]["passes"]
    failures = [f for p in passes for f in p["failures"]]
    digests = passes[0]["digests"]
    drift = any(p["digests"] != digests for p in passes)
    if drift:
        failures.append("outputs differ between passes of the same inputs")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + drift
    if args.trace:
        metrics = runs[0][1]["per_layer"]
        wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
        wrong = sorted(k for k, u in wanted.items()
                       if k not in metrics or metrics[k][1] != u)
        if wrong:
            raise BenchError("per-layer metrics missing, or in another unit "
                             f"than BENCHMARK.json gives: {wrong}")
        gated = {k: metrics[k] for k in wanted}
    else:
        fastest = {r: min(p["latencies"][r] for p in passes)
                   for r in passes[0]["latencies"]}
        wall = sum(fastest.values())
        e2e = {
            "setup_s": statistics.median(s for s, _ in runs),
            "wall_s": wall,
            "cells_per_s": passes[0]["cells"] / wall,
            "peak_rss_mb": runs[0][1]["peak_rss_mb"],
            "fail_ratio": failed / attempted if attempted else 1.0,
        }
        for key, requests in spec.WORKLOADS[name].get("latencies", {}).items():
            e2e[key] = sum(fastest[r] for r in requests)
        e2e.update(passes[0]["quality"])  # deterministic: equal in every pass
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        gated = {k: (e2e[k], u) for k, u in units.items()}
        metrics = gated | {k: (e2e[k], spec.EXTRA_UNITS[k])
                           for k in spec.WORKLOADS[name]["extra"]}
    print(f"{name}  seed {args.seed}: {len(runs)} process(es), {len(passes)} passes, "
          f"{attempted} checks, {failed} failed")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:>14.6g} {unit}")
    for req in passes[0]["latencies"]:
        times = " ".join(f"{p['latencies'][req]:.3f}" for p in passes)
        print(f"  request {req:<28} {times} s")
    for label, digest in sorted(digests.items()):
        print(f"  digest {label:<29} {digest}")
    for line in failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}}


def _parse(argv: "list[str] | None", names: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print each workload's inputs, reason and layer map")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.describe and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: "list[str] | None" = None) -> int:
    try:
        bench = _load_benchmark()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    args = _parse(argv, list(why))
    if args.describe:
        print(json.dumps(spec.describe(why), indent=2))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        if args.child:
            return _child(args)
        names = list(why) if args.workload == "all" else [args.workload]
        deadline = time.perf_counter() + RUN_LIMIT_S * len(names)
        results = {name: _run_workload(args, bench, name, deadline) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
