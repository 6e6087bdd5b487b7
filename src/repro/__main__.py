"""Command-line interface: ``python -m repro <command>``.

Commands
--------
plan       orient antennae for a CSV of sensor coordinates
bounds     print the paper's Table 1 (optionally evaluated at a phi)
render     write an SVG picture of a saved orientation
validate   re-check a saved orientation's certificate
sweep      run a (workload × n) × (k × phi) batch through the engine
frontier   adaptively bisect phi to a metric threshold (or map its staircase)
ensemble   Monte-Carlo trials over a perturbation model: connection-
           probability curves, or probabilistic phi frontiers
merge      aggregate the shard ledgers of one or more run directories
store      maintain a run directory (compact shard ledgers, gc leftovers)
serve      run the planning service HTTP API over a run directory
worker     claim and execute queued plans' shards from a run directory

``sweep``, ``frontier``, ``ensemble`` and ``worker`` share one
durable-execution option group
(``--run-dir/--resume/--shard/--backend/--jobs``); ``--backend`` is
also selectable via the ``REPRO_BACKEND`` environment variable, and
results are bit-identical across backends.  The table-emitting commands
(``sweep``/``frontier``/``ensemble``/``merge``) share one output option
group (``--output``/``--format``).
"""

from __future__ import annotations

import argparse
import math
import sys

#: The exit-code contract shared by every subcommand (also in README.md).
_EXIT_CODES = """\
exit codes:
  0  success
  1  a validation/certificate check failed (plan, validate)
  2  usage, store, or backend error (bad parameters, refused ledger,
     unknown backend, missing --run-dir)
  3  execution stopped at a cancellation tombstone (repro sweep/frontier/
     ensemble --resume after clearing it continues from the ledgered chunks)
"""


#: Mirror of :data:`repro.engine._spec.FRONTIER_METRICS`, kept literal so
#: ``repro --help`` does not pay the numpy/workloads import; the lockstep
#: is asserted by ``test_metric_choices_track_the_spec``.
_FRONTIER_METRIC_CHOICES = ("critical_range", "realized_range", "range_bound")


def _parse_phi(text: str) -> float:
    """Accept plain radians or pi-expressions like 'pi', '2pi/3', '1.2pi'."""
    t = text.strip().lower().replace(" ", "")
    if "pi" in t:
        coeff, _, rest = t.partition("pi")
        num = float(coeff) if coeff not in ("", "+") else 1.0
        if rest.startswith("/"):
            num /= float(rest[1:])
        elif rest:
            raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")
        return num * math.pi
    return float(t)


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.planner import orient_antennae
    from repro.io import points_from_csv, save_result

    points = points_from_csv(args.input)
    result = orient_antennae(points, args.k, args.phi)
    print(result.summary())
    report = result.validate()
    print(f"certificate: {report.summary()}")
    if args.output:
        save_result(result, args.output)
        print(f"wrote {args.output}")
    return 0 if report.ok else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    from repro.core.bounds import paper_range_bound, table1_rows
    from repro.utils.tables import format_ascii_table

    rows = [
        [r.k, r.phi_description, r.range_formula, r.source] for r in table1_rows()
    ]
    print(format_ascii_table(["k", "phi", "range", "source"], rows,
                             title="Paper Table 1"))
    if args.phi is not None:
        print()
        for k in range(1, 6):
            bound, source = paper_range_bound(k, args.phi)
            print(f"  k={k}, phi={args.phi:.4f}: range <= {bound:.4f} lmax ({source})")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from repro.io import load_result
    from repro.viz.svg import render_orientation_svg

    result = load_result(args.input)
    svg = render_orientation_svg(result, size=args.size)
    with open(args.output, "w", encoding="utf8") as fh:
        fh.write(svg)
    print(f"wrote {args.output} ({len(svg)} bytes)")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.io import load_result

    result = load_result(args.input)
    report = result.validate()
    print(result.summary())
    print(report.summary())
    return 0 if report.ok else 1


def _batch_rows(batch, aggregate: str) -> list[dict]:
    return (
        batch.aggregate_by_cell()
        if aggregate == "cell"
        else batch.aggregate_by_scenario_cell()
    )


def _require_rows(tag: str, rows: list[dict]) -> bool:
    """False (with a clean stderr message) when there is nothing to tabulate
    — a shard owning none of a small plan's instances, or an empty ledger."""
    if rows:
        return True
    print(
        f"error: no instances to aggregate (the {tag} covers no completed "
        "plan instances)",
        file=sys.stderr,
    )
    return False


#: Columns whose value identifies a configuration (a grid cell's φ, a
#: frontier target).  They render at full ``repr`` precision — two distinct
#: φ values closer than 5e-5 must not collapse to one label in the table —
#: while measurement columns keep the short 4-digit display form.
_IDENTITY_COLUMNS = frozenset({"phi", "target"})


def _render_rows(batch, rows: list[dict], fmt: str) -> str:
    """Render aggregate rows as a markdown table or a JSON document."""
    import json

    from repro.utils.tables import format_markdown_table

    if fmt == "json":
        return json.dumps(
            {
                "request": batch.request.describe(),
                "jobs": batch.jobs_used,
                "elapsed_s": round(batch.elapsed, 4),
                "cache": batch.cache_stats.as_dict(),
                "rows": rows,
            },
            indent=2,
        )

    def cell(h, v):
        if isinstance(v, float):
            return repr(v) if h in _IDENTITY_COLUMNS else round(v, 4)
        return v

    headers = list(rows[0])
    cells = [[cell(h, row[h]) for h in headers] for row in rows]
    return format_markdown_table(headers, cells)


def _emit_table(
    tag: str, batch, rows: list[dict], body: str, output: str | None, run_dir
) -> None:
    """Write/print the table, then a one-line success summary to stderr."""
    from repro.store import hit_rate

    if output:
        with open(output, "w", encoding="utf8") as fh:
            fh.write(body + "\n")
        destination = output
    else:
        print(body)
        destination = "stdout"
    where = f", run dir {run_dir}" if run_dir else ""
    if hasattr(batch, "records"):  # sweep: one run per (instance, cell)
        runs = len(batch.records)
    elif hasattr(batch, "trial_totals"):  # ensemble: one run per slot
        runs = len(batch.outcomes)
    else:  # frontier: one solved frontier per (instance, k)
        runs = sum(len(o.frontiers) for o in batch.outcomes)
    print(
        f"[{tag}] wrote {len(rows)} rows x {len(rows[0])} cols to {destination} "
        f"({runs} runs, cache hit rate "
        f"{hit_rate(batch.cache_stats):.0%}{where})",
        file=sys.stderr, flush=True,
    )


def _run_batch_command(
    tag: str,
    args: argparse.Namespace,
    build_request,
    execute,
    unit: str,
    unit_count,
    rows_of,
) -> int:
    """Shared scaffolding of the ``sweep`` and ``frontier`` subcommands:
    request/shard validation, the run-dir guard, progress reporting,
    StoreError handling, and table emission.  The subcommands differ only
    in how the request is built (``build_request``), which executor runs it
    (``execute(request, **engine_kwargs)``), the per-instance work unit
    (``unit_count(request)`` × ``unit``, e.g. grid "cells" or per-k
    "frontiers"), and how aggregate rows come out of the batch
    (``rows_of``)."""
    from repro.engine import Shard
    from repro.kernels import BackendUnavailable
    from repro.store import RunStore, StoreError

    try:
        request = build_request()
        shard = Shard.parse(args.shard) if args.shard else Shard()
    except Exception as exc:  # invalid workload/k/phi/shard/backend combos
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = RunStore(args.run_dir) if args.run_dir else None
    if store is None and (args.resume or not shard.is_whole):
        print("error: --resume and --shard require --run-dir", file=sys.stderr)
        return 2
    if store is not None and args.resume:
        # An explicit resume is the "run this after all" signal: a leftover
        # cancellation tombstone must not immediately re-stop the run.
        store.clear_cancel(request.fingerprint())
    print(f"[{tag}] {request.describe()}", file=sys.stderr, flush=True)

    def progress(report) -> None:
        scenario = request.scenarios[report.scenario_index]
        print(
            f"[{tag}] {scenario.label} seed {report.instance_index}: "
            f"{unit_count(request)} {unit} in {report.elapsed:.2f}s",
            file=sys.stderr, flush=True,
        )

    from repro.errors import PlanCancelled

    try:
        batch = execute(
            request, jobs=args.jobs, on_instance=progress,
            store=store, shard=shard, resume=args.resume,
        )
    except PlanCancelled as exc:
        print(f"[{tag}] {exc}", file=sys.stderr)
        return 3
    except (StoreError, BackendUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if batch.fallback_reason:
        print(f"[{tag}] {batch.fallback_reason}", file=sys.stderr)
    print(f"[{tag}] {batch.summary()}", file=sys.stderr, flush=True)

    rows = rows_of(batch)
    if not _require_rows("shard", rows):
        return 2
    body = _render_rows(batch, rows, args.format)
    _emit_table(tag, batch, rows, body, args.output, args.run_dir)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine import PlanRequest, execute_plan

    def build_request():
        return PlanRequest.sweep(
            workloads=args.workload,
            sizes=args.n,
            seeds=args.seeds,
            ks=args.k,
            phis=args.phi,
            tag=args.tag,
            compute_critical=not args.no_critical,
            mode=args.mode,
            backend=args.backend,
        )

    return _run_batch_command(
        "sweep", args, build_request, execute_plan,
        unit="cells", unit_count=lambda req: len(req.grid),
        rows_of=lambda b: _batch_rows(b, args.aggregate),
    )


def cmd_frontier(args: argparse.Namespace) -> int:
    from repro.engine import FrontierRequest, Scenario
    from repro.frontier import execute_frontier

    def build_request():
        return FrontierRequest(
            scenarios=tuple(
                Scenario(w, int(n), seeds=args.seeds, tag=args.tag)
                for w in args.workload
                for n in args.n
            ),
            ks=tuple(args.k),
            metric=args.metric,
            target=args.target,
            phi_lo=args.phi_lo,
            phi_hi=args.phi_hi,
            tol=args.tol,
            mode=args.mode,
            backend=args.backend,
        )

    return _run_batch_command(
        "frontier", args, build_request, execute_frontier,
        unit="frontiers", unit_count=lambda req: len(req.ks),
        rows_of=lambda b: b.aggregate_rows(),
    )


def cmd_ensemble(args: argparse.Namespace) -> int:
    from repro.engine import GridCell, Scenario
    from repro.ensemble import EnsembleRequest, Perturbation, execute_ensemble

    def build_request():
        scenarios = tuple(
            Scenario(w, int(n), seeds=args.seeds, tag=args.tag)
            for w in args.workload
            for n in args.n
        )
        perturbation = Perturbation(
            rotate=args.rotate,
            edge_fail=args.edge_fail,
            node_fail=args.node_fail,
            fade_sigma=args.fade_sigma,
        )
        common = dict(
            scenarios=scenarios,
            trials=args.trials,
            chunk=args.chunk,
            perturbation=perturbation,
            confidence=args.confidence,
            early_stop=not args.no_early_stop,
            compute_critical=not args.no_critical,
            mode=args.mode,
            backend=args.backend,
        )
        if args.phi is not None:
            # Curve mode; the request itself rejects a simultaneous
            # --p-target/--target with a precise message.
            if args.p_target is not None or args.target is not None:
                raise ValueError(
                    "--phi (curve mode) and --p-target/--target "
                    "(threshold mode) are mutually exclusive"
                )
            grid = tuple(
                GridCell(k, phi) for k in args.k for phi in args.phi
            )
            return EnsembleRequest(
                grid=grid, quantile=args.quantile, **common
            )
        return EnsembleRequest(
            ks=tuple(args.k),
            metric=args.metric,
            p_target=args.p_target,
            quantile=args.quantile,
            target=args.target,
            phi_lo=args.phi_lo,
            phi_hi=args.phi_hi,
            tol=args.tol,
            **common,
        )

    return _run_batch_command(
        "ensemble", args, build_request, execute_ensemble,
        unit="results",
        unit_count=lambda req: len(req.grid) or len(req.ks),
        rows_of=lambda b: b.aggregate_rows(),
    )


def cmd_merge(args: argparse.Namespace) -> int:
    from repro.api import assemble_rows
    from repro.store import StoreError, merge_stores

    try:
        key, request, ledger_rows = merge_stores(args.run_dir, args.plan)
        batch = assemble_rows(
            request, ledger_rows, allow_partial=args.allow_partial
        )
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"[merge] plan {key[:12]} "
        f"({getattr(request, 'mode', 'strong')} connectivity): "
        f"{request.describe()}",
        file=sys.stderr, flush=True,
    )
    print(f"[merge] {batch.summary()}", file=sys.stderr, flush=True)

    if hasattr(batch, "aggregate_rows"):  # frontier/ensemble
        if args.aggregate != "cell":
            print(
                "[merge] note: --aggregate is ignored for frontier and "
                "ensemble plans (their row layout is fixed by the request)",
                file=sys.stderr,
            )
        rows = batch.aggregate_rows()
    else:
        rows = _batch_rows(batch, args.aggregate)
    if not _require_rows("ledger", rows):
        return 2
    body = _render_rows(batch, rows, args.format)
    _emit_table("merge", batch, rows, body, args.output,
                " + ".join(str(d) for d in args.run_dir))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import create_app
    from repro.service.http import serve

    app = create_app(
        args.run_dir,
        backend=args.backend,
        jobs=args.jobs,
        execute=not args.no_execute,
    )
    mode = "queue-only (drain with 'repro worker')" if args.no_execute else \
        "executing submissions in-process"
    print(
        f"[serve] http://{args.host}:{args.port} over run dir {args.run_dir} "
        f"({mode})",
        file=sys.stderr, flush=True,
    )
    try:
        asyncio.run(serve(app, args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.engine import Shard
    from repro.service.worker import run_workers
    from repro.store import StoreError

    if not args.run_dir:
        print("error: worker requires --run-dir", file=sys.stderr)
        return 2
    try:
        shard = Shard.parse(args.shard) if args.shard else None
        if args.workers < 1:
            raise StoreError(f"--workers must be >= 1, got {args.workers}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pin = f", claims restricted to shard {shard.label}" if shard else ""
    print(
        f"[worker] draining {args.run_dir} with {args.workers} worker "
        f"process(es){pin}",
        file=sys.stderr, flush=True,
    )
    try:
        run_workers(
            args.run_dir,
            args.workers,
            backend=args.backend,
            jobs=args.jobs,
            once=not args.forever,
            poll=args.poll,
            shard=None if shard is None else (shard.index, shard.count),
        )
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    from repro.store import RunStore, StoreError, compact_plan, gc_store

    store = RunStore(args.run_dir)
    try:
        if args.action == "compact":
            report = compact_plan(store, args.plan, dry_run=args.dry_run)
        else:
            report = gc_store(store, args.plan, dry_run=args.dry_run)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prefix = "[store] (dry run) " if args.dry_run else "[store] "
    print(prefix + report.summary())
    return 0


def _durable_options() -> argparse.ArgumentParser:
    """The parent option group shared by ``sweep``/``frontier``/``worker``.

    One definition keeps the durable-execution surface identical across
    every command that touches a run directory; subcommands inherit it via
    ``parents=[...]``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group(
        "durable execution options",
        "shared by 'sweep', 'frontier' and 'worker'",
    )
    g.add_argument("--run-dir", default=None,
                   help="run directory: persist/claim per-instance ledgers "
                        "here (required for worker)")
    g.add_argument("--resume", action="store_true",
                   help="replay already-ledgered instances from --run-dir "
                        "and clear any cancellation tombstone (worker always "
                        "resumes)")
    g.add_argument("--shard", default=None, metavar="I/M",
                   help="execute (sweep/frontier) or claim (worker) only "
                        "shard I of M disjoint plan partitions (e.g. 0/2)")
    g.add_argument("--backend", default=None,
                   help="kernel routing: numpy (dense tables), sparse "
                        "(radius-bounded candidate pairs) or auto (sparse "
                        "from REPRO_SPARSE_AUTO_N points, default 4096); "
                        "default: the REPRO_BACKEND environment variable, "
                        "else numpy.  Results are bit-identical under "
                        "every name")
    g.add_argument("--jobs", type=int, default=1,
                   help="worker processes per execution (default: 1 = serial)")
    return parent


def _mode_options() -> argparse.ArgumentParser:
    """The connectivity-mode option shared by every plan-building command.

    ``sweep``/``frontier``/``ensemble`` all evaluate their objective under
    one :data:`repro.kernels.connectivity.CONNECTIVITY_MODES` member;
    defining the flag once keeps the spelling (and the help text's
    identity caveat) identical across them.
    """
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group(
        "connectivity mode",
        "shared by 'sweep', 'frontier' and 'ensemble'",
    )
    g.add_argument("--mode", choices=("strong", "symmetric"),
                   default="strong",
                   help="connectivity objective: 'strong' (directed strong "
                        "connectivity, the paper's default) or 'symmetric' "
                        "(links count only when both endpoints cover each "
                        "other; bounded-angle tree construction).  Part of "
                        "the plan's identity, so the two modes never share "
                        "a run-directory ledger (default: strong)")
    return parent


def _output_options() -> argparse.ArgumentParser:
    """The output option group shared by every table-emitting command.

    ``sweep``/``frontier``/``ensemble``/``merge`` all spell table emission
    the same way; defining the group once makes that a structural
    guarantee instead of a convention.
    """
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group(
        "output options",
        "shared by 'sweep', 'frontier', 'ensemble' and 'merge'",
    )
    g.add_argument("--format", choices=("markdown", "json"),
                   default="markdown",
                   help="table format (default: markdown)")
    g.add_argument("--output", default=None,
                   help="write the table/JSON here instead of stdout")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    durable = _durable_options()
    output = _output_options()
    mode = _mode_options()

    p = sub.add_parser("plan", help="orient antennae for a CSV deployment")
    p.add_argument("--input", required=True, help="CSV of x,y sensor coordinates")
    p.add_argument("--k", type=int, required=True, help="antennae per sensor")
    p.add_argument("--phi", type=_parse_phi, required=True,
                   help="angular-sum budget (radians; accepts 'pi', '2pi/3')")
    p.add_argument("--output", help="write the orientation JSON here")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("bounds", help="print the paper's Table 1")
    p.add_argument("--phi", type=_parse_phi, default=None,
                   help="also evaluate every k at this phi")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("render", help="render a saved orientation as SVG")
    p.add_argument("--input", required=True, help="orientation JSON")
    p.add_argument("--output", required=True, help="SVG path")
    p.add_argument("--size", type=int, default=640)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("validate", help="re-check a saved orientation")
    p.add_argument("--input", required=True, help="orientation JSON")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "sweep",
        help="run a (workload × n) × (k × phi) batch through the engine",
        parents=[durable, output, mode], epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--workload", nargs="+", default=["uniform"],
                   help="workload generator names (default: uniform)")
    p.add_argument("--n", nargs="+", type=int, default=[64],
                   help="instance sizes (default: 64)")
    p.add_argument("--seeds", type=int, default=3,
                   help="instances per (workload, n) (default: 3)")
    p.add_argument("--k", nargs="+", type=int, default=[1, 2],
                   help="antennae-per-sensor values (default: 1 2)")
    p.add_argument("--phi", nargs="+", type=_parse_phi, default=[math.pi],
                   help="angular budgets (radians; accepts 'pi', '2pi/3')")
    p.add_argument("--tag", default="sweep",
                   help="seed namespace for the scenario instances")
    p.add_argument("--no-critical", action="store_true",
                   help="skip the (expensive) critical-range measurement")
    p.add_argument("--aggregate", choices=("cell", "scenario"), default="cell",
                   help="one row per grid cell, or per (scenario, cell)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "frontier",
        help="adaptively bisect phi to a metric threshold or map its staircase",
        parents=[durable, output, mode], epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--workload", nargs="+", default=["uniform"],
                   help="workload generator names (default: uniform)")
    p.add_argument("--n", nargs="+", type=int, default=[64],
                   help="instance sizes (default: 64)")
    p.add_argument("--seeds", type=int, default=3,
                   help="instances per (workload, n) (default: 3)")
    p.add_argument("--k", nargs="+", type=int, default=[1, 2],
                   help="antennae-per-sensor values (default: 1 2)")
    p.add_argument("--metric", choices=_FRONTIER_METRIC_CHOICES,
                   default="critical_range",
                   help="metric to bisect on (default: critical_range)")
    p.add_argument("--target", type=float, default=None,
                   help="find the smallest phi with metric <= TARGET; "
                        "omit to map the metric-vs-phi staircase instead")
    p.add_argument("--phi-lo", type=_parse_phi, default=0.0,
                   help="lower end of the phi search interval (default: 0)")
    p.add_argument("--phi-hi", type=_parse_phi, default=2 * math.pi,
                   help="upper end of the phi search interval (default: 2pi)")
    p.add_argument("--tol", type=float, default=1e-3,
                   help="phi resolution of the search (default: 1e-3)")
    p.add_argument("--tag", default="frontier",
                   help="seed namespace for the scenario instances")
    p.set_defaults(fn=cmd_frontier)

    p = sub.add_parser(
        "ensemble",
        help="Monte-Carlo trials over a perturbation model: connection-"
             "probability curves or probabilistic phi frontiers",
        parents=[durable, output, mode], epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Runs M perturbed trials (random rotations, edge/node "
                    "failures, range fading) per instance.  With --phi the "
                    "command estimates P(connected under --mode) and critical-"
                    "range quantiles at every (k, phi) grid cell (curve "
                    "mode); with --p-target or --target it bisects phi for "
                    "the smallest budget meeting the probabilistic predicate "
                    "(threshold mode), early-stopping each probe on its "
                    "Wilson interval.  Trials are counter-seeded from the "
                    "plan fingerprint, so shards, resumes and worker counts "
                    "are bit-identical.",
    )
    p.add_argument("--workload", nargs="+", default=["uniform"],
                   help="workload generator names (default: uniform)")
    p.add_argument("--n", nargs="+", type=int, default=[64],
                   help="instance sizes (default: 64)")
    p.add_argument("--seeds", type=int, default=3,
                   help="instances per (workload, n) (default: 3)")
    p.add_argument("--k", nargs="+", type=int, default=[1, 2],
                   help="antennae-per-sensor values (default: 1 2)")
    p.add_argument("--phi", nargs="+", type=_parse_phi, default=None,
                   help="curve mode: estimate connection probability at "
                        "each (k, phi) cell; omit to bisect a threshold")
    p.add_argument("--trials", type=int, default=100,
                   help="Monte-Carlo trials per instance/probe (default: 100)")
    p.add_argument("--chunk", type=int, default=25,
                   help="trials per checkpoint/early-stop chunk (default: 25)")
    p.add_argument("--rotate", action="store_true",
                   help="rotate each sensor's antenna fan by U[0, 2pi)")
    p.add_argument("--edge-fail", type=float, default=0.0,
                   help="independent failure probability per directed link")
    p.add_argument("--node-fail", type=float, default=0.0,
                   help="independent knockout probability per sensor")
    p.add_argument("--fade-sigma", type=float, default=0.0,
                   help="sigma of the per-sensor log-normal range fade")
    p.add_argument("--p-target", type=float, default=None,
                   help="threshold mode: smallest phi with "
                        "P(connected under --mode) >= P_TARGET")
    p.add_argument("--metric", choices=_FRONTIER_METRIC_CHOICES,
                   default="critical_range",
                   help="metric for the quantile predicate "
                        "(default: critical_range)")
    p.add_argument("--quantile", type=float, default=0.9,
                   help="quantile order q for --target, and the reported "
                        "critical-range quantile in curve mode (default: 0.9)")
    p.add_argument("--target", type=float, default=None,
                   help="threshold mode: smallest phi with "
                        "quantile_q(metric) <= TARGET (lmax units)")
    p.add_argument("--phi-lo", type=_parse_phi, default=0.0,
                   help="lower end of the phi search interval (default: 0)")
    p.add_argument("--phi-hi", type=_parse_phi, default=2 * math.pi,
                   help="upper end of the phi search interval (default: 2pi)")
    p.add_argument("--tol", type=float, default=1e-3,
                   help="phi resolution of the search (default: 1e-3)")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="Wilson-interval confidence for early stopping and "
                        "reported intervals (default: 0.95)")
    p.add_argument("--no-early-stop", action="store_true",
                   help="always run the full trial budget per probe")
    p.add_argument("--no-critical", action="store_true",
                   help="curve mode: skip per-trial critical-range "
                        "measurement (connectivity only)")
    p.add_argument("--tag", default="ensemble",
                   help="seed namespace for the scenario instances")
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser(
        "merge",
        help="aggregate the shard ledgers of one or more run directories",
        parents=[output],
    )
    p.add_argument("--run-dir", nargs="+", required=True,
                   help="run directories holding shard ledgers of one plan")
    p.add_argument("--plan", default=None,
                   help="plan key (prefix) when a directory records several")
    p.add_argument("--allow-partial", action="store_true",
                   help="aggregate even if some plan instances are missing")
    p.add_argument("--aggregate", choices=("cell", "scenario"), default="cell",
                   help="one row per grid cell, or per (scenario, cell)")
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser(
        "serve",
        help="run the planning service HTTP API over a run directory",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--run-dir", required=True,
                   help="run directory all jobs live in")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port (default: 8321)")
    p.add_argument("--backend", default=None,
                   help="kernel backend for in-process execution")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes per executed plan (default: 1)")
    p.add_argument("--no-execute", action="store_true",
                   help="queue submissions without executing them; drain the "
                        "run directory with 'repro worker' instead")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="claim and execute queued plans' shards from a run directory",
        parents=[durable], epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Each worker process claims unowned shards of queued "
                    "plans via atomic claim files and executes them through "
                    "the standard resume path, so N workers sharing one run "
                    "directory produce output bit-identical to a serial run. "
                    "--resume is implied; --shard restricts which partition "
                    "this invocation may claim.",
    )
    p.add_argument("--workers", type=int, default=1,
                   help="number of worker processes to run (default: 1)")
    p.add_argument("--forever", action="store_true",
                   help="keep polling for new queued plans instead of "
                        "exiting when the queue drains")
    p.add_argument("--poll", type=float, default=0.5,
                   help="seconds between queue polls (default: 0.5)")
    p.set_defaults(fn=cmd_worker)

    p = sub.add_parser(
        "store",
        help="maintain a run directory (compact shard ledgers, gc leftovers)",
    )
    p.add_argument("action", choices=("compact", "gc"),
                   help="compact: archive a plan's shard ledgers into one "
                        "file; gc: drop tmp leftovers and row-less plans "
                        "that are not queued, or are cancelled")
    p.add_argument("--run-dir", required=True,
                   help="run directory to maintain")
    p.add_argument("--plan", default=None,
                   help="plan key (prefix); compact: required when several "
                        "plans share the directory; gc: remove this plan "
                        "entirely")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would change without touching files")
    p.set_defaults(fn=cmd_store)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
