"""Check (or rewrite) the pinned deterministic counters of the traced perfbench.

Run it after a traced end-to-end benchmark run, from the repository root::

    python3 perfbench/run.py --workload all --seed 7 --seconds 1 --trace 1
    python3 benchmarks/perfbench_counters.py           # exit 1 on any difference
    python3 benchmarks/perfbench_counters.py --write   # pin the current values

It reads each workload's ``.perfbench_out/trace-<workload>-seed<seed>.json``
and compares the deterministic counters among its ``per_layer`` metrics with
``tests/fixtures/perfbench_counters.json``: every ``kernels.*`` count, the
cache's tree and table builds, ``btsp.best_tour_calls``, ``frontier.probes``,
``store.rows`` and every ``core.construct.*.calls``.  Left out are
``trace.spans`` and ``service.poll_count``, which follow how often the
service client happened to poll, and ``store.bytes``, which follows the
printed length of ledgered timings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "perfbench_counters.json"
TRACES = ROOT / ".perfbench_out"
SEED = 7
NAMES = (
    "engine.cache.tree_builds", "engine.cache.table_builds",
    "btsp.best_tour_calls", "frontier.probes", "store.rows",
)


def pinned(per_layer: dict) -> dict[str, float]:
    """The deterministic counters among one trace's per-layer metrics."""
    return {
        name: value
        for name, (value, unit) in sorted(per_layer.items())
        if unit == "count" and (
            name in NAMES
            or name.startswith("kernels.")
            or (name.startswith("core.construct.") and name.endswith(".calls"))
        )
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the fixture from the traces instead")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    got = {}
    for workload in workloads:
        trace = TRACES / f"trace-{workload}-seed{SEED}.json"
        got[workload] = pinned(json.loads(trace.read_text())["per_layer"])
    if args.write:
        FIXTURE.write_text(json.dumps({"seed": SEED, "workloads": got}, indent=2) + "\n")
        return 0
    want = json.loads(FIXTURE.read_text())["workloads"]
    diff = [
        f"{workload} {name}: traced {got[workload].get(name)}, "
        f"pinned {want.get(workload, {}).get(name)}"
        for workload in workloads
        for name in sorted(set(got[workload]) | set(want.get(workload, {})))
        if got[workload].get(name) != want.get(workload, {}).get(name)
    ]
    for line in diff:
        print(line, file=sys.stderr)
    print(f"{len(diff)} pinned perfbench counters differ" if diff
          else "every pinned perfbench counter matches")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
