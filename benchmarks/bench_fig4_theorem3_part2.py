"""Benchmark F4 — Figure 4 / Theorem 3 part 2 (2π/3 ≤ φ < π) sweep."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_once
from repro.experiments.fig34_theorem3 import run_fig4


def test_fig4_phi_sweep(benchmark):
    rec = run_once(
        benchmark, run_fig4,
        phis=(2 * np.pi / 3, 0.75 * np.pi, 0.85 * np.pi, 0.95 * np.pi),
        trials=20,
    )
    print()
    print(rec.to_ascii())
    assert all(row[3] for row in rec.rows), "a part-2 configuration failed"
    # The bound decreases as phi grows (more spread, less range).
    bounds = [row[1] for row in rec.rows]
    assert bounds == sorted(bounds, reverse=True)


def test_theorem3_array_pass_vs_loop_report():
    """Time the array-native construction against the per-vertex loop it
    replaced and write ``BENCH_theorem3.json`` at the repository root
    (untracked); the recorded measurement is
    ``benchmarks/baselines/BENCH_theorem3.json``.

    Both run in this process on the same point sets and trees: the min of
    several calls per case, for part 1 (phi = pi) and part 2 (phi = 0.8pi)
    at n = 128 (uniform, clustered) and n = 2*10^4 (uniform).  Wall-clock
    is informational; the asserted quantity is the case census, which
    must be the loop's.
    """
    import json
    import os
    import platform
    import time
    from pathlib import Path

    from repro.core.theorem3 import orient_theorem3
    from repro.experiments.workloads import make_workload
    from repro.geometry.points import PointSet
    from repro.spanning.emst import euclidean_mst
    from tests import construction_reference as ref

    calls = 5

    def best_of(fn):
        best = float("inf")
        for _ in range(calls):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
        return best, out

    rows = []
    for workload, n in (("uniform", 128), ("clustered", 128), ("uniform", 20000)):
        ps = PointSet(make_workload(workload, n, 1))
        tree = euclidean_mst(ps)
        for part, phi in ((1, np.pi), (2, 0.8 * np.pi)):
            t_array, new = best_of(lambda: orient_theorem3(ps, phi, tree=tree, part=part))
            t_loop, old = best_of(lambda: ref.orient_theorem3(ps, phi, tree=tree, part=part))
            assert new.stats["cases"] == old.stats["cases"]
            rows.append({
                "workload": workload,
                "n": n,
                "part": part,
                "phi": phi,
                "array_s": round(t_array, 6),
                "loop_s": round(t_loop, 6),
                "speedup": round(t_loop / t_array, 2),
                "cases": new.stats["cases"],
            })
    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
        "timer": f"min of {calls} calls, time.perf_counter",
        "cases": rows,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_theorem3.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print()
    for r in rows:
        print(f"{r['workload']:>9} n={r['n']:<6} part {r['part']}: "
              f"array {r['array_s'] * 1e3:8.2f} ms, loop {r['loop_s'] * 1e3:8.2f} ms "
              f"({r['speedup']}x)")
