"""Benchmark K1 — the vectorized kernel layer vs the original loop kernels.

Times the three measurement kernels on n ∈ {200, 1000, 5000} (uniform
instances, Theorem-3 orientations at k=2, φ=π):

* batched coverage (:func:`repro.antenna.coverage.coverage_matrix`) vs the
  per-antenna Python loop (:func:`tests.kernels_reference.coverage_matrix_loop`);
* the rebuild-free critical-range search vs the per-probe ``DiGraph``
  rebuild (:func:`tests.kernels_reference.critical_range_rebuild`).

Everything is single-core: the wins are vectorization wins, verified by
the instrumentation counters (zero per-probe graph builds, one trig pass),
not parallelism.  The loop critical-range search is only timed up to
n = 1000 — at n = 5000 its per-probe pure-Python BFS over millions of edges
takes minutes, which is precisely the point; the counters tell the same
story at every size.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.antenna.coverage import coverage_matrix, critical_range
from repro.core.planner import orient_antennae
from repro.engine import Scenario
from repro.geometry.points import PointSet
from repro.kernels import kernel_counters, polar_tables, recording, use_backend
from repro.spanning.emst import euclidean_mst
from repro.utils.tables import format_ascii_table
from repro.utils.timing import measure
from tests.kernels_reference import (
    coverage_matrix_loop,
    critical_range_rebuild,
    per_instance_sweep,
)

SIZES = (200, 1000, 5000)
#: Largest size at which the reference kernels are run for comparison.
REFERENCE_LIMIT = 1000

#: The sparse radius-bounded axis.  n = 10⁴ runs everywhere (CI smoke
#: included); the n = 10⁵ point — the instance the dense path provably
#: cannot build tables for — is opt-in via REPRO_BENCH_LARGE=1.
SPARSE_SIZES = (
    (10_000, 100_000) if os.environ.get("REPRO_BENCH_LARGE") else (10_000,)
)


@pytest.fixture(scope="module")
def instances():
    """One oriented instance per size (orientation cost excluded from timing)."""
    out = {}
    for n in SIZES:
        coords = Scenario("uniform", n, seeds=1, tag="bench-kernels").instance(0)
        ps = PointSet(coords)
        tree = euclidean_mst(ps)
        result = orient_antennae(ps, 2, np.pi, tree=tree)
        out[n] = (ps, result.assignment)
    return out


@pytest.mark.parametrize("n", SIZES)
def test_batched_coverage_beats_loop(instances, n, capsys):
    ps, assignment = instances[n]
    tables = polar_tables(ps.coords)  # shared geometry, as the engine caches it
    with recording() as rec:
        t_new, cover_new = measure(
            lambda: coverage_matrix(ps, assignment, tables=tables)
        )
    t_old, cover_old = measure(lambda: coverage_matrix_loop(ps, assignment))
    assert np.array_equal(cover_new, cover_old), "kernels disagree"
    assert rec.trig_evals == 0, "shared tables must not recompute trig"
    assert rec.coverage_calls == 1
    loop_trig = assignment.total_antennae() * n  # one n-entry trig row per antenna
    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["kernel", "seconds", "trig evals"],
            [
                ["per-antenna loop", round(t_old, 4), loop_trig],
                ["batched (shared tables)", round(t_new, 4), rec.trig_evals],
                ["speedup", round(t_old / max(t_new, 1e-9), 1), "×"],
            ],
            title=f"[K1] coverage matrix, n={n} (single core)",
        ))
    if n >= 1000:
        # Vectorization must win clearly once the per-antenna loop dominates.
        assert t_new < t_old, f"batched kernel slower at n={n}"


@pytest.mark.parametrize("n", SIZES)
def test_rebuild_free_critical_range(instances, n, capsys):
    ps, assignment = instances[n]
    tables = polar_tables(ps.coords)
    with recording() as rec:
        t_new, cr_new = measure(lambda: critical_range(ps, assignment, tables=tables))
    assert rec.graph_builds == 0, "critical_range must not build DiGraphs"
    assert rec.coverage_calls == 1
    rows = [
        ["rebuild-free (CSR prefix)", round(t_new, 4), 0, rec.connectivity_probes],
    ]
    if n <= REFERENCE_LIMIT:
        with recording() as rec_old:
            t_old, cr_old = measure(lambda: critical_range_rebuild(ps, assignment))
        assert cr_new == cr_old, "kernels disagree on the critical range"
        # graph_builds exceeds the probe count: each passing probe also
        # constructs the reversed DiGraph for the backward BFS pass.
        rows.insert(0, [
            "per-probe DiGraph rebuild", round(t_old, 4),
            rec_old.graph_builds, rec_old.connectivity_probes,
        ])
        rows.append(["speedup", round(t_old / max(t_new, 1e-9), 1), "", "×"])
        assert t_new < t_old, f"rebuild-free search slower at n={n}"
    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["search", "seconds", "graph builds", "probes"],
            rows,
            title=f"[K1] critical range, n={n} (single core)",
        ))


def test_kernels_emit_machine_readable_report(instances, capsys):
    """Time the hot kernels and write BENCH_kernels.json.

    The JSON document pairs wall-clock with the instrumentation counters
    per size, plus one packed multi-instance sweep on the numpy backend
    (the one-launch batch path vs the per-instance loop), so runs can be
    diffed mechanically.  Counters are the comparable quantity across
    machines; wall-clock is informational.
    """
    import json

    from repro.engine import GridCell, PlanRequest, execute_plan

    per_size = []
    for n in SIZES:
        ps, assignment = instances[n]
        tables = polar_tables(ps.coords)
        with recording() as rec:
            t_cov, _ = measure(
                lambda: coverage_matrix(ps, assignment, tables=tables)
            )
            t_cr, _ = measure(
                lambda: critical_range(ps, assignment, tables=tables)
            )
        per_size.append({
            "n": n,
            "coverage_s": round(t_cov, 6),
            "critical_s": round(t_cr, 6),
            "counters": rec.as_dict(),
        })

    batch_req = PlanRequest(
        (Scenario("uniform", 24, seeds=64, tag="bench-batch"),),
        (GridCell(2, np.pi),),
    )
    with recording() as rec_batched:
        t_batched, _ = measure(
            lambda: execute_plan(batch_req, backend="numpy")
        )
    with recording() as rec_loop:
        t_loop, _ = measure(
            lambda: per_instance_sweep(batch_req, backend="numpy")
        )
    report = {
        "backend": "numpy",
        "sizes": per_size,
        "batch_sweep": {
            "instances": batch_req.total_instances,
            "batched_s": round(t_batched, 6),
            "per_instance_s": round(t_loop, 6),
            "batched_counters": rec_batched.as_dict(),
            "per_instance_counters": rec_loop.as_dict(),
        },
    }
    out = "BENCH_kernels.json"
    with open(out, "w", encoding="utf8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    launches = rec_batched.coverage_calls
    assert rec_loop.coverage_calls >= 10 * launches, (
        "batch path lost its one-launch-per-chunk property"
    )
    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["path", "seconds", "coverage launches", "critical searches"],
            [
                ["per-instance loop", round(t_loop, 4),
                 rec_loop.coverage_calls, rec_loop.critical_searches],
                ["batched (packed)", round(t_batched, 4),
                 rec_batched.coverage_calls, rec_batched.critical_searches],
            ],
            title=f"[K1] {batch_req.total_instances}-instance sweep -> {out}",
        ))


def _sparse_axis_case(n: int) -> dict:
    """Measure one sparse-axis size; run in a fresh process, so the peak
    RSS it reports is this size's alone."""
    import resource

    from repro.analysis.metrics import orientation_metrics

    coords = Scenario("uniform", n, seeds=1, tag="bench-sparse").instance(0)
    ps = PointSet(coords)
    tree = euclidean_mst(ps)
    result = orient_antennae(ps, 2, np.pi, tree=tree)
    with use_backend("sparse"):
        with recording() as rec:
            t_metrics, metrics = measure(lambda: orientation_metrics(result))
    return {
        "metrics_s": t_metrics,
        "strongly_connected": metrics.strongly_connected,
        "critical_range": metrics.critical_range,
        "counters": rec.as_dict(),
        # ru_maxrss is KB on Linux.
        "peak_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    }


@pytest.mark.parametrize("n", SPARSE_SIZES)
def test_sparse_large_n_axis(n, capsys):
    """The sparse radius-bounded path at n ∈ {10⁴, 10⁵}: counters + RSS.

    Measures the full measurement stack (orientation excluded) under the
    sparse backend — coverage, strong connectivity, and the certified
    critical range — in a fresh child process per size, and merges a
    ``sparse_large_n`` section into BENCH_kernels.json.  Asserted
    quantities are counters and the child's peak RSS, never wall-clock:
    trig work must be ≥ 20× below the dense ``n²`` and the whole run
    must fit in 4 GB.
    """
    import json
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        case = pool.submit(_sparse_axis_case, n).result()
    counters = case["counters"]
    t_metrics, critical_range = case["metrics_s"], case["critical_range"]
    peak_rss_kb = case["peak_rss_kb"]

    assert case["strongly_connected"]
    assert np.isfinite(critical_range)
    assert counters["polar_builds"] == 0, "sparse axis must not build dense tables"
    assert counters["sparse_polar_builds"] >= 1
    assert counters["trig_evals"] * 20 <= n * n, (
        f"trig reduction below 20x at n={n}: {counters['trig_evals']} vs {n * n}"
    )
    # The sparse path's memory budget: CI caps it with ulimit -v 4 GB.
    assert peak_rss_kb < 4 * 1024 * 1024, f"peak RSS {peak_rss_kb} KB over 4 GB"

    out = "BENCH_kernels.json"
    report = {}
    if os.path.exists(out):
        with open(out, encoding="utf8") as fh:
            try:
                report = json.load(fh)
            except ValueError:
                report = {}
    section = report.setdefault("sparse_large_n", {})
    section[str(n)] = {
        "n": n,
        "metrics_s": round(t_metrics, 6),
        "critical_range": critical_range,
        "peak_rss_kb": peak_rss_kb,
        "counters": counters,
        "dense_trig_equivalent": n * n,
    }
    with open(out, "w", encoding="utf8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["quantity", "value"],
            [
                ["n", n],
                ["metrics wall (s)", round(t_metrics, 4)],
                ["critical range (lmax)", round(critical_range, 6)],
                ["trig evals (sparse)", counters["trig_evals"]],
                ["trig evals (dense would be)", n * n],
                ["reduction", f"{n * n / max(counters['trig_evals'], 1):.0f}×"],
                ["rcut widenings", counters["rcut_widenings"]],
                ["peak RSS (MB, own process)", peak_rss_kb // 1024],
            ],
            title=f"[K1] sparse radius-bounded axis, n={n} -> {out}",
        ))


def _sort_once_case(n: int) -> dict:
    """Time the sparse path's sorts at ``n`` against the test oracles, in
    a fresh process: the kd-tree candidate build, the reverse-edge
    permutation, and the critical search of the strong (k = 1, φ = π)
    cell (best of 3 each).  Equal arrays and floats are asserted here."""
    from scipy.spatial import cKDTree

    from repro.kernels.sparse import (
        SparsePolarTables,
        _directed_candidates,
        default_instance_cutoff,
        reverse_edge_permutation,
        sparse_polar_tables,
        trial_coverage,
        trial_critical,
    )
    from tests.kernels_reference import (
        critical_search_reference,
        directed_candidates_lexsort,
    )

    coords = Scenario("uniform", n, seeds=1, tag="bench-sparse").instance(0)
    ps = PointSet(coords)
    tree = euclidean_mst(ps)
    r_cut = default_instance_cutoff(tree.lmax)

    t_query, _ = measure(
        lambda: cKDTree(coords).query_pairs(r_cut, output_type="ndarray"), repeat=3
    )
    t_keys, (src, dst) = measure(lambda: _directed_candidates(coords, r_cut), repeat=3)
    t_lex, (src_ref, dst_ref) = measure(
        lambda: directed_candidates_lexsort(coords, r_cut), repeat=3
    )
    assert np.array_equal(src, src_ref) and np.array_equal(dst, dst_ref)

    tables = sparse_polar_tables(coords, r_cut)
    # A fresh tables object per call: the permutation is cached on it.
    t_rev, rev = measure(
        lambda: reverse_edge_permutation(SparsePolarTables(
            tables.indptr, tables.indices, tables.src, tables.dist, tables.ang,
            tables.r_cut,
        )),
        repeat=3,
    )
    t_rev_ref, rev_ref = measure(
        lambda: np.argsort(tables.indices, kind="stable"), repeat=3
    )
    assert np.array_equal(rev, rev_ref)

    result = orient_antennae(ps, 1, np.pi, tree=tree)
    _, cover_ang = trial_coverage(
        tables, *result.assignment.flattened(), radius_mask=False, angular_mask=True,
    )
    counts = np.array([n])
    with recording() as rec:
        t_crit, crit = measure(lambda: trial_critical(tables, cover_ang, counts), repeat=3)
    e = np.flatnonzero(cover_ang[0])
    with recording() as rec_ref:
        t_crit_ref, crit_ref = measure(lambda: critical_search_reference(
            n, tables.src[e], tables.indices[e], tables.dist[e], 1e-9,
        ), repeat=3)
    assert float(crit[0]) == crit_ref and np.isfinite(crit_ref)
    assert rec.connectivity_probes == rec_ref.connectivity_probes
    return {
        "n": n,
        "r_cut": r_cut,
        "pairs": int(tables.m),
        "candidates": {
            "query_pairs_s": round(t_query, 6),
            "key_sort_s": round(t_keys, 6),
            "lexsort_s": round(t_lex, 6),
        },
        "reverse_permutation": {
            "key_argsort_s": round(t_rev, 6),
            "stable_argsort_s": round(t_rev_ref, 6),
        },
        "critical_k1_pi": {
            "covered_edges": int(e.shape[0]),
            "critical_range_abs": float(crit[0]),
            "connectivity_probes": rec.connectivity_probes // 3,
            "one_sort_s": round(t_crit, 6),
            "two_stable_sorts_s": round(t_crit_ref, 6),
        },
    }


@pytest.mark.parametrize("n", (20_000,))
def test_sparse_large_n_sort_once(n, capsys):
    """The sparse path's sorts at the ``sweep-sparse-20k`` size.

    Runs :func:`_sort_once_case` in a fresh child process (its arrays are
    this case's alone) and merges a ``sparse_sort_once`` section into
    BENCH_kernels.json.  Asserted: each new array and float equals its
    oracle's, with the same probe count; the times are the record.
    """
    import json
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        case = pool.submit(_sort_once_case, n).result()

    out = "BENCH_kernels.json"
    report = {}
    if os.path.exists(out):
        with open(out, encoding="utf8") as fh:
            try:
                report = json.load(fh)
            except ValueError:
                report = {}
    report.setdefault("sparse_sort_once", {})[str(n)] = case
    with open(out, "w", encoding="utf8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    cand, rev, crit = case["candidates"], case["reverse_permutation"], case["critical_k1_pi"]
    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["stage", "new (s)", "oracle (s)"],
            [
                ["candidate build (kd-tree query included)",
                 cand["key_sort_s"], cand["lexsort_s"]],
                ["  of which query_pairs", cand["query_pairs_s"], cand["query_pairs_s"]],
                ["reverse permutation", rev["key_argsort_s"], rev["stable_argsort_s"]],
                [f"critical search, k=1 phi=pi ({crit['covered_edges']} edges)",
                 crit["one_sort_s"], crit["two_stable_sorts_s"]],
            ],
            title=f"[K1] sparse sorts, n={n}, {case['pairs']} pairs -> {out}",
        ))


@pytest.mark.parametrize("n", (200, 1000))
def test_symmetric_mode_axis(n, capsys):
    """The symmetric connectivity objective vs strong, counter-for-counter.

    Measures the full metrics stack under both modes on the same instance
    (strong: Table-1 orientation; symmetric: bounded-angle MST at φ=2π,
    always feasible) and merges a ``symmetric_mode`` section into
    BENCH_kernels.json.  The asserted quantities are counters: the
    symmetric path must reuse the shared polar tables (zero extra trig)
    and the candidate-pair kernels (zero graph builds) exactly like
    strong mode — the mode seam adds a mutual mask, not a new kernel
    shape.
    """
    import json

    from repro.analysis.metrics import orientation_metrics
    from repro.core.symmetric import orient_bounded_angle_mst

    coords = Scenario("uniform", n, seeds=1, tag="bench-symmetric").instance(0)
    ps = PointSet(coords)
    tree = euclidean_mst(ps)
    tables = polar_tables(ps.coords)

    strong_result = orient_antennae(ps, 2, np.pi, tree=tree)
    with recording() as rec_strong:
        t_strong, m_strong = measure(
            lambda: orientation_metrics(strong_result, tables=tables)
        )
    sym_result = orient_bounded_angle_mst(ps, 2, 2 * np.pi, tree=tree)
    with recording() as rec_sym:
        t_sym, m_sym = measure(
            lambda: orientation_metrics(sym_result, tables=tables, mode="symmetric")
        )

    assert m_sym.mode == "symmetric" and m_sym.strongly_connected
    assert np.isfinite(m_sym.critical_range)
    for rec in (rec_strong, rec_sym):
        assert rec.trig_evals == 0, "shared tables must not recompute trig"
        # Connectivity and the critical bisection both run on the
        # candidate-pair CSR: no DiGraph at all.
        assert rec.graph_builds == 0, rec.graph_builds
    assert rec_sym.critical_searches == 1

    out = "BENCH_kernels.json"
    report = {}
    if os.path.exists(out):
        with open(out, encoding="utf8") as fh:
            try:
                report = json.load(fh)
            except ValueError:
                report = {}
    section = report.setdefault("symmetric_mode", {})
    section[str(n)] = {
        "n": n,
        "strong": {
            "metrics_s": round(t_strong, 6),
            "critical_range": m_strong.critical_range,
            "counters": rec_strong.as_dict(),
        },
        "symmetric": {
            "metrics_s": round(t_sym, 6),
            "critical_range": m_sym.critical_range,
            "counters": rec_sym.as_dict(),
        },
    }
    with open(out, "w", encoding="utf8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["mode", "seconds", "probes", "scipy calls", "critical searches"],
            [
                ["strong", round(t_strong, 4), rec_strong.connectivity_probes,
                 rec_strong.scipy_scc_calls, rec_strong.critical_searches],
                ["symmetric", round(t_sym, 4), rec_sym.connectivity_probes,
                 rec_sym.scipy_scc_calls, rec_sym.critical_searches],
            ],
            title=f"[K1] connectivity-mode axis, n={n} -> {out}",
        ))


def test_counters_report(capsys):
    """Not a benchmark: show the cumulative kernel counters for this run."""
    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["counter", "value"],
            [[k, v] for k, v in kernel_counters().as_dict().items()],
            title="[K1] process-wide kernel counters",
        ))
