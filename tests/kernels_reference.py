"""Reference (pre-vectorization) kernels, kept as test oracles.

These are the exact implementations the batched kernel layer replaced: the
per-antenna Python loop for coverage and the per-probe ``DiGraph`` rebuild
for the critical-range search.  The randomized equivalence suite
(``tests/test_kernels.py``) and ``benchmarks/bench_kernels.py`` run them
against the vectorized kernels and assert bit-identical results — do not
"optimize" this module; its value is being the unchanged original.

:func:`per_instance_sweep` is the reference for the packed multi-instance
sweep path: every instance measured on its own through
:func:`repro.engine.run_instance_grid`.

:func:`packed_coverage`, :func:`packed_connected` and :func:`packed_critical`
are the padded ``(M, n_max, n_max)`` multi-instance kernels the sweep
measured chunks with before it measured them over stacked candidate pairs;
``tests/ensemble_reference.py``, the replaced dense ensemble path, runs on
them.

Not imported by the library itself (tests/benchmarks only), so the import
direction kernels → graph here does not create a cycle with
``repro.graph.digraph``'s counter instrumentation.
"""

from __future__ import annotations

import numpy as np

from repro.antenna.model import AntennaAssignment
from repro.engine import ArtifactCache, RunRecord, run_instance_grid
from repro.geometry.angles import TWO_PI, angle_of, ccw_angle
from repro.geometry.points import PointSet
from repro.graph.digraph import DiGraph
from repro.kernels.backend import use_backend
from repro.kernels.batch import PackedPolarTables
from repro.kernels.connectivity import union_connected
from repro.kernels.coverage import _fill_block
from repro.kernels.critical import _critical_search_impl
from repro.kernels.instrument import COUNTERS

__all__ = [
    "coverage_matrix_loop",
    "critical_range_rebuild",
    "critical_range_rebuild_symmetric",
    "bfs_strongly_connected",
    "symmetric_connected_loop",
    "per_instance_sweep",
    "packed_coverage",
    "packed_connected",
    "packed_critical",
]


def _points_arr(points) -> np.ndarray:
    return points.coords if isinstance(points, PointSet) else np.asarray(points, float)


def coverage_matrix_loop(
    points,
    assignment: AntennaAssignment,
    *,
    eps: float = 1e-9,
    ignore_radius: bool = False,
) -> np.ndarray:
    """The original per-antenna loop coverage matrix (one trig row per antenna)."""
    coords = _points_arr(points)
    n = coords.shape[0]
    cover = np.zeros((n, n), dtype=bool)
    if n == 0:
        return cover
    for u, sector in assignment:
        off = coords - coords[u]
        dist = np.hypot(off[:, 0], off[:, 1])
        ang = angle_of(off)
        rel = np.asarray(ccw_angle(sector.start, ang), dtype=float)
        ang_ok = (rel <= sector.spread + eps) | (rel >= TWO_PI - eps)
        if sector.spread >= TWO_PI - eps:
            ang_ok = np.full(n, True)
        if ignore_radius or not np.isfinite(sector.radius):
            rad_ok = np.full(n, True)
        else:
            tol = eps * max(1.0, sector.radius)
            rad_ok = dist <= sector.radius + tol
        hit = ang_ok & rad_ok & (dist > 0.0)
        cover[u] |= hit
    np.fill_diagonal(cover, False)
    return cover


def bfs_strongly_connected(g: DiGraph) -> bool:
    """The original two-pass BFS strong-connectivity check (no scipy).

    Only the probe counter was added (so benchmarks can compare probe
    counts across old and new paths); the algorithm is untouched.  Note the
    reverse pass constructs a second ``DiGraph`` — part of the old path's
    real cost, visible in its ``graph_builds`` count.
    """
    COUNTERS.connectivity_probes += 1
    if g.n <= 1:
        return True
    if np.any(g.out_degrees() == 0) or np.any(g.in_degrees() == 0):
        return False
    if not bool(g.reachable_from(0).all()):
        return False
    return bool(g.reversed().reachable_from(0).all())


def symmetric_connected_loop(n: int, pairs) -> bool:
    """Set-and-loop symmetric-connectivity oracle over directed pairs.

    An undirected edge exists only where both directions appear in
    ``pairs``; connectivity is a plain Python BFS over that mutual
    adjacency.  Deliberately naive (hash set + list-of-lists) so it shares
    no code with the vectorized ``mutual_mask`` / CSR kernels it checks.
    """
    COUNTERS.connectivity_probes += 1
    if n <= 1:
        return True
    edge_set = {(int(u), int(v)) for u, v in np.asarray(pairs).reshape(-1, 2)}
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_set:
        if (v, u) in edge_set:
            adj[u].append(v)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def critical_range_rebuild_symmetric(
    points, assignment: AntennaAssignment, *, eps: float = 1e-9
) -> float:
    """Symmetric-mode critical range, rebuild style: one BFS per probe.

    Mirrors :func:`critical_range_rebuild` with the symmetric objective:
    the candidate list is restricted to *mutual* pairs up front (so the
    bisection walks the same ``np.unique`` candidates as the kernel path
    — a one-sided distance inside another pair's tolerance window could
    otherwise shift the answer), and each probe re-derives the undirected
    graph from scratch.
    """
    coords = _points_arr(points)
    n = coords.shape[0]
    if n <= 1:
        return 0.0
    cover = coverage_matrix_loop(points, assignment, eps=eps, ignore_radius=True)
    s, d = np.nonzero(cover)
    if s.size == 0:
        return float("inf")
    edge_set = {(int(u), int(v)) for u, v in zip(s, d)}
    keep = [i for i in range(s.size) if (int(d[i]), int(s[i])) in edge_set]
    if not keep:
        return float("inf")
    s, d = s[keep], d[keep]
    pairs = np.stack([s, d], axis=1)
    diff = coords[s] - coords[d]
    dists = np.hypot(diff[:, 0], diff[:, 1])
    candidates = np.unique(dists)

    def connected_at(r: float) -> bool:
        tol = eps * max(1.0, r)
        mask = dists <= r + tol
        return symmetric_connected_loop(n, pairs[mask])

    if not connected_at(float(candidates[-1])):
        return float("inf")
    lo, hi = 0, candidates.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if connected_at(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[hi])


def critical_range_rebuild(
    points, assignment: AntennaAssignment, *, eps: float = 1e-9
) -> float:
    """The original critical-range search: one ``DiGraph`` rebuild per probe."""
    coords = _points_arr(points)
    n = coords.shape[0]
    if n <= 1:
        return 0.0
    cover = coverage_matrix_loop(points, assignment, eps=eps, ignore_radius=True)
    s, d = np.nonzero(cover)
    if s.size == 0:
        return float("inf")
    pairs = np.stack([s, d], axis=1)
    diff = coords[s] - coords[d]
    dists = np.hypot(diff[:, 0], diff[:, 1])
    candidates = np.unique(dists)

    def connected_at(r: float) -> bool:
        tol = eps * max(1.0, r)
        mask = dists <= r + tol
        g = DiGraph(n, pairs[mask])
        return bfs_strongly_connected(g)

    if not connected_at(float(candidates[-1])):
        return float("inf")
    lo, hi = 0, candidates.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if connected_at(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[hi])


def per_instance_sweep(request, backend=None):
    """A sweep measured one instance at a time: the packed path's reference.

    Runs :func:`~repro.engine.run_instance_grid` over every instance of
    ``request`` in plan order, under ``backend`` (``None``: the request's,
    then the environment's, then numpy), with one
    :class:`~repro.engine.ArtifactCache` shared by all instances.  Returns
    ``(records, facts, backend_name)``: the records in plan order, each
    instance's facts, and the backend that ran.
    """
    cache = ArtifactCache()
    records: list[RunRecord] = []
    facts: list[dict] = []
    with use_backend(backend or request.backend) as active:
        for si, ii, coords in request.instances():
            metrics, instance_facts = run_instance_grid(
                coords, request.grid, compute_critical=request.compute_critical,
                cache=cache, mode=request.mode,
            )
            scenario = request.scenarios[si]
            records.extend(
                RunRecord(scenario, ii, cell, m, scenario_index=si)
                for cell, m in zip(request.grid, metrics)
            )
            facts.append(instance_facts)
    return records, facts, active.name


#: Same per-block element budget as the single-instance coverage kernel.
_BLOCK_ELEMS = 262_144


def packed_coverage(
    tables: PackedPolarTables,
    inst_idx: np.ndarray,
    sensor_idx: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    radius: np.ndarray,
    *,
    eps: float = 1e-9,
    ignore_radius: bool = False,
) -> np.ndarray:
    """Boolean ``(M, n_max, n_max)`` coverage of a chunk-flattened antenna set.

    ``inst_idx[a]`` names the instance antenna ``a`` belongs to; the other
    per-antenna arrays are the usual ``flattened()`` columns.  One
    ``coverage_calls`` launch for the whole chunk.  ``cover[m]`` restricted
    to the valid block is bit-identical to the per-instance kernel; pad
    rows/columns and the diagonal are always False.
    """
    m, n_max = tables.m, tables.n_max
    cover = np.zeros((m, n_max, n_max), dtype=bool)
    a = int(inst_idx.shape[0])
    if a == 0 or n_max == 0:
        return cover
    COUNTERS.coverage_calls += 1
    COUNTERS.sector_evals += a * n_max

    # Group key over (instance, sensor); reduceat needs contiguous runs.
    inst_idx = np.asarray(inst_idx, dtype=np.int64)
    sensor_idx = np.asarray(sensor_idx, dtype=np.int64)
    key = inst_idx * n_max + sensor_idx
    if np.any(np.diff(key) < 0):
        order = np.argsort(key, kind="stable")
        key = key[order]
        inst_idx, sensor_idx = inst_idx[order], sensor_idx[order]
        start, spread, radius = start[order], spread[order], radius[order]

    ang = tables.ang[inst_idx, sensor_idx]  # (a, n_max) gathers
    dist = tables.dist[inst_idx, sensor_idx]
    valid = np.arange(n_max, dtype=np.int64)[None, :] < tables.counts[inst_idx][:, None]

    hit = np.empty((a, n_max), dtype=bool)
    block = max(1, _BLOCK_ELEMS // max(n_max, 1))
    for lo in range(0, a, block):
        hi = min(lo + block, a)
        _fill_block(ang[lo:hi], dist[lo:hi], start[lo:hi], spread[lo:hi],
                    radius[lo:hi], eps, ignore_radius, hit[lo:hi])
    # Pad columns carry garbage polar entries (offsets against zero-padded
    # coords) — ``dist > 0`` does NOT exclude them, so mask explicitly.
    hit &= valid

    groups, first = np.unique(key, return_index=True)
    cover[groups // n_max, groups % n_max] = np.logical_or.reduceat(hit, first, axis=0)
    diag = np.arange(n_max)
    cover[:, diag, diag] = False
    return cover


def packed_connected(
    cover: np.ndarray, counts: np.ndarray, *, mode: str = "strong"
) -> np.ndarray:
    """Per-instance connectivity under ``mode``, one component call per chunk.

    Builds the block-diagonal union graph of all instances and runs a
    single ``connected_components`` call; instance ``m`` is connected iff
    the labels inside its vertex block are constant.  No cross-instance
    edges exist, so this is exactly the per-instance answer.  Strong mode
    asks strong connectivity of the coverage digraph; symmetric mode first
    keeps the mutual edges (elementwise AND with the per-instance
    transpose) and asks undirected connectivity.  Instances with
    ``counts[m] <= 1`` are trivially connected.
    """
    connection = "strong"
    if mode == "symmetric":
        cover = cover & cover.swapaxes(1, 2)
        connection = "weak"
    counts = np.asarray(counts, dtype=np.int64)
    base = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
    mi, u, v = np.nonzero(cover)  # pads and diagonal are already False
    src = base[mi] + u  # row-major: already sorted by union vertex
    indptr = np.zeros(int(base[-1]) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=int(base[-1])), out=indptr[1:])
    return union_connected(counts, indptr, base[mi] + v, connection=connection)


def packed_critical(
    tables: PackedPolarTables,
    cover_ang: np.ndarray,
    *,
    eps: float = 1e-9,
    mode: str = "strong",
) -> np.ndarray:
    """Per-instance critical range under ``mode`` from an angular coverage chunk.

    ``cover_ang`` is the ``ignore_radius=True`` packed coverage.  One
    ``critical_searches`` launch for the whole chunk; each instance runs
    the identical search body as :func:`critical_range_search` on the same
    edge arrays, so results are bit-identical (``0.0`` for ``n <= 1``,
    ``inf`` when deficient).
    """
    counts = tables.counts
    m = int(counts.shape[0])
    out = np.empty(m, dtype=float)
    COUNTERS.critical_searches += 1
    for i in range(m):
        n = int(counts[i])
        if n <= 1:
            out[i] = 0.0
            continue
        src, dst = np.nonzero(cover_ang[i, :n, :n])
        if src.shape[0] == 0:
            out[i] = np.inf
            continue
        dists = tables.dist[i][src, dst]
        out[i] = _critical_search_impl(n, src, dst, dists, eps, mode)
    return out
