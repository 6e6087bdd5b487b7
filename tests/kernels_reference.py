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
measured chunks with before it measured them over stacked candidate pairs,
with their padded table container :class:`PackedPolarTables`;
``tests/ensemble_reference.py``, the replaced dense ensemble path, runs on
them.  :func:`packed_critical` runs :func:`critical_search_reference`, the
search body as it was before it sorted each edge list once: it masks
symmetric edges itself (:func:`mutual_mask`) and regroups every sorted
edge list with a second stable sort.

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
from repro.geometry.sectors import radius_tolerance
from repro.graph.digraph import DiGraph
from repro.kernels.backend import use_backend
from repro.kernels.connectivity import (
    strongly_connected_csr,
    symmetric_connected_csr,
    union_connected,
)
from repro.kernels.coverage import _fill_block
from repro.kernels.instrument import COUNTERS

__all__ = [
    "coverage_matrix_loop",
    "critical_range_rebuild",
    "critical_range_rebuild_symmetric",
    "bfs_strongly_connected",
    "symmetric_connected_loop",
    "per_instance_sweep",
    "PackedPolarTables",
    "packed_coverage",
    "packed_connected",
    "packed_critical",
    "critical_search_reference",
    "mutual_mask",
    "directed_candidates_lexsort",
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
    no code with the vectorized mutual masks / CSR kernels it checks.
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


class PackedPolarTables:
    """Per-instance polar tables padded into ``(M, n_max, n_max)`` arrays.

    ``dist[m]`` / ``ang[m]`` hold instance ``m``'s tables on the valid
    ``[:counts[m], :counts[m]]`` block; pad entries are never read back.
    """

    def __init__(self, dist: np.ndarray, ang: np.ndarray, counts: np.ndarray):
        self.dist, self.ang, self.counts = dist, ang, counts
        self.m, self.n_max = int(counts.shape[0]), int(dist.shape[1])


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
    rows/columns and the diagonal are always False.  ``ignore_radius``
    tests angular containment only, as infinite radii do.
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

    if ignore_radius:
        radius = np.full(a, np.inf)
    ang = tables.ang[inst_idx, sensor_idx]  # (a, n_max) gathers
    dist = tables.dist[inst_idx, sensor_idx]
    valid = np.arange(n_max, dtype=np.int64)[None, :] < tables.counts[inst_idx][:, None]

    hit = np.empty((a, n_max), dtype=bool)
    block = max(1, _BLOCK_ELEMS // max(n_max, 1))
    for lo in range(0, a, block):
        hi = min(lo + block, a)
        _fill_block(ang[lo:hi], dist[lo:hi], start[lo:hi], spread[lo:hi],
                    radius[lo:hi], eps, hit[lo:hi])
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
    the identical search body as the per-instance search on the same edge
    arrays, so results are bit-identical (``0.0`` for ``n <= 1``, ``inf``
    when deficient).
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
        out[i] = critical_search_reference(n, src, dst, dists, eps, mode)
    return out


def directed_candidates_lexsort(coords, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The directed kd-tree pairs within ``r``, in ``np.lexsort`` order.

    How :func:`repro.kernels.sparse.sparse_polar_tables` ordered its
    candidate pairs before it sorted integer keys: both directions of
    every ``query_pairs`` pair, lexsorted by ``(src, dst)``.
    """
    from scipy.spatial import cKDTree

    empty = np.empty(0, dtype=np.int64)
    if coords.shape[0] <= 1:
        return empty, empty
    pairs = cKDTree(coords).query_pairs(r, output_type="ndarray")
    u = pairs[:, 0].astype(np.int64)
    v = pairs[:, 1].astype(np.int64)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    return src[order], dst[order]


def mutual_mask(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Boolean mask of the edges whose reverse is also present.

    An edge ``(u, v)`` survives iff ``(v, u)`` is also in the list — the
    symmetric-connectivity edge set.  Membership is one sort plus one
    ``searchsorted`` on the packed key ``src·n + dst``; both directions of
    every surviving pair are kept, so the masked list is itself a valid
    (mutual) directed edge list.  Duplicate edges must not be present
    (coverage-derived lists never are).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    key = src * np.int64(n) + dst
    rkey = dst * np.int64(n) + src
    skey = np.sort(key)
    pos = np.searchsorted(skey, rkey)
    pos[pos == skey.shape[0]] = 0  # any in-range slot; equality check decides
    return skey[pos] == rkey


def critical_search_reference(
    n: int,
    src_all: np.ndarray,
    dst_all: np.ndarray,
    dists: np.ndarray,
    eps: float,
    mode: str = "strong",
) -> float:
    """The critical-range search body with two stable sorts, unchanged.

    The body :func:`repro.kernels.critical._critical_search_impl` replaced:
    a stable sort by distance, a second stable sort regrouping the sorted
    edges by source, and ``np.unique`` for the candidates.  Returns ``inf``
    when even the whole edge set is not connected.  Symmetric mode takes
    the raw covered edges and keeps the mutual ones itself
    (:func:`mutual_mask`), then probes with :func:`symmetric_connected_csr`;
    strong mode probes with :func:`strongly_connected_csr`.  Requires
    ``n >= 2`` and at least one edge.
    """
    probe = strongly_connected_csr
    if mode == "symmetric":
        mask = mutual_mask(n, src_all, dst_all)
        if not mask.any():
            return float("inf")
        src_all = np.asarray(src_all, dtype=np.int64)[mask]
        dst_all = np.asarray(dst_all, dtype=np.int64)[mask]
        dists = dists[mask]
        probe = symmetric_connected_csr
    m = src_all.shape[0]
    zero = np.zeros(1, dtype=np.int64)

    # The first probe is the whole candidate set.  Run it before sorting:
    # a deficient set (a common outcome of random perturbations) is then
    # answered with no sort at all.
    if np.any(src_all[1:] < src_all[:-1]):
        order = np.argsort(src_all, kind="stable")
        full_src, full_dst = src_all[order], dst_all[order]
    else:
        full_src, full_dst = src_all, dst_all
    indptr = np.concatenate([zero, np.cumsum(np.bincount(full_src, minlength=n))])
    if not probe(n, indptr, full_dst):
        return float("inf")

    # One sort by distance; every probe is a prefix of these arrays.
    by_dist = np.argsort(dists, kind="stable")
    src = src_all[by_dist]
    sorted_dists = dists[by_dist]

    # One regrouping into the CSR scaffold: edges grouped by source, and
    # *within* each source row ordered by distance rank (stable sort keeps
    # the distance order).  ``ranks[i]`` is the distance rank of scaffold
    # edge i, so the probe mask ``ranks < cnt`` selects per-row prefixes.
    by_src = np.argsort(src, kind="stable")
    indices_all = dst_all[by_dist][by_src]
    ranks = np.arange(m, dtype=np.int64)[by_src]

    def connected_at(r: float) -> bool:
        cnt = int(np.searchsorted(sorted_dists, r + radius_tolerance(r, eps), side="right"))
        row_counts = np.bincount(src[:cnt], minlength=n)
        indptr = np.concatenate([zero, np.cumsum(row_counts)])
        return probe(n, indptr, indices_all[ranks < cnt])

    candidates = np.unique(dists)
    lo, hi = 0, candidates.size - 1  # invariant: connected_at(candidates[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        if connected_at(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[hi])
