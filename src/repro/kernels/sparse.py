"""Sparse radius-bounded geometry: the large-``n`` measurement path.

The dense kernel stack materializes ``(n, n)`` polar tables — ~160 GB at
n = 10⁵ — yet the paper's Table-1 guarantees make almost all of that
irrelevant: every construction's critical range is bounded by a small
constant multiple of ``lmax`` (see :func:`repro.core.bounds.paper_range_bound`),
so pairs farther apart than that bound can never participate in coverage or
in the bottleneck search.  :class:`SparsePolarTables` keeps only the
directed pairs within a cutoff ``r_cut`` — CSR neighbor lists built from a
``scipy.spatial.cKDTree.query_pairs`` query — with angles and distances
computed by the *same* floating-point expressions as the dense builder
(``np.hypot`` on raw offsets, :func:`~repro.geometry.angles.angle_of`), so
every per-pair value is bit-identical to the corresponding dense table
entry.

Exactness contract (the hard guarantee behind ``--backend sparse``), as
kept by the one measurement loop,
:func:`repro.ensemble.trials.measure_columns`:

* **Coverage / connectivity.**  The candidate cutoff is at least the one
  the antennae's own radii require (:func:`required_cutoff`): every pair a
  radius-respecting sector could cover satisfies
  ``dist <= radius + radius_tolerance(radius, eps)``, which sits strictly
  inside the cutoff's safety pad, so the sparse edge list *is* the dense
  transmission graph's edge list.  An infinite antenna radius forces the
  complete candidate set (the bounding-box diameter cutoff).
* **Critical range.**  Both searches return the smallest candidate
  distance whose prefix graph is connected.  A finite sparse result ``r*``
  is *certified* when ``(r* + radius_tolerance(r*, eps))`` sits inside the
  cutoff (with pad, :func:`certified_cutoff`): below that radius the
  sparse and dense prefix graphs are identical edge sets, so the returned
  float is the dense float, bit for bit.  An ``inf`` is certified by a
  *cut-off sensor* — one with no angularly-covered out-edge to, or
  in-edge from, any other point at any distance — or by the complete
  cutoff, where the candidate set holds every pair.  Any other result is
  never returned: the cutoff is widened on a doubling ladder (counted in
  ``COUNTERS.rcut_widenings``), up to the complete cutoff.

The safety pad ``_CUT_PAD`` absorbs the ulp-level disagreement between the
kd-tree's internal distance and the table's ``np.hypot`` at the cutoff
boundary: certified results sit a relative ``1e-6`` inside the cutoff,
seven orders of magnitude beyond any last-ulp membership fuzz.

The same CSR carries every measurement (:func:`trial_coverage`,
:func:`trial_connected`, :func:`trial_critical`) — each Monte-Carlo trial
of :mod:`repro.ensemble`, and each deterministic
:func:`~repro.analysis.metrics.orientation_metrics` call as one
unperturbed trial — on every backend: a dense-routed instance derives it
from its dense tables (:func:`dense_candidate_tables`).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.angles import TWO_PI, angle_of
from repro.geometry.sectors import radius_tolerance
from repro.kernels.connectivity import union_connected
from repro.kernels.coverage import _ccw_from_start
from repro.kernels.critical import _critical_search_impl
from repro.kernels.geometry import PolarTables
from repro.kernels.instrument import COUNTERS

__all__ = [
    "SparsePolarTables",
    "sparse_polar_tables",
    "dense_candidate_tables",
    "trial_coverage",
    "trial_connected",
    "trial_critical",
    "reverse_edge_permutation",
    "required_cutoff",
    "default_instance_cutoff",
    "bbox_diameter_bound",
    "complete_cutoff",
    "certified_cutoff",
]

#: Relative safety pad between a certified radius and the cutoff.  Large
#: against float rounding (~1e-16 relative), small against the cutoff
#: itself, so it never costs a meaningful number of extra candidate pairs.
_CUT_PAD = 1.0 + 1e-6

#: Elements per expanded (antenna, edge) temporary inside the coverage
#: kernel.  A block's temporaries take ~70 bytes per element, so this keeps
#: them near 4.5 MB; four times as many measured no faster, and raised the
#: peak RSS of a two-instance n = 512 sweep by ~7 MB.
_EDGE_BLOCK_ELEMS = 65_536


class SparsePolarTables:
    """CSR polar geometry of the directed point pairs within ``r_cut``.

    Attributes
    ----------
    indptr:
        ``(n + 1,)`` CSR row pointer; row ``u`` spans
        ``indptr[u]:indptr[u + 1]``.
    indices:
        ``(m,)`` destination vertex of each directed candidate edge,
        ordered by ``(src, dst)`` lexicographically.
    src:
        ``(m,)`` source vertex of each edge (the expansion of ``indptr``,
        stored because every covered-edge consumer needs it).
    dist, ang:
        ``(m,)`` per-edge distance / polar angle — bit-identical to the
        dense ``PolarTables`` entries for the same ordered pair.
    r_cut:
        The candidate cutoff the tables were built at.

    Each edge's reverse edge (:func:`reverse_edge_permutation`) is
    computed on first use and kept with the tables.
    """

    __slots__ = ("indptr", "indices", "src", "dist", "ang", "r_cut", "_rev")

    def __init__(self, indptr, indices, src, dist, ang, r_cut):
        self.indptr = indptr
        self.indices = indices
        self.src = src
        self.dist = dist
        self.ang = ang
        self.r_cut = float(r_cut)
        self._rev = None

    @property
    def n(self) -> int:
        return int(self.indptr.shape[0] - 1)

    @property
    def m(self) -> int:
        return int(self.indices.shape[0])

    def __repr__(self) -> str:
        return f"SparsePolarTables(n={self.n}, m={self.m}, r_cut={self.r_cut:g})"


def _directed_candidates(c: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Directed ``(src, dst)`` pairs within distance ``r``, in ``(src, dst)`` order.

    ``query_pairs`` lists each pair once, so the keys ``src·n + dst`` of
    both directions are unique and one plain sort of them is the
    lexicographic order.  Membership at the exact boundary may differ from
    ``np.hypot`` by a last-ulp (the kd-tree computes its own distances);
    the certification pads absorb this, and extra pairs are always
    harmless.
    """
    from scipy.spatial import cKDTree  # lazy: +7 MB RSS, sparse routing only

    empty = np.empty(0, dtype=np.int64)
    n = c.shape[0]
    if n <= 1:
        return empty, empty
    pairs = cKDTree(c).query_pairs(r, output_type="ndarray")
    if pairs.shape[0] == 0:
        return empty, empty
    u = pairs[:, 0].astype(np.int64)
    v = pairs[:, 1].astype(np.int64)
    return np.divmod(np.sort(np.concatenate([u * n + v, v * n + u])), n)


def sparse_polar_tables(coords, r_cut: float) -> SparsePolarTables:
    """Build the radius-bounded CSR angle/distance tables for ``coords``.

    Counts the *actual* trig work performed — one ``arctan2`` per directed
    candidate pair — in ``COUNTERS.trig_evals`` (the dense builder counts
    ``n²``), plus one ``sparse_polar_builds`` launch.  ``r_cut`` must be
    finite: the set of every pair is asked for as
    :func:`complete_cutoff` of ``coords``.
    """
    c = np.ascontiguousarray(np.asarray(coords, dtype=float))
    if c.ndim != 2 or c.shape[1] != 2:
        raise ValueError(f"expected (n, 2) coordinates, got shape {c.shape}")
    r = float(r_cut)
    if not 0.0 <= r < np.inf:  # also rejects NaN
        raise ValueError(f"candidate cutoff must be finite and >= 0, got {r}")
    n = c.shape[0]
    src, dst = _directed_candidates(c, r)
    off = c[dst] - c[src]
    dist = np.hypot(off[:, 0], off[:, 1])
    ang = angle_of(off) if off.shape[0] else np.empty(0, dtype=float)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    COUNTERS.sparse_polar_builds += 1
    COUNTERS.trig_evals += int(src.shape[0])
    for arr in (indptr, src, dst, dist, ang):
        arr.setflags(write=False)
    return SparsePolarTables(indptr, dst, src, dist, ang, r)


def dense_candidate_tables(tables: PolarTables, r_cut: float) -> SparsePolarTables:
    """The off-diagonal pairs of dense ``tables`` within ``r_cut``, as CSR.

    Row-major ``np.nonzero`` order is the ``(src, dst)`` order
    :func:`sparse_polar_tables` emits, and every pair keeps its dense float
    values, so the result serves every consumer of a kd-tree build at the
    same cutoff (up to the boundary fuzz the cutoff pads absorb) with no
    kd-tree and no trig.
    """
    r = float(r_cut)
    within = tables.dist <= r
    np.fill_diagonal(within, False)
    src, dst = np.nonzero(within)
    n = tables.n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    dist = tables.dist[src, dst]
    ang = tables.ang[src, dst]
    for arr in (indptr, src, dst, dist, ang):
        arr.setflags(write=False)
    return SparsePolarTables(indptr, dst, src, dist, ang, r)


def trial_coverage(
    tables: SparsePolarTables,
    sensor_idx: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    radius: np.ndarray,
    *,
    trials: int = 1,
    eps: float = 1e-9,
    radius_mask: bool = True,
    angular_mask: bool = False,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-trial covered-edge masks for a chunk of Monte-Carlo trials.

    ``sensor_idx`` and ``spread`` are the ``flattened()`` columns every
    trial shares.  ``start`` and ``radius`` are either ``(a,)``, shared by
    every trial, or ``(trials, a)``, one row per trial (rotation perturbs
    the starts, fading the radii).  Returns ``(cover, cover_ang)``, each a
    ``(trials, m)`` boolean over the candidate edges: covered by some
    antenna within its radius (``radius_mask``), and covered at any
    distance (``angular_mask``); a mask not asked for is ``None``.

    A factor whose inputs every trial shares (the angular test without
    rotation, the radius test without fading) is evaluated once per chunk;
    the other only on the (antenna, edge) entries that pass it.  Both use
    the dense kernel's elementwise expressions (the full-circle shortcut,
    :func:`~repro.kernels.coverage._ccw_from_start`,
    :func:`radius_tolerance`, ``dist > 0``), so every mask bit equals that
    trial's dense coverage entry.  Temporaries are blocked to
    ``_EDGE_BLOCK_ELEMS`` elements over (trial, entry).  One
    ``coverage_calls`` launch per mask; ``sector_evals`` counts each
    trial's (antenna, candidate-edge) tests per mask.
    """
    trials = int(trials)
    cover = np.zeros((trials, tables.m), dtype=bool) if radius_mask else None
    cover_ang = np.zeros((trials, tables.m), dtype=bool) if angular_mask else None
    idx = np.asarray(sensor_idx, dtype=np.int64)
    a = idx.shape[0]
    masks = int(radius_mask) + int(angular_mask)
    if a == 0 or trials == 0 or masks == 0:
        return cover, cover_ang
    COUNTERS.coverage_calls += masks
    deg = tables.indptr[idx + 1] - tables.indptr[idx]
    bounds = np.cumsum(deg)
    COUNTERS.sector_evals += masks * trials * int(bounds[-1])
    start = np.asarray(start, dtype=float)
    spread = np.asarray(spread, dtype=float)
    radius = np.asarray(radius, dtype=float)
    full = spread >= TWO_PI - eps
    lo = 0
    while lo < a:
        budget = (bounds[lo - 1] if lo else 0) + _EDGE_BLOCK_ELEMS
        hi = max(int(np.searchsorted(bounds, budget, side="right")), lo + 1)
        block = slice(lo, hi)
        _trial_block(
            tables, idx[block], deg[block], start[..., block], spread[block],
            full[block], radius[..., block], eps, cover, cover_ang,
        )
        lo = hi
    return cover, cover_ang


def _angular_ok(ang, start, spread, full, eps: float) -> np.ndarray:
    """Angular containment over the last axis (columns = entries).

    ``ang``, ``spread`` and ``full`` are per entry; ``start`` is per entry
    or ``(trials, entries)``.  Full-circle columns short-circuit.
    """
    nf = ~full
    if nf.all():
        rel = _ccw_from_start(ang, start)
        return (rel <= spread + eps) | (rel >= TWO_PI - eps)
    ok = np.ones(np.broadcast_shapes(ang.shape, start.shape), dtype=bool)
    if nf.any():
        rel = _ccw_from_start(ang[nf], start[..., nf])
        ok[..., nf] = (rel <= spread[nf] + eps) | (rel >= TWO_PI - eps)
    return ok


def _within(dist: np.ndarray, radius: np.ndarray, eps: float) -> np.ndarray:
    """Radius containment, elementwise (``inf`` plus its tolerance stays
    ``inf``, so an unbounded antenna passes every entry)."""
    return dist <= radius + radius_tolerance(radius, eps)


def _trial_block(tables, idx, deg, start, spread, full, radius, eps, cover, cover_ang):
    """OR one antenna block's per-trial hits into the masks."""
    total = int(deg.sum())
    if total == 0:
        return
    ant = np.repeat(np.arange(deg.shape[0]), deg)
    ends = np.cumsum(deg)
    eid = np.repeat(tables.indptr[idx] - ends + deg, deg) + np.arange(total)
    dist = tables.dist[eid]
    ang = tables.ang[eid]
    rotated, faded = start.ndim == 2, radius.ndim == 2
    keep = dist > 0.0
    if not rotated:
        # The angular test is trial-invariant: once for the chunk.
        keep &= _angular_ok(ang, start[ant], spread[ant], full[ant], eps)
        if cover_ang is not None:
            cover_ang[:, eid[keep]] = True
        if cover is None:
            return
        p = np.flatnonzero(keep)
        if not faded:
            cover[:, eid[p[_within(dist[p], radius[ant[p]], eps)]]] = True
            return
        for t0, t1 in _trial_spans(cover.shape[0], p.shape[0]):
            rows, cols = np.nonzero(_within(dist[p], radius[t0:t1][:, ant[p]], eps))
            cover[t0 + rows, eid[p[cols]]] = True
        return
    rad_ok = None
    if cover is not None and not faded:
        # The radius test is trial-invariant: once for the chunk, and the
        # per-trial angular test skips the entries it rejects unless the
        # angular mask needs them.
        rad_ok = _within(dist, radius[ant], eps)
        if cover_ang is None:
            keep &= rad_ok
    p = np.flatnonzero(keep)
    for t0, t1 in _trial_spans(start.shape[0], p.shape[0]):
        rows, cols = np.nonzero(
            _angular_ok(ang[p], start[t0:t1][:, ant[p]], spread[ant[p]],
                        full[ant[p]], eps)
        )
        e = p[cols]
        if cover_ang is not None:
            cover_ang[t0 + rows, eid[e]] = True
        if cover is None:
            continue
        if faded:
            ok = _within(dist[e], radius[t0 + rows, ant[e]], eps)
            rows, e = rows[ok], e[ok]
        elif rad_ok is not None and cover_ang is not None:
            ok = rad_ok[e]
            rows, e = rows[ok], e[ok]
        cover[t0 + rows, eid[e]] = True


def _trial_spans(trials: int, entries: int):
    """``(t0, t1)`` trial ranges whose ``(t1 - t0) × entries`` temporaries
    stay within ``_EDGE_BLOCK_ELEMS``."""
    step = max(1, _EDGE_BLOCK_ELEMS // max(entries, 1))
    for t0 in range(0, trials, step):
        yield t0, min(t0 + step, trials)


def trial_connected(
    tables: SparsePolarTables,
    cover: np.ndarray,
    counts: np.ndarray,
    relabel: np.ndarray | None = None,
    *,
    mode: str = "strong",
) -> np.ndarray:
    """Per-trial connectivity of a ``(trials, m)`` covered-edge stack.

    Row ``t`` is trial ``t``'s edge mask; its vertices are ``relabel[t]``
    (each alive sensor's compact id, ``counts[t]`` of them) or all of
    ``0..n-1``.  Every row becomes one block of a block-diagonal union
    graph, answered by one :func:`union_connected` launch; symmetric mode
    keeps each row's mutual edges and asks undirected connectivity.
    """
    counts = np.asarray(counts, dtype=np.int64)
    base = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
    total = int(base[-1])
    rev = reverse_edge_permutation(tables) if mode == "symmetric" else None
    # Union ids fit int32 at any practical size: half the edge memory.
    itype = np.int32 if total < 2**31 else np.int64
    degree = np.zeros(total, dtype=np.int64)
    dsts = [np.empty(0, itype)]
    step = max(1, _EDGE_BLOCK_ELEMS // max(tables.m, 1))
    for r0 in range(0, cover.shape[0], step):
        block = cover[r0 : r0 + step]
        if rev is not None:
            block = block & block[:, rev]
        j, e = np.nonzero(block)
        t = r0 + j
        src, dst = tables.src[e], tables.indices[e]
        if relabel is not None:
            src, dst = relabel[t, src], relabel[t, dst]
        # Row-major order, CSR edge order and a monotone relabel keep the
        # union edges grouped by source.
        degree += np.bincount(src + base[t], minlength=total)
        dsts.append((dst + base[t]).astype(itype))
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    connection = "weak" if mode == "symmetric" else "strong"
    return union_connected(counts, indptr, np.concatenate(dsts), connection=connection)


def trial_critical(
    tables: SparsePolarTables,
    cover_ang: np.ndarray,
    counts: np.ndarray,
    relabel: np.ndarray | None = None,
    fade: np.ndarray | None = None,
    *,
    mode: str = "strong",
    eps: float = 1e-9,
) -> np.ndarray:
    """Per-trial critical range over a ``(trials, m)`` angular-mask stack.

    ``counts``/``relabel`` as in :func:`trial_connected`.  With ``fade``
    (``(trials, n)``) an edge's length is divided by its source's fade;
    symmetric mode judges each pair at its worse direction.  Each trial
    runs the dense kernels' search body on the same edge arrays, so a
    value equals the dense one whenever the candidate set holds every
    pair the search can use (``0.0`` for at most one vertex, ``inf`` when
    deficient).  Symmetric mode searches each row's mutual edges, in new
    arrays: ``cover_ang`` stays the plain angular mask the ``inf``
    certificate reads.  One ``critical_searches`` launch for the whole
    stack.
    """
    rev = reverse_edge_permutation(tables) if mode == "symmetric" else None
    out = np.empty(cover_ang.shape[0], dtype=float)
    COUNTERS.critical_searches += 1
    for t in range(cover_ang.shape[0]):
        n = int(counts[t])
        row = cover_ang[t]
        e = np.flatnonzero(row if rev is None else row & row[rev])
        if n <= 1 or e.shape[0] == 0:
            out[t] = 0.0 if n <= 1 else np.inf
            continue
        src, dst, dist = tables.src[e], tables.indices[e], tables.dist[e]
        if fade is not None:
            dist = dist / fade[t, src]
            if rev is not None:
                dist = np.maximum(dist, tables.dist[rev[e]] / fade[t, dst])
        if relabel is not None:
            src, dst = relabel[t][src], relabel[t][dst]
        out[t] = _critical_search_impl(n, src, dst, dist, eps, mode)
    return out


def reverse_edge_permutation(tables: SparsePolarTables) -> np.ndarray:
    """Index of each candidate edge's reverse edge, computed once per tables.

    The candidate set is direction-symmetric (both directions of every
    within-cutoff pair are present) and in ``(src, dst)`` order, so
    sorting the edges by ``(dst, src)`` lists each edge's reverse in edge
    order.  The keys ``dst·n + src`` are unique, so one plain argsort of
    them does it.  The result is kept on ``tables``, read-only like their
    arrays.
    """
    rev = tables._rev
    if rev is None:
        # Stacked union ids are int32: widen before the multiply.
        rev = np.argsort(tables.indices.astype(np.int64) * tables.n + tables.src)
        rev.setflags(write=False)
        tables._rev = rev
    return rev


# -- cutoff policy ------------------------------------------------------------------


def required_cutoff(base: float, eps: float = 1e-9) -> float:
    """The candidate cutoff certifying results up to radius ``base``.

    ``base + radius_tolerance(base, eps)`` is the largest distance a
    radius-``base`` test can accept; two ``_CUT_PAD`` factors leave room
    for both the certification margin and kd-tree boundary fuzz.
    """
    b = max(float(base), 0.0)
    if not np.isfinite(b):
        return float("inf")
    return (b + radius_tolerance(b, eps)) * _CUT_PAD * _CUT_PAD


def default_instance_cutoff(lmax: float, eps: float = 1e-9) -> float:
    """The shared per-instance cutoff the engine caches sparse tables at.

    Every Table-1 range bound is at most ``BTSP_RANGE = 2`` (in lmax
    units), so one sparse artifact at ``required_cutoff(2·lmax)`` serves
    every ``(k, φ)`` grid cell of a sweep; the per-result certification in
    :func:`repro.ensemble.trials.measure_columns` remains the safety net
    for out-of-family radii (e.g. a k = 1 tour bottleneck above
    ``2·lmax``).
    """
    return required_cutoff(2.0 * float(lmax), eps)


def bbox_diameter_bound(coords) -> float:
    """An upper bound on the largest pairwise distance (bbox diagonal).

    ``np.hypot`` is monotone per argument and coordinate differences are
    monotone under rounding, so this bound also dominates every *rounded*
    pair distance in the tables.
    """
    c = np.asarray(coords, dtype=float)
    if c.shape[0] == 0:
        return 0.0
    mn = c.min(axis=0)
    mx = c.max(axis=0)
    return float(np.hypot(mx[0] - mn[0], mx[1] - mn[1]))


def complete_cutoff(coords, eps: float = 1e-9) -> float:
    """A cutoff at which the candidate set provably contains *every* pair."""
    return required_cutoff(bbox_diameter_bound(coords), eps)


def certified_cutoff(critical: float, scale: float = 1.0, eps: float = 1e-9) -> float:
    """The smallest cutoff at which a finite critical range is certified.

    Every edge the accepting dense probe can use is at most
    ``critical + radius_tolerance(critical)`` long, times ``scale`` when
    the search divided pair lengths by factors up to ``scale`` (fading);
    ``_CUT_PAD`` keeps it strictly inside the cutoff, membership fuzz
    included.  At that cutoff the sparse and dense prefix graphs coincide
    at every probe radius up to ``critical``, so both bisections return the
    same candidate float.
    """
    return (critical + radius_tolerance(critical, eps)) * scale * _CUT_PAD
