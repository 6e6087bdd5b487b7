"""Many small instances, one kernel launch: a sweep chunk's stacked pairs.

Sweeps evaluate *ensembles* — hundreds of modest instances per ``(k, φ)``
grid cell — and at that scale the per-call overhead of one kernel launch
per instance dominates the actual array work.  This module packs a ragged
chunk of instances (:class:`BatchedInstances`: padded coords + counts),
builds one packed ``(M, n_max, n_max)`` polar table for the whole chunk
(:class:`PackedPolarTables`), and from it the chunk's candidate pairs
(:class:`PackedCandidates`): each instance's off-diagonal pairs within its
own cutoff, stacked block-diagonally over the union of the chunk's
``Σn`` vertices as one :class:`~repro.kernels.sparse.SparsePolarTables`.
The candidate-pair kernels every measurement runs
(:func:`~repro.kernels.sparse.trial_coverage`,
:func:`~repro.kernels.connectivity.union_connected` and the critical
search) then measure every instance of the chunk in one launch each; the
certified loop around them is
:func:`repro.analysis.metrics.batched_orientation_metrics`.

Bit-exactness contract (vs. the per-instance kernels):

* packed polar tables run the same ``hypot`` / ``angle_of`` expressions on
  the same per-instance offsets — padding only adds rows/columns that are
  never read back;
* instance ``m``'s block of the stacked pairs is
  :func:`~repro.kernels.sparse.dense_candidate_tables` of its own tables
  at its cutoff, offset by its first union vertex;
* stacked connectivity runs *one* ``connected_components`` call on the
  block-diagonal union graph — with no cross-instance edges the labels
  restricted to an instance's block are exactly its own component labels;
* the stacked critical range runs the counter-free search body
  (:func:`repro.kernels.critical._critical_search_impl`) per instance on
  the edge arrays a per-instance trial passes it.

Launch accounting: one call increments ``coverage_calls`` /
``critical_searches`` / ``scipy_scc_calls`` *once* for the whole chunk
(that is the point — the instrument counters are how CI judges the win),
while per-instance work counters (``sector_evals``, ``connectivity_probes``,
``trig_evals``) stay honest about the total work done.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.geometry.angles import angle_of
from repro.kernels.connectivity import union_connected
from repro.kernels.critical import _critical_search_impl
from repro.errors import InvalidParameterError
from repro.kernels.geometry import (
    DENSE_LIMIT_ENV_VAR,
    _ROW_BLOCK_ELEMS,
    PolarTables,
    dense_element_limit,
)
from repro.kernels.instrument import COUNTERS
from repro.kernels.sparse import (
    SparsePolarTables,
    default_instance_cutoff,
    dense_candidate_tables,
    reverse_edge_permutation,
)

__all__ = [
    "BatchedInstances",
    "PackedPolarTables",
    "PackedCandidates",
    "pack_instances",
    "packed_polar_tables",
    "packed_candidates",
    "stacked_connected",
    "stacked_critical",
]


class BatchedInstances:
    """A chunk of ``M`` ragged point sets packed into padded arrays.

    Attributes
    ----------
    coords:
        ``(M, n_max, 2)`` float coords, zero-padded past each instance's
        ``counts[m]`` points.  Pad entries are never read back — every
        consumer masks on ``counts``.
    counts:
        ``(M,)`` int64 point counts per instance.
    """

    __slots__ = ("coords", "counts")

    def __init__(self, coords: np.ndarray, counts: np.ndarray):
        self.coords = coords
        self.counts = counts

    @property
    def m(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n_max(self) -> int:
        return int(self.coords.shape[1])

    def __repr__(self) -> str:
        return f"BatchedInstances(m={self.m}, n_max={self.n_max})"


def pack_instances(coords_list) -> BatchedInstances:
    """Pack a non-empty list of ``(n_i, 2)`` coord arrays into one batch."""
    if not coords_list:
        raise ValueError("pack_instances needs at least one instance")
    arrays = []
    for c in coords_list:
        a = np.ascontiguousarray(np.asarray(c, dtype=float))
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coordinates, got shape {a.shape}")
        arrays.append(a)
    counts = np.array([a.shape[0] for a in arrays], dtype=np.int64)
    n_max = int(counts.max())
    packed = np.zeros((len(arrays), max(n_max, 1), 2), dtype=float)
    for m, a in enumerate(arrays):
        packed[m, : a.shape[0]] = a
    return BatchedInstances(packed, counts)


class PackedPolarTables:
    """Per-instance polar geometry for a packed chunk.

    ``dist[m, u, v]`` / ``ang[m, u, v]`` match instance ``m``'s own
    :class:`~repro.kernels.geometry.PolarTables` bit-for-bit on the valid
    ``[:counts[m], :counts[m]]`` block; pad entries are arbitrary and
    must never be read.
    """

    __slots__ = ("dist", "ang", "counts")

    def __init__(self, dist: np.ndarray, ang: np.ndarray, counts: np.ndarray):
        self.dist = dist
        self.ang = ang
        self.counts = counts

    @property
    def m(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n_max(self) -> int:
        return int(self.dist.shape[1])

    def __repr__(self) -> str:
        return f"PackedPolarTables(m={self.m}, n_max={self.n_max})"


def packed_polar_tables(batch: BatchedInstances) -> PackedPolarTables:
    """One launch building every instance's angle/distance tables.

    Counted as one ``packed_polar_builds`` launch (NOT ``polar_builds`` —
    the per-instance counter keeps meaning "per-instance table built").
    ``trig_evals`` counts the padded work actually done.
    """
    c = batch.coords
    m, n_max = c.shape[0], c.shape[1]
    limit = dense_element_limit()
    if n_max * n_max > limit:
        raise InvalidParameterError(
            f"packed polar tables for n_max={n_max:,} need n² = "
            f"{n_max * n_max:,} elements per instance table, over the "
            f"{limit:,}-element budget ({DENSE_LIMIT_ENV_VAR}); use the "
            "radius-bounded sparse backend for large instances "
            "(REPRO_BACKEND=sparse / --backend sparse, or the auto rule)"
        )
    dist = np.empty((m, n_max, n_max), dtype=float)
    ang = np.empty((m, n_max, n_max), dtype=float)
    # Same element budget as the per-instance builder, now over instances.
    block = max(1, _ROW_BLOCK_ELEMS // max(n_max * n_max, 1))
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        cs = c[lo:hi]
        off = cs[:, None, :, :] - cs[:, :, None, :]
        dist[lo:hi] = np.hypot(off[..., 0], off[..., 1])
        ang[lo:hi] = angle_of(off)
    COUNTERS.packed_polar_builds += 1
    COUNTERS.batched_instances += m
    COUNTERS.trig_evals += m * n_max * n_max
    dist.setflags(write=False)
    ang.setflags(write=False)
    return PackedPolarTables(dist, ang, batch.counts)


class PackedCandidates(NamedTuple):
    """A chunk's candidate pairs, stacked block-diagonally.

    ``pairs`` is one :class:`~repro.kernels.sparse.SparsePolarTables` over
    the union of the chunk's vertices: instance ``m`` owns union vertices
    ``base[m]:base[m + 1]`` and holds its off-diagonal pairs within
    ``r_cut[m]``, so its edges are ``pairs.indptr[base[m]]`` up to
    ``pairs.indptr[base[m + 1]]``.  ``pairs.r_cut`` is the smallest
    instance cutoff.
    """

    pairs: SparsePolarTables
    base: np.ndarray
    r_cut: np.ndarray


def packed_candidates(tables: PackedPolarTables, lmax) -> PackedCandidates:
    """Every instance's off-diagonal pairs within its own default cutoff.

    Instance ``m``'s cutoff is
    :func:`~repro.kernels.sparse.default_instance_cutoff` of ``lmax[m]``,
    where the per-instance loop starts too, and its block is its own
    :func:`~repro.kernels.sparse.dense_candidate_tables` at that cutoff,
    on a view of its packed tables, offset by ``base[m]``.  Blocks follow
    instance order, so the stacked pairs keep the ``(src, dst)`` order
    over the union ids.  No kd-tree, no trig.
    """
    r_cut = np.array([default_instance_cutoff(x) for x in lmax], dtype=float)
    base = np.concatenate([np.zeros(1, np.int64), np.cumsum(tables.counts)])
    blocks = []
    for m, n in enumerate(tables.counts):
        view = PolarTables(tables.dist[m, :n, :n], tables.ang[m, :n, :n])
        blocks.append(dense_candidate_tables(view, r_cut[m]))
    total = int(base[-1])
    # Union ids fit int32 at any practical size: half the id memory.
    itype = np.int32 if total < 2**31 else np.int64
    src = np.concatenate([b.src + base[m] for m, b in enumerate(blocks)], dtype=itype)
    dst = np.concatenate([b.indices + base[m] for m, b in enumerate(blocks)], dtype=itype)
    dist = np.concatenate([b.dist for b in blocks])
    ang = np.concatenate([b.ang for b in blocks])
    del blocks
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=total), out=indptr[1:])
    for arr in (indptr, src, dst, dist, ang):
        arr.setflags(write=False)
    low = float(r_cut.min()) if r_cut.size else 0.0
    return PackedCandidates(
        SparsePolarTables(indptr, dst, src, dist, ang, low), base, r_cut
    )


def stacked_connected(
    candidates: PackedCandidates, cover: np.ndarray, *, mode: str = "strong"
) -> np.ndarray:
    """Per-instance connectivity of a covered-edge mask over stacked pairs.

    ``cover`` is one boolean per stacked pair.  The covered edges are the
    block-diagonal union graph, answered by one :func:`union_connected`
    launch with the instance sizes as block counts.  Symmetric mode keeps
    the mutual edges and asks undirected connectivity.
    """
    pairs, base = candidates.pairs, candidates.base
    if mode == "symmetric":
        cover = cover & cover[reverse_edge_permutation(pairs)]
    e = np.flatnonzero(cover)
    total = int(base[-1])
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs.src[e], minlength=total), out=indptr[1:])
    connection = "weak" if mode == "symmetric" else "strong"
    return union_connected(
        np.diff(base), indptr, pairs.indices[e], connection=connection
    )


def stacked_critical(
    candidates: PackedCandidates,
    cover_ang: np.ndarray,
    *,
    eps: float = 1e-9,
    mode: str = "strong",
) -> np.ndarray:
    """Per-instance critical range from an angular mask over stacked pairs.

    One ``critical_searches`` launch for the chunk.  Each instance runs
    the search body on its own slice of covered edges, in its own vertex
    ids: the arrays :func:`~repro.kernels.sparse.trial_critical` passes for
    the instance's candidate pairs at the same cutoff, so the values are
    the same floats (``0.0`` for at most one vertex, ``inf`` when
    deficient).  Whether a value is exact depends on the cutoff; that is
    for the caller to certify.
    """
    pairs, base = candidates.pairs, candidates.base
    ends = pairs.indptr[base]
    out = np.empty(base.shape[0] - 1, dtype=float)
    COUNTERS.critical_searches += 1
    for i in range(out.shape[0]):
        n = int(base[i + 1] - base[i])
        e = ends[i] + np.flatnonzero(cover_ang[ends[i] : ends[i + 1]])
        if n <= 1 or e.shape[0] == 0:
            out[i] = 0.0 if n <= 1 else np.inf
            continue
        out[i] = _critical_search_impl(
            n, pairs.src[e] - base[i], pairs.indices[e] - base[i],
            pairs.dist[e], eps, mode,
        )
    return out
