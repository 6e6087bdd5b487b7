"""Many small instances, one kernel launch: a sweep chunk's stacked pairs.

Sweeps evaluate *ensembles* — hundreds of modest instances per ``(k, φ)``
grid cell — and at that scale the per-call overhead of one kernel launch
per instance dominates the actual array work.  A chunk's geometry is the
list of its instances' own :class:`~repro.kernels.geometry.PolarTables`
(:func:`packed_polar_tables`); from them come the chunk's candidate pairs
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

from typing import NamedTuple, Sequence

import numpy as np

from repro.kernels.connectivity import union_connected
from repro.kernels.critical import _critical_search_impl
from repro.kernels.geometry import PolarTables, polar_tables
from repro.kernels.instrument import COUNTERS
from repro.kernels.sparse import (
    SparsePolarTables,
    default_instance_cutoff,
    dense_candidate_tables,
    reverse_edge_permutation,
)

__all__ = [
    "PackedCandidates",
    "packed_polar_tables",
    "packed_candidates",
    "stacked_connected",
    "stacked_critical",
]


def packed_polar_tables(coords_list) -> list[PolarTables]:
    """Each instance's own polar tables, built for a whole chunk.

    Counts one ``packed_polar_builds`` launch per chunk and one
    ``batched_instances`` per instance, besides each instance's own
    ``polar_builds`` and ``trig_evals``.  The chunk-level name stays because
    ``perfbench/tracing.py`` wraps it (as :mod:`repro.kernels.backend`'s
    attribute) as the chunk's table build; the per-instance builds call
    :func:`~repro.kernels.geometry.polar_tables` directly, so the tracer
    counts one table build per chunk, not one per instance.
    """
    tables = [polar_tables(c) for c in coords_list]
    COUNTERS.packed_polar_builds += 1
    COUNTERS.batched_instances += len(tables)
    return tables


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


def packed_candidates(tables: Sequence[PolarTables], lmax) -> PackedCandidates:
    """Every instance's off-diagonal pairs within its own default cutoff.

    Instance ``m``'s cutoff is
    :func:`~repro.kernels.sparse.default_instance_cutoff` of ``lmax[m]``,
    where the per-instance loop starts too, and its block is
    :func:`~repro.kernels.sparse.dense_candidate_tables` of ``tables[m]``
    at that cutoff, offset by ``base[m]``.  Blocks follow instance order,
    so the stacked pairs keep the ``(src, dst)`` order over the union ids.
    No kd-tree, no trig.
    """
    r_cut = np.array([default_instance_cutoff(x) for x in lmax], dtype=float)
    counts = np.array([t.n for t in tables], dtype=np.int64)
    base = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
    blocks = [dense_candidate_tables(t, r) for t, r in zip(tables, r_cut)]
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
