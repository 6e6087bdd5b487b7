"""Rebuild-free critical-range search.

The measured critical range is the smallest uniform radius whose distance-
truncated transmission graph is connected: strongly, or, in symmetric mode,
through its mutual edges.  The old implementation
rebuilt a fresh :class:`~repro.graph.digraph.DiGraph` (sort + dedup + CSR)
for every binary-search probe.  This kernel sorts the covered pairs by
distance exactly once; each probe is then a prefix of the sorted edge list,
regrouped into CSR form by pure array ops (bincount + boolean mask against
precomputed per-edge distance ranks) and handed to the CSR connectivity
kernel.  Zero graph objects, O(log m) probes, one sort.

Bit-identical to the rebuild search: a probe at radius ``r`` keeps exactly
the edges with ``dist <= r + radius_tolerance(r, eps)`` (the prefix), and
the bisection over the same ``np.unique`` candidate array takes the same
branches, so the returned float is the same.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.sectors import radius_tolerance
from repro.kernels.connectivity import (
    mutual_mask,
    strongly_connected_csr,
    symmetric_connected_csr,
)
from repro.kernels.instrument import COUNTERS

__all__ = ["critical_range_search"]


def critical_range_search(
    n: int,
    pairs: np.ndarray,
    dists: np.ndarray,
    *,
    eps: float = 1e-9,
    mode: str = "strong",
) -> float:
    """Bottleneck radius over candidate edges ``pairs`` with lengths ``dists``.

    ``mode="symmetric"`` runs the same search on the *symmetrized*
    candidate list: an angularly covered pair survives only when both
    directions are present (:func:`mutual_mask`).  Distances are
    direction-symmetric bit-exactly (``hypot(-dx, -dy) == hypot(dx, dy)``),
    so a radius prefix of the mutual list contains whole pairs and the
    probe checks undirected connectivity of exactly the mutual graph at
    that radius.

    Returns ``inf`` when even the full candidate set is not connected
    (the orientations themselves are deficient), ``0.0`` for ``n <= 1``.
    """
    if n <= 1:
        return 0.0
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    dists = np.asarray(dists, dtype=float)
    if pairs.shape[0] == 0:
        return float("inf")
    COUNTERS.critical_searches += 1
    return _critical_search_impl(n, pairs[:, 0], pairs[:, 1], dists, eps, mode)


def _critical_search_impl(
    n: int,
    src_all: np.ndarray,
    dst_all: np.ndarray,
    dists: np.ndarray,
    eps: float,
    mode: str = "strong",
) -> float:
    """The search body, free of launch accounting (``critical_searches``).

    Shared by the per-instance entry point above, the stacked
    multi-instance kernel (:func:`repro.kernels.batch.stacked_critical`)
    and the trial kernel (:func:`repro.kernels.sparse.trial_critical`),
    which count one launch for a whole chunk.  Symmetric mode keeps the
    mutual edges and probes with :func:`symmetric_connected_csr`, strong
    mode probes with :func:`strongly_connected_csr`; connectivity probes
    are counted inside the probe.  Requires ``n >= 2`` and at least one
    edge.
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
