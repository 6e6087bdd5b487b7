"""The critical-range search body, over a once-sorted edge list.

The measured critical range is the smallest uniform radius whose distance-
truncated transmission graph is connected: strongly, or, in symmetric mode,
through its mutual edges.  The search takes the angularly covered pairs
grouped by source, which is the CSR scaffold of every probe, and sorts
them by distance exactly once; each bisection probe keeps a prefix of the
sorted edges, picked out of the scaffold by pure array ops (bincount +
boolean mask against each edge's distance rank) and handed to the CSR
connectivity kernel.  Zero graph objects, O(log m) probes, one sort.

Every critical range is measured through it: per trial
(:func:`repro.kernels.sparse.trial_critical`, which
:func:`repro.antenna.coverage.critical_range` and every deterministic
measurement run as one unperturbed trial) and per instance of a stacked
sweep chunk (:func:`repro.kernels.batch.stacked_critical`).  Bit-identical
to the per-probe ``DiGraph`` rebuild kept as the oracle in
``tests/kernels_reference.py``: a probe at radius ``r`` keeps exactly the
edges with ``dist <= r + radius_tolerance(r, eps)`` (the prefix, ties
included whatever their sorted order), and the bisection over the same
candidate array (the distinct distances, ascending, as ``np.unique``
returns them) takes the same branches, so the returned float is the same.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.sectors import radius_tolerance
from repro.kernels.connectivity import strongly_connected_csr, symmetric_connected_csr


def _critical_search_impl(
    n: int,
    src_all: np.ndarray,
    dst_all: np.ndarray,
    dists: np.ndarray,
    eps: float,
    mode: str = "strong",
) -> float:
    """The search body, free of launch accounting (``critical_searches``).

    Shared by the stacked multi-instance kernel
    (:func:`repro.kernels.batch.stacked_critical`) and the trial kernel
    (:func:`repro.kernels.sparse.trial_critical`), which count one launch
    for a whole chunk.  Returns ``inf`` when even the whole edge set is not
    connected (the orientations themselves are deficient).  In symmetric
    mode the caller passes the mutual edges (both directions of every
    pair, at one distance), which are probed with
    :func:`symmetric_connected_csr`; strong mode probes with
    :func:`strongly_connected_csr`.  Connectivity probes are counted
    inside the probe.  Requires ``n >= 2`` and at least one edge; edges
    grouped by source (the callers' order) are never regrouped.
    """
    probe = symmetric_connected_csr if mode == "symmetric" else strongly_connected_csr
    m = src_all.shape[0]
    zero = np.zeros(1, dtype=np.int64)

    # The first probe is the whole candidate set.  Run it before sorting:
    # a deficient set (a common outcome of random perturbations) is then
    # answered with no sort at all.
    if np.any(src_all[1:] < src_all[:-1]):
        order = np.argsort(src_all, kind="stable")
        src_all, dst_all, dists = src_all[order], dst_all[order], dists[order]
    indptr = np.concatenate([zero, np.cumsum(np.bincount(src_all, minlength=n))])
    if not probe(n, indptr, dst_all):
        return float("inf")

    # One sort by distance; every probe keeps a prefix of it, ties whole.
    by_dist = np.argsort(dists)
    src = src_all[by_dist]
    sorted_dists = dists[by_dist]
    # ``ranks[i]`` is the distance rank of edge i, so the probe mask
    # ``ranks < cnt`` keeps the prefix in the source-grouped scaffold.
    ranks = np.empty(m, dtype=np.int64)
    ranks[by_dist] = np.arange(m, dtype=np.int64)

    def connected_at(r: float) -> bool:
        cnt = int(np.searchsorted(sorted_dists, r + radius_tolerance(r, eps), side="right"))
        row_counts = np.bincount(src[:cnt], minlength=n)
        indptr = np.concatenate([zero, np.cumsum(row_counts)])
        return probe(n, indptr, dst_all[ranks < cnt])

    # The distinct distances, ascending: ``np.unique`` would sort again.
    distinct = np.empty(m, dtype=bool)
    distinct[0] = True
    np.not_equal(sorted_dists[1:], sorted_dists[:-1], out=distinct[1:])
    candidates = sorted_dists[distinct]
    lo, hi = 0, candidates.size - 1  # invariant: connected_at(candidates[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        if connected_at(float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[hi])
