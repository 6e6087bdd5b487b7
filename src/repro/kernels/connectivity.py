"""CSR strong-connectivity kernels.

The CSR arrays go straight to
``scipy.sparse.csgraph.connected_components(connection="strong")`` (a C
implementation), behind cheap vectorized rejects: a vertex with zero out-
or in-degree can never belong to a single SCC spanning ``n >= 2``
vertices.

These kernels operate on raw ``(indptr, indices)`` or edge arrays — no
:class:`~repro.graph.digraph.DiGraph` is constructed — which is what makes
the rebuild-free critical-range search possible.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.kernels.instrument import COUNTERS

__all__ = [
    "CONNECTIVITY_MODES",
    "validate_mode",
    "strongly_connected_csr",
    "strongly_connected_edges",
    "symmetric_connected_csr",
    "mutual_mask",
    "union_connected",
    "component_count_csr",
]

#: The two connectivity objectives every kernel/planner layer serves.
#: ``strong``: the paper's directed model (u→v iff some antenna of u covers
#: v; the graph must be strongly connected).  ``symmetric``: the
#: Aschner–Katz model — an edge exists only when *both* endpoints cover
#: each other, and the resulting undirected graph must be connected.
CONNECTIVITY_MODES = ("strong", "symmetric")


def validate_mode(mode: str) -> str:
    """Validate a connectivity-mode string (shared by specs and kernels)."""
    if mode not in CONNECTIVITY_MODES:
        from repro.errors import InvalidParameterError

        raise InvalidParameterError(
            f"unknown connectivity mode {mode!r}; "
            f"choose from {', '.join(CONNECTIVITY_MODES)}"
        )
    return mode


def strongly_connected_csr(n: int, indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Is the CSR digraph ``(indptr, indices)`` on ``n`` vertices strongly connected?"""
    COUNTERS.connectivity_probes += 1
    if n <= 1:
        return True
    if indices.shape[0] < n:  # strong connectivity needs >= n edges
        return False
    if np.any(np.diff(indptr) == 0):  # a vertex with out-degree 0
        return False
    if np.any(np.bincount(indices, minlength=n) == 0):  # in-degree 0
        return False
    return component_count_csr(n, indptr, indices, connection="strong") == 1


def strongly_connected_edges(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Strong connectivity straight from parallel edge arrays (no graph object).

    Groups the edges into CSR form with one stable argsort; used by the
    robustness failure sweep and anywhere else a transient subgraph would
    otherwise require a throwaway ``DiGraph``.
    """
    if n <= 1:
        return True
    src = np.asarray(src)
    dst = np.asarray(dst)
    if src.shape[0] < n:
        COUNTERS.connectivity_probes += 1
        return False
    order = np.argsort(src, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return strongly_connected_csr(n, indptr, dst[order])


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


def symmetric_connected_csr(n: int, indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Is the *mutual* CSR graph ``(indptr, indices)`` connected (undirected)?

    The input must be a symmetric edge set (both directions of every pair
    present — e.g. the CSR of ``cover & cover.T`` or of the edges
    :func:`mutual_mask` keeps); connectivity is then undirected-component
    connectivity, answered by the same ``csgraph`` call as the strong
    kernel with ``connection="weak"``.
    """
    COUNTERS.connectivity_probes += 1
    if n <= 1:
        return True
    if indices.shape[0] < 2 * (n - 1):  # undirected connectivity needs n-1 pairs
        return False
    if np.any(np.diff(indptr) == 0):  # an isolated vertex (mutual set)
        return False
    return component_count_csr(n, indptr, indices, connection="weak") == 1


def union_connected(
    counts: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    connection: str,
) -> np.ndarray:
    """Per-block connectivity of a block-diagonal union graph, one launch.

    Block ``i`` owns the union vertices ``base[i]:base[i + 1]`` (``base``
    the running sum of ``counts``); the CSR ``(indptr, indices)`` over all
    union vertices has no edge between blocks.  One
    ``connected_components(connection=...)`` call labels every vertex, and
    block ``i`` is connected iff its labels are constant: with no
    cross-block edges that is exactly its own answer.  ``"strong"`` asks
    strong connectivity, ``"weak"`` undirected connectivity of a mutual
    edge set (symmetric mode).  Blocks with at most one vertex are
    trivially connected.
    """
    counts = np.asarray(counts, dtype=np.int64)
    m = int(counts.shape[0])
    out = counts <= 1
    if m == 0:
        return out
    base = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
    COUNTERS.connectivity_probes += m
    COUNTERS.scipy_scc_calls += 1
    total = int(base[-1])
    if total == 0:
        return out
    _, labels = connected_components(
        _graph(total, indptr, indices), directed=True, connection=connection,
        return_labels=True,
    )
    nonempty = counts > 0
    starts = base[:-1][nonempty]
    lo = np.minimum.reduceat(labels, starts)
    hi = np.maximum.reduceat(labels, starts)
    out[nonempty] |= lo == hi
    return out


def component_count_csr(
    n: int, indptr: np.ndarray, indices: np.ndarray, *, connection: str = "strong"
) -> int:
    """Component count on one CSR scaffold.

    ``connection="strong"`` counts SCCs; ``connection="weak"`` counts
    undirected components (the symmetric-mode objective) — same matrix
    build, same ``csgraph`` call, one flag apart.
    """
    if n == 0:
        return 0
    COUNTERS.scipy_scc_calls += 1
    return int(
        connected_components(
            _graph(n, indptr, indices), directed=True, connection=connection,
            return_labels=False,
        )
    )


def _graph(n: int, indptr: np.ndarray, indices: np.ndarray) -> csr_matrix:
    """The ``n``-vertex CSR graph handed to ``connected_components``.

    Its weights are float64, the dtype ``csgraph`` converts every input
    to: any other dtype goes through scipy's duplicate-summing conversion,
    which first sorts every row's indices — a copy and a sort per probe
    that connectivity does not need.
    """
    return csr_matrix((np.ones(indices.shape[0]), indices, indptr), shape=(n, n))
