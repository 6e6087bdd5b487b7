"""Strong connectivity and directed vertex connectivity.

``is_strongly_connected`` is the workhorse validator; it hands the graph's
CSR arrays to the kernel layer, where
``scipy.sparse.csgraph.connected_components(connection="strong")`` answers
in C (see :mod:`repro.kernels.connectivity`).  ``directed_vertex_connectivity``
implements Even's algorithm via vertex splitting + Dinic max-flow, and backs
the paper's §5 open question about strong *c*-connectivity
(:func:`is_strongly_c_connected`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.digraph import DiGraph
from repro.graph.maxflow import Dinic
from repro.graph.scc import strongly_connected_components
from repro.kernels.connectivity import strongly_connected_csr

__all__ = [
    "is_strongly_connected",
    "strong_connectivity_certificate",
    "directed_vertex_connectivity",
    "is_strongly_c_connected",
]


def is_strongly_connected(g: DiGraph) -> bool:
    """True iff every vertex reaches every other vertex.

    Delegates to the CSR kernel (scipy ``csgraph`` fast path with
    degree-based quick rejects) — one connectivity probe on the
    instrumentation counters, zero graph copies.
    """
    return strongly_connected_csr(g.n, *g.csr())


@dataclass
class ConnectivityCertificate:
    """Explains why a graph is or is not strongly connected."""

    strongly_connected: bool
    n_components: int
    component_of: np.ndarray
    unreachable_from_0: list[int]
    not_reaching_0: list[int]

    def __bool__(self) -> bool:
        return self.strongly_connected


def strong_connectivity_certificate(g: DiGraph) -> ConnectivityCertificate:
    """Full diagnosis: SCC count plus which vertices break connectivity."""
    comp = strongly_connected_components(g)
    ncomp = int(comp.max()) + 1 if g.n else 0
    fwd = g.reachable_from(0) if g.n else np.zeros(0, dtype=bool)
    bwd = g.reversed().reachable_from(0) if g.n else np.zeros(0, dtype=bool)
    return ConnectivityCertificate(
        strongly_connected=(ncomp <= 1),
        n_components=ncomp,
        component_of=comp,
        unreachable_from_0=[int(i) for i in np.flatnonzero(~fwd)],
        not_reaching_0=[int(i) for i in np.flatnonzero(~bwd)],
    )


def _split_vertex_flow(g: DiGraph, s: int, t: int, limit: int) -> int:
    """Max number of internally vertex-disjoint s→t paths (Even's reduction).

    Vertex ``v`` becomes ``v_in = 2v`` and ``v_out = 2v + 1`` joined by a
    unit-capacity edge (infinite for s and t); each graph edge ``(u, v)``
    becomes ``u_out → v_in`` with large capacity.
    """
    big = g.n + 1
    dinic = Dinic(2 * g.n)
    for v in range(g.n):
        dinic.add_edge(2 * v, 2 * v + 1, big if v in (s, t) else 1)
    for u, v in g.edges():
        dinic.add_edge(2 * int(u) + 1, 2 * int(v), big)
    return dinic.max_flow(2 * s + 1, 2 * t, limit=limit)


def _vertex_connectivity_impl(g: DiGraph) -> int:
    n = g.n
    kappa = n - 1
    # Pass 1: vertex 0 versus everyone, both directions.
    for t in range(1, n):
        if not g.has_edge(0, t):
            kappa = min(kappa, _split_vertex_flow(g, 0, t, kappa + 1))
        if not g.has_edge(t, 0):
            kappa = min(kappa, _split_vertex_flow(g, t, 0, kappa + 1))
        if kappa == 0:
            return 0
    # Pass 2: pairs among the first kappa+1 vertices (0's "neighbourhood"
    # sweep in Even's algorithm).  kappa is small for our networks, so this
    # stays cheap.
    front = list(range(min(kappa + 1, n)))
    for s, t in combinations(front, 2):
        if s == 0 or t == 0:
            continue
        if not g.has_edge(s, t):
            kappa = min(kappa, _split_vertex_flow(g, s, t, kappa + 1))
        if not g.has_edge(t, s):
            kappa = min(kappa, _split_vertex_flow(g, t, s, kappa + 1))
        if kappa == 0:
            return 0
    return kappa


def directed_vertex_connectivity(g: DiGraph) -> int:
    """Minimum vertices whose deletion breaks strong connectivity.

    Returns 0 for graphs that are not strongly connected to begin with and
    ``n - 1`` for complete digraphs.
    """
    n = g.n
    if n <= 1:
        return 0
    if not is_strongly_connected(g):
        return 0
    return _vertex_connectivity_impl(g)


def is_strongly_c_connected(g: DiGraph, c: int, *, exhaustive_limit: int = 2000) -> bool:
    """Is ``g`` strongly connected after deleting ANY ``c - 1`` vertices?

    The paper's §5 open problem asks for orientations guaranteeing this.
    For ``c == 1`` this is plain strong connectivity.  For small instances
    (``n choose c-1`` ≤ ``exhaustive_limit``) we check every deletion set
    exhaustively (useful as a test oracle); otherwise we use the flow-based
    vertex connectivity.
    """
    if c < 1:
        raise InvalidParameterError(f"c must be >= 1, got {c}")
    if c == 1:
        return is_strongly_connected(g)
    n = g.n
    if n <= c:
        # Deleting c-1 vertices can leave <= 1 vertex: trivially connected,
        # but the usual convention requires n >= c + 1 to be meaningful.
        return is_strongly_connected(g)
    from math import comb

    if comb(n, c - 1) <= exhaustive_limit:
        for dele in combinations(range(n), c - 1):
            keep = np.ones(n, dtype=bool)
            keep[list(dele)] = False
            remap = -np.ones(n, dtype=np.int64)
            remap[keep] = np.arange(int(keep.sum()))
            e = g.edges()
            mask = keep[e[:, 0]] & keep[e[:, 1]]
            sub = DiGraph(int(keep.sum()), np.stack(
                [remap[e[mask, 0]], remap[e[mask, 1]]], axis=1
            ) if mask.any() else np.empty((0, 2), dtype=np.int64))
            if not is_strongly_connected(sub):
                return False
        return True
    return directed_vertex_connectivity(g) >= c
