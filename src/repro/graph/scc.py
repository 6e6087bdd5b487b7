"""Strongly connected components: iterative Tarjan + condensation.

Tarjan is implemented with an explicit stack (no recursion) so million-vertex
path graphs are fine; it is kept (rather than scipy's labeling) because its
component ids are guaranteed to be in reverse topological order, which
``condensation`` and tests rely on.  When only the *number* of components
matters, :func:`scc_count` answers through the CSR kernel without labeling.
``condensation`` returns the component DAG, used by the robustness analysis
to find articulation structure quickly.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.kernels.connectivity import component_count_csr

__all__ = [
    "strongly_connected_components",
    "scc_count",
    "undirected_component_count",
    "condensation",
]


def scc_count(g: DiGraph) -> int:
    """Number of strongly connected components (no per-vertex labels),
    via ``scipy.sparse.csgraph`` on the graph's CSR arrays."""
    return component_count_csr(g.n, *g.csr(), connection="strong")


def undirected_component_count(g: DiGraph) -> int:
    """Number of weakly connected components (edge direction ignored).

    The undirected counterpart of :func:`scc_count`, routed through the
    same CSR scaffold (:func:`~repro.kernels.connectivity.component_count_csr`
    with ``connection="weak"`` — no second graph build).
    """
    return component_count_csr(g.n, *g.csr(), connection="weak")


def strongly_connected_components(g: DiGraph) -> np.ndarray:
    """Component id per vertex, ids in reverse topological order (Tarjan).

    Returns an ``(n,)`` int array ``comp`` with ``comp[u] == comp[v]`` iff
    ``u`` and ``v`` are strongly connected.  Ids are dense starting at 0.
    """
    n = g.n
    comp = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return comp
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    scc_stack: list[int] = []
    next_index = 0
    next_comp = 0

    offsets, targets = g.csr()

    for start in range(n):
        if index[start] != -1:
            continue
        # Each frame: (vertex, next-successor-cursor)
        work: list[list[int]] = [[start, int(offsets[start])]]
        index[start] = low[start] = next_index
        next_index += 1
        scc_stack.append(start)
        on_stack[start] = True
        while work:
            u, cursor = work[-1]
            if cursor < offsets[u + 1]:
                work[-1][1] += 1
                v = int(targets[cursor])
                if index[v] == -1:
                    index[v] = low[v] = next_index
                    next_index += 1
                    scc_stack.append(v)
                    on_stack[v] = True
                    work.append([v, int(offsets[v])])
                elif on_stack[v]:
                    if index[v] < low[u]:
                        low[u] = index[v]
            else:
                work.pop()
                if work:
                    pu = work[-1][0]
                    if low[u] < low[pu]:
                        low[pu] = low[u]
                if low[u] == index[u]:
                    while True:
                        w = scc_stack.pop()
                        on_stack[w] = False
                        comp[w] = next_comp
                        if w == u:
                            break
                    next_comp += 1
    return comp


def condensation(g: DiGraph) -> tuple[DiGraph, np.ndarray]:
    """The DAG of strongly connected components.

    Returns ``(dag, comp)`` where ``comp[u]`` is u's component id and
    ``dag`` has one vertex per component with deduplicated edges.
    """
    comp = strongly_connected_components(g)
    k = int(comp.max()) + 1 if g.n else 0
    e = g.edges()
    if e.size == 0:
        return DiGraph(k), comp
    ce = np.stack([comp[e[:, 0]], comp[e[:, 1]]], axis=1)
    ce = ce[ce[:, 0] != ce[:, 1]]
    return DiGraph(k, ce), comp
