"""A small, fast directed graph over integer vertices.

Stored in CSR form (offsets + targets) built once from an edge list — all
algorithms in :mod:`repro.graph` are read-only passes, so immutability keeps
things simple and cache-friendly (per the HPC guide's preference for flat
arrays over pointer-chasing).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.kernels.instrument import COUNTERS

__all__ = ["DiGraph"]


class DiGraph:
    """Immutable directed graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops and duplicates are allowed
        on input; duplicates are dropped, self-loops are rejected (the
        antenna model never produces them and SCC code need not consider
        them).
    """

    __slots__ = ("n", "_offsets", "_targets", "_edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 0:
            raise InvalidParameterError(f"vertex count must be >= 0, got {n}")
        self.n = int(n)
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidParameterError("edges must be (m, 2) pairs")
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise InvalidParameterError("edge endpoint out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise InvalidParameterError("self-loops are not allowed")
            arr = np.unique(arr, axis=0)
        self._edges = arr
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        sorted_edges = arr[order]
        counts = np.bincount(sorted_edges[:, 0], minlength=n)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._targets = np.ascontiguousarray(sorted_edges[:, 1])
        COUNTERS.graph_builds += 1

    # -- construction helpers --------------------------------------------------
    def reversed(self) -> "DiGraph":
        """The graph with all edges flipped."""
        if self._edges.size == 0:
            return DiGraph(self.n)
        return DiGraph(self.n, self._edges[:, ::-1])

    # -- queries ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of (unique) directed edges."""
        return int(self._targets.shape[0])

    def successors(self, u: int) -> np.ndarray:
        """Out-neighbours of ``u`` (sorted ascending)."""
        return self._targets[self._offsets[u] : self._offsets[u + 1]]

    def out_degree(self, u: int) -> int:
        return int(self._offsets[u + 1] - self._offsets[u])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._offsets)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self._targets, minlength=self.n)

    def edges(self) -> np.ndarray:
        """The ``(m, 2)`` unique edge array (row order unspecified)."""
        return self._edges

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The internal ``(offsets, targets)`` CSR arrays (read-only views).

        This is the handoff point to the array kernels in
        :mod:`repro.kernels.connectivity` — no copy, no conversion.
        """
        return self._offsets, self._targets

    def has_edge(self, u: int, v: int) -> bool:
        succ = self.successors(u)
        i = int(np.searchsorted(succ, v))
        return i < succ.shape[0] and int(succ[i]) == v

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, m={self.m})"

    # -- reachability ------------------------------------------------------------
    def reachable_from(self, source: int) -> np.ndarray:
        """Boolean mask of vertices reachable from ``source`` (inclusive)."""
        seen = np.zeros(self.n, dtype=bool)
        if self.n == 0:
            return seen
        seen[source] = True
        stack = [int(source)]
        offsets, targets = self._offsets, self._targets
        while stack:
            u = stack.pop()
            for v in targets[offsets[u] : offsets[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return seen

    def to_networkx(self):  # pragma: no cover - test/debug convenience
        """Export to a networkx.DiGraph (requires networkx)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(map(tuple, self._edges.tolist()))
        return g
