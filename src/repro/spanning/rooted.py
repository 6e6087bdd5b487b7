"""Rooted spanning trees with the paper's §1.2 conventions.

For a tree ``T`` rooted at ``RT`` (a degree-one vertex in Theorem 3):

* ``p(v)`` is the parent of ``v``;
* ``T_v`` is the subtree rooted at ``v``;
* the children of ``v`` are enumerated ``v(1), ..., v(δ(v)-1)`` sorted in
  *counterclockwise* order — in Theorem 3's proof, starting from the ray
  from ``v`` toward the point ``p`` it must cover
  (:meth:`RootedTree.children_ccw_from`).

The class is index-based (vertices are integers into the tree's PointSet) and
all traversals are iterative, so deep path-graphs do not hit the recursion
limit.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.angles import angle_of, ccw_angle
from repro.spanning.emst import SpanningTree

__all__ = ["ChildBlocks", "RootedTree"]


class ChildBlocks(NamedTuple):
    """The children lists of a :class:`RootedTree` as flat arrays.

    ``kids`` lists every non-root vertex with the children of each vertex
    together — one *block*, in ``children[v]`` order — and the blocks in
    the preorder of their parents.  BFS enqueues a vertex's children at
    once, so ``kids`` is simply ``bfs_order[1:]``.
    """

    kids: np.ndarray  # (n - 1,) vertices, block by block
    block: np.ndarray  # (n - 1,) block of each entry of ``kids``
    local: np.ndarray  # (n - 1,) index of each entry within its block
    owner: np.ndarray  # (B,) the vertex whose children form the block
    first: np.ndarray  # (B,) offset of the block in ``kids``
    size: np.ndarray  # (B,) number of children in the block


class RootedTree:
    """A spanning tree plus a root, parent pointers and children lists."""

    def __init__(self, tree: SpanningTree, root: int):
        n = tree.n
        if not 0 <= root < n:
            raise InvalidParameterError(f"root {root} out of range for {n} vertices")
        self.tree = tree
        self.root = int(root)
        adj = tree.adjacency()
        parent = np.full(n, -1, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)  # BFS order from the root
        seen = np.zeros(n, dtype=bool)
        seen[root] = True
        order[0] = root
        head, tail = 0, 1
        while head < tail:
            u = int(order[head])
            head += 1
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    order[tail] = v
                    tail += 1
        if tail != n:
            raise InvalidParameterError("tree is not connected")  # pragma: no cover
        self.parent = parent
        self.bfs_order = order
        children: list[list[int]] = [[] for _ in range(n)]
        for v in order[1:]:
            children[int(parent[v])].append(int(v))
        self.children = children

    def child_blocks(self) -> ChildBlocks:
        """Every vertex's children as one block of a flat array (see :class:`ChildBlocks`)."""
        kids = self.bfs_order[1:]
        par = self.parent[kids]
        new_block = np.ones(kids.size, dtype=bool)
        new_block[1:] = par[1:] != par[:-1]
        first = np.flatnonzero(new_block)
        size = np.diff(np.append(first, kids.size))
        block = np.repeat(np.arange(first.size), size)
        local = np.arange(kids.size) - first[block]
        return ChildBlocks(kids, block, local, par[first], first, size)

    # -- basic structure ---------------------------------------------------------
    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def points(self):
        return self.tree.points

    def is_leaf(self, v: int) -> bool:
        """Leaf in the *rooted* sense: no children (the root may be a leaf of T)."""
        return len(self.children[v]) == 0

    def mst_degree(self, v: int) -> int:
        """Degree δ(v) in the underlying undirected tree."""
        return len(self.children[v]) + (0 if v == self.root else 1)

    def depth(self, v: int) -> int:
        d = 0
        while self.parent[v] >= 0:
            v = int(self.parent[v])
            d += 1
        return d

    # -- traversals ---------------------------------------------------------------
    def preorder(self) -> Iterator[int]:
        """Root-first order; every vertex appears after its parent."""
        return iter(self.bfs_order)  # BFS order satisfies the same contract

    def postorder(self) -> Iterator[int]:
        """Children-before-parent order."""
        return iter(self.bfs_order[::-1])

    def subtree_vertices(self, v: int) -> list[int]:
        """All vertices of the subtree ``T_v`` (including ``v``)."""
        out = [int(v)]
        stack = [int(v)]
        while stack:
            u = stack.pop()
            for c in self.children[u]:
                out.append(c)
                stack.append(c)
        return out

    # -- ccw child ordering (Theorem 3's convention) --------------------------------
    def children_ccw_from(self, v: int, ref_point: np.ndarray) -> list[int]:
        """Children of ``v`` sorted ccw starting at the ray ``v → ref_point``.

        The first element is "the first neighbour of v when rotating the ray
        ~vp" counterclockwise (paper, proof of Theorem 3).  ``ref_point``
        must not coincide with ``v``.
        """
        kids = self.children[v]
        pv = self.points[v]
        ref_vec = np.asarray(ref_point, dtype=float) - pv
        if float(np.hypot(ref_vec[0], ref_vec[1])) <= 0.0:
            raise InvalidParameterError(
                f"reference point coincides with vertex {v}; ccw order undefined"
            )
        if len(kids) <= 1:
            return list(kids)
        ref_ang = float(angle_of(ref_vec))
        kid_arr = np.asarray(kids, dtype=np.int64)
        ang = self.points.angles_from(v, kid_arr)
        rel = np.asarray(ccw_angle(ref_ang, ang), dtype=float)
        order = np.argsort(rel, kind="stable")
        return [int(kid_arr[i]) for i in order]

    def neighbors(self, v: int) -> list[int]:
        """All tree neighbours (children + parent) of ``v``."""
        out = list(self.children[v])
        if v != self.root:
            out.append(int(self.parent[v]))
        return out

    def edge_length(self, child: int) -> float:
        """Length of the tree edge from ``child`` to its parent."""
        p = int(self.parent[child])
        if p < 0:
            raise InvalidParameterError(f"vertex {child} is the root; no parent edge")
        return self.points.distance(child, p)

    @staticmethod
    def rooted_at_leaf(tree: SpanningTree, *, prefer: int | None = None) -> "RootedTree":
        """Root ``tree`` at a degree-one vertex (the paper's ``RT``).

        ``prefer`` selects a specific leaf when given; otherwise the smallest
        leaf index is used for determinism.
        """
        leaves = tree.leaves()
        if prefer is not None:
            if prefer not in set(int(x) for x in leaves) and tree.n > 1:
                raise InvalidParameterError(f"vertex {prefer} is not a leaf")
            return RootedTree(tree, int(prefer))
        return RootedTree(tree, int(leaves.min()))
