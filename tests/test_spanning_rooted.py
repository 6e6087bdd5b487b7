"""Unit tests for repro.spanning.rooted."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.geometry.points import PointSet
from repro.spanning.emst import SpanningTree
from repro.spanning.rooted import RootedTree


def path_tree(n: int = 5) -> SpanningTree:
    ps = PointSet([[float(i), 0.0] for i in range(n)])
    return SpanningTree(ps, np.array([[i, i + 1] for i in range(n - 1)]))


class TestRootedStructure:
    def test_parents_and_children(self):
        rt = RootedTree(path_tree(), 0)
        assert rt.parent[0] == -1
        assert rt.parent[3] == 2
        assert rt.children[0] == [1]
        assert rt.children[4] == []

    def test_child_blocks_flatten_children_in_preorder(self, tree50):
        rt = RootedTree(tree50, 7)
        blocks = rt.child_blocks()
        assert blocks.kids.tolist() == rt.bfs_order[1:].tolist()
        owners = blocks.owner.tolist()
        assert owners == [int(v) for v in rt.bfs_order if rt.children[v]]
        for b, u in enumerate(owners):
            lo, size = blocks.first[b], blocks.size[b]
            assert blocks.kids[lo : lo + size].tolist() == rt.children[u]
            assert blocks.block[lo : lo + size].tolist() == [b] * size
            assert blocks.local[lo : lo + size].tolist() == list(range(size))

    def test_bad_root_raises(self):
        with pytest.raises(InvalidParameterError):
            RootedTree(path_tree(), 99)

    def test_mst_degree(self):
        rt = RootedTree(path_tree(), 0)
        assert rt.mst_degree(0) == 1
        assert rt.mst_degree(2) == 2
        assert rt.mst_degree(4) == 1

    def test_depth(self):
        rt = RootedTree(path_tree(), 0)
        assert rt.depth(0) == 0
        assert rt.depth(4) == 4

    def test_is_leaf_rooted_sense(self):
        rt = RootedTree(path_tree(), 2)
        assert rt.is_leaf(0)
        assert rt.is_leaf(4)
        assert not rt.is_leaf(2)

    def test_neighbors(self):
        rt = RootedTree(path_tree(), 0)
        assert set(rt.neighbors(2)) == {1, 3}
        assert rt.neighbors(0) == [1]


class TestTraversals:
    def test_preorder_parent_first(self, tree50):
        rt = RootedTree.rooted_at_leaf(tree50)
        seen = set()
        for v in rt.preorder():
            p = rt.parent[v]
            assert p == -1 or p in seen
            seen.add(int(v))
        assert len(seen) == tree50.n

    def test_postorder_children_first(self, tree50):
        rt = RootedTree.rooted_at_leaf(tree50)
        seen = set()
        for v in rt.postorder():
            for c in rt.children[int(v)]:
                assert c in seen
            seen.add(int(v))

    def test_subtree_vertices(self):
        rt = RootedTree(path_tree(), 0)
        assert sorted(rt.subtree_vertices(2)) == [2, 3, 4]
        assert sorted(rt.subtree_vertices(0)) == [0, 1, 2, 3, 4]

    def test_deep_path_no_recursion_error(self):
        n = 5000
        tree = path_tree(n)
        rt = RootedTree(tree, 0)
        assert len(list(rt.preorder())) == n
        assert len(rt.subtree_vertices(0)) == n


class TestCcwChildren:
    def test_order_starts_at_reference_ray(self):
        # Hub at origin, children at E, N, W; reference pointing south.
        ps = PointSet([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -2]])
        tree = SpanningTree(ps, np.array([[0, 1], [0, 2], [0, 3], [0, 4]]))
        rt = RootedTree(tree, 4)  # root south; hub 0 has children 1, 2, 3
        order = rt.children_ccw_from(0, ps[4])
        # ccw from the south ray: east (1) first, then north (2), then west (3)
        assert order == [1, 2, 3]

    def test_reference_at_vertex_raises(self):
        ps = PointSet([[0, 0], [1, 0], [0, 1]])
        tree = SpanningTree(ps, np.array([[0, 1], [0, 2]]))
        rt = RootedTree(tree, 1)
        with pytest.raises(InvalidParameterError):
            rt.children_ccw_from(0, ps[0])

    def test_edge_length(self):
        rt = RootedTree(path_tree(), 0)
        assert rt.edge_length(1) == pytest.approx(1.0)
        with pytest.raises(InvalidParameterError):
            rt.edge_length(0)


class TestRootedAtLeaf:
    def test_default_smallest_leaf(self, tree50):
        rt = RootedTree.rooted_at_leaf(tree50)
        assert rt.tree.degrees()[rt.root] == 1

    def test_prefer_specific_leaf(self, tree50):
        leaves = tree50.leaves()
        rt = RootedTree.rooted_at_leaf(tree50, prefer=int(leaves[-1]))
        assert rt.root == int(leaves[-1])

    def test_prefer_internal_raises(self, tree50):
        internal = int(np.flatnonzero(tree50.degrees() > 1)[0])
        with pytest.raises(InvalidParameterError):
            RootedTree.rooted_at_leaf(tree50, prefer=internal)
