"""Pinned outputs and loop oracles for the array-native constructions.

Two guards keep every converted construction bit for bit what the
per-vertex loops produced:

* ``fixtures/construction_digests.json`` pins a SHA-256 prefix of each
  algorithm's ``flattened()`` columns, intended edges and stats (or the
  error it raises) over uniform, clustered, regular-star, collinear and
  tiny point sets.  Rewrite it only for a deliberate change:
  ``PYTHONPATH=src python -c "from tests.test_construction_oracles import
  write_construction_fixture; write_construction_fixture()"``.
* :mod:`tests.construction_reference` keeps the replaced loops verbatim;
  the oracle tests below run both on random instances and compare
  everything a ledger or a kernel could see.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.kone import orient_k1_pairs, orient_k1_tour
from repro.core.ktwo_zero import orient_k2_zero_spread
from repro.core.star_tree import orient_star_chain_tree
from repro.core.symmetric import orient_bounded_angle_mst
from repro.core.theorem2 import orient_theorem2
from repro.core.theorem3 import orient_theorem3
from repro.core.bounds import THM5_RANGE, THM6_RANGE
from repro.experiments.workloads import (
    make_workload,
    perturbed_star,
    regular_polygon_star,
)
from repro.geometry.points import PointSet
from repro.io import _jsonable
from repro.spanning.bounded_angle import tree_spread_requirements
from repro.spanning.emst import SpanningTree, euclidean_mst
from tests import construction_reference as ref

CONSTRUCTION_FIXTURE = Path(__file__).parent / "fixtures" / "construction_digests.json"

TWO_PI = 2.0 * np.pi


def _rotated_star(d: int, offset: float) -> np.ndarray:
    """Regular ``d``-gon star turned so some directions have negative ``arctan2``."""
    ang = np.linspace(0.0, TWO_PI, d, endpoint=False) + offset
    return np.vstack([[0.0, 0.0], np.stack([np.cos(ang), np.sin(ang)], axis=1)])


#: Point sets of the pinned digests, by label.
PINNED_POINTS = {
    "uniform-64": lambda: make_workload("uniform", 64, 1),
    "uniform-512": lambda: make_workload("uniform", 512, 2),
    "clustered-64": lambda: make_workload("clustered", 64, 3),
    "clustered-512": lambda: make_workload("clustered", 512, 4),
    "star-3": lambda: regular_polygon_star(3),
    "star-4": lambda: regular_polygon_star(4),
    "star-5": lambda: regular_polygon_star(5),
    "star-6": lambda: regular_polygon_star(6),
    "star-5-turned": lambda: _rotated_star(5, -0.3),
    "collinear-11": lambda: np.stack([np.arange(11.0), 0.5 * np.arange(11.0)], axis=1),
    "tiny-1": lambda: np.array([[0.5, 0.5]]),
    "tiny-2": lambda: np.array([[0.0, 0.0], [1.0, 2.0]]),
    "tiny-3": lambda: np.array([[0.0, 0.0], [1.0, 0.0], [0.3, -0.8]]),
}


def _algorithms(module) -> dict:
    """Each converted construction, by label, as ``f(points, tree)``."""
    out = {
        "k1-pairs@pi": lambda ps, t: module.orient_k1_pairs(ps, np.pi, tree=t),
        "k1-pairs@4.5": lambda ps, t: module.orient_k1_pairs(ps, 4.5, tree=t),
        "k1-tour": lambda ps, t: module.orient_k1_tour(ps, tree=t),
        "k2-zero-spread": lambda ps, t: module.orient_k2_zero_spread(ps, tree=t),
        "theorem5": lambda ps, t: module.orient_star_chain_tree(
            ps, 3, THM5_RANGE, "theorem5", tree=t),
        "theorem6": lambda ps, t: module.orient_star_chain_tree(
            ps, 4, THM6_RANGE, "theorem6", tree=t),
        # Outside Table 1: one chain per vertex, and four chains under range
        # lmax, whose bound check fails on a regular pentagon.
        "star-chain@k2,r2": lambda ps, t: module.orient_star_chain_tree(
            ps, 2, 2.0, "star-chain", tree=t),
        "star-chain@k5,r1": lambda ps, t: module.orient_star_chain_tree(
            ps, 5, 1.0, "star-chain", tree=t),
    }
    for k in (1, 2, 5):
        out[f"theorem2@k{k}"] = lambda ps, t, k=k: module.orient_theorem2(ps, k, tree=t)
    for k in (1, 2, 3, 5):
        for tag, phi in (("0", 0.0), ("2pi", TWO_PI)):
            out[f"bounded-angle-mst@k{k},phi{tag}"] = (
                lambda ps, t, k=k, phi=phi: module.orient_bounded_angle_mst(
                    ps, k, phi, tree=t)
            )
    # Theorem 3: part 1, part 2 at both ends of its range and inside it,
    # and part 2 forced at phi = pi (the ablation's setting).
    for part, tag, phi in (
        (1, "pi", np.pi), (2, "2pi/3", 2 * np.pi / 3), (2, "0.8pi", 0.8 * np.pi),
        (2, "pi", np.pi),
    ):
        out[f"theorem3.part{part}@{tag}"] = (
            lambda ps, t, phi=phi, part=part: module.orient_theorem3(
                ps, phi, tree=t, part=part)
        )
    return out


class _Library:
    """The library's constructions under the names the reference uses."""

    orient_k1_pairs = staticmethod(orient_k1_pairs)
    orient_k1_tour = staticmethod(orient_k1_tour)
    orient_k2_zero_spread = staticmethod(orient_k2_zero_spread)
    orient_star_chain_tree = staticmethod(orient_star_chain_tree)
    orient_theorem2 = staticmethod(orient_theorem2)
    orient_bounded_angle_mst = staticmethod(orient_bounded_angle_mst)
    orient_theorem3 = staticmethod(orient_theorem3)


LIBRARY = _algorithms(_Library)
REFERENCE = _algorithms(ref)


def _outcome(fn, ps, tree):
    try:
        return fn(ps, tree)
    except Exception as exc:  # the error is part of the output
        return exc


def construction_digest(outcome) -> str:
    """SHA-256 prefix over the columns, intended edges, stats and scalars
    of a result, or over the type and message of the error it raised."""
    h = hashlib.sha256()
    if isinstance(outcome, Exception):
        h.update(f"{type(outcome).__name__}: {outcome}".encode("utf8"))
        return h.hexdigest()[:16]
    for arr in (*outcome.assignment.flattened(), outcome.intended_edges):
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype.str}{a.shape}".encode("utf8"))
        h.update(a.tobytes())
    scalars = [outcome.algorithm, int(outcome.k), float(outcome.phi).hex(),
               float(outcome.range_bound).hex(), float(outcome.lmax).hex()]
    h.update(json.dumps(scalars).encode("utf8"))
    h.update(json.dumps(_jsonable(outcome.stats)).encode("utf8"))
    return h.hexdigest()[:16]


def pinned_constructions() -> list[dict]:
    """One row per point set and algorithm.  Theorem 3's rows come after
    all the others, in the order they were pinned."""
    theorem3 = [algo for algo in LIBRARY if algo.startswith("theorem3")]
    groups = ([algo for algo in LIBRARY if algo not in theorem3], theorem3)
    inputs = {}
    for label, make in PINNED_POINTS.items():
        ps = PointSet(make())
        inputs[label] = (ps, euclidean_mst(ps))
    rows = []
    for group in groups:
        for label, (ps, tree) in inputs.items():
            for algo in group:
                out = _outcome(LIBRARY[algo], ps, tree)
                rows.append({
                    "points": label,
                    "algorithm": algo,
                    "antennae": None if isinstance(out, Exception)
                    else int(out.assignment.total_antennae()),
                    "digest": construction_digest(out),
                })
    return rows


def write_construction_fixture() -> None:
    """Rewrite the pinned fixture; run only for a deliberate change to a
    construction's output (see the module docstring)."""
    CONSTRUCTION_FIXTURE.write_text(
        json.dumps(pinned_constructions(), indent=1) + "\n"
    )


class TestPinnedConstructions:
    def test_constructions_match_fixture(self):
        """Every converted construction's output is pinned; a change to any
        column, edge or stat must update the fixture on purpose."""
        assert pinned_constructions() == json.loads(CONSTRUCTION_FIXTURE.read_text())


# -- oracles ---------------------------------------------------------------------


def assert_same_outcome(new, old) -> None:
    """Bit-identical columns, edges, scalars, stats — or the same error."""
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old), (new, old)
        return
    assert not isinstance(new, Exception), new
    for a, b in zip(new.assignment.flattened(), old.assignment.flattened()):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(new.intended_edges, old.intended_edges)
    assert new.intended_edges.dtype == old.intended_edges.dtype
    assert (new.algorithm, new.k) == (old.algorithm, old.k)
    for field in ("phi", "range_bound", "lmax"):
        assert float(getattr(new, field)).hex() == float(getattr(old, field)).hex()
    assert json.dumps(_jsonable(new.stats)) == json.dumps(_jsonable(old.stats))
    assert new.assignment.spread_sums().tobytes() == old.assignment.spread_sums().tobytes()
    assert np.array_equal(new.assignment.counts(), old.assignment.counts())


def _random_points(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    kind = seed % 4
    n = int(rng.integers(1, 90))
    if kind == 0:
        return make_workload("uniform", n, seed)
    if kind == 1:
        return make_workload("clustered", max(n, 8), seed)
    if kind == 2:
        # Integer lattice points: exact distance and angle ties everywhere.
        pts = np.unique(rng.integers(0, 7, size=(n, 2)).astype(float), axis=0)
        return pts
    # A few regular stars glued at random offsets.
    parts = [
        regular_polygon_star(int(rng.integers(1, 7))) + rng.integers(-20, 20, size=2) * 3.0
        for _ in range(int(rng.integers(1, 5)))
    ]
    return np.unique(np.vstack(parts), axis=0)


ORACLE_SEEDS = range(24)


@pytest.mark.parametrize("algo", sorted(LIBRARY))
def test_library_matches_loop_oracle(algo):
    for seed in ORACLE_SEEDS:
        if algo == "k1-tour" and seed % 4 == 1:
            continue  # clustered tours are pinned above; keep this test quick
        ps = PointSet(_random_points(seed))
        tree = euclidean_mst(ps)
        assert_same_outcome(
            _outcome(LIBRARY[algo], ps, tree), _outcome(REFERENCE[algo], ps, tree)
        )


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_tree_spread_requirements_match_loop_oracle(k):
    for seed in ORACLE_SEEDS:
        ps = PointSet(_random_points(seed))
        tree = euclidean_mst(ps)
        new = tree_spread_requirements(ps, tree, k)
        old = ref.tree_spread_requirements(ps, tree, k)
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
        # Raw coordinates work as well as a PointSet.
        assert tree_spread_requirements(ps.coords, tree, k).tobytes() == old.tobytes()


def test_adjacency_matches_loop_oracle():
    for seed in ORACLE_SEEDS:
        tree = euclidean_mst(PointSet(_random_points(seed)))
        assert tree.adjacency() == ref.adjacency(tree)


def test_pair_lemma_error_matches_loop_oracle():
    """The vectorised pair-lemma test raises at the same arc, with the same
    message, as the per-arc loop (unreachable on a real matching, so the
    sectors here are aimed away on purpose)."""
    from repro.antenna.model import AntennaAssignment
    from repro.core.kone import _covering_endpoint
    from repro.geometry.sectors import Sector

    ps = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    start = [np.pi, np.pi, 0.5, 0.0]
    new = AntennaAssignment.from_columns(4, np.arange(4), start, 0.5, 10.0)
    old = ref.AntennaAssignment(4, [[Sector(a, 0.5, 10.0)] for a in start])
    partner = {0: 1, 1: 0}
    mate = np.array([1, 0, -1, -1])
    src, dst = np.array([2, 0, 3]), np.array([3, 2, 0])
    with pytest.raises(Exception) as got:
        _covering_endpoint(ps.coords, new, mate, src, dst)
    with pytest.raises(Exception) as want:
        for s, d in zip(src.tolist(), dst.tolist()):
            ref._covering_endpoint(ps, old, partner, s, d)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value) == (
        "pair lemma violated: neither 0 nor its partner covers 2"
    )
    assert _covering_endpoint(ps.coords, new, mate, src[:1], dst[:1]).tolist() == [2]


# -- Theorem 3 on whole trees ----------------------------------------------------

THEOREM3_PHIS = (2 * np.pi / 3, 0.7 * np.pi, 0.8 * np.pi, 0.9 * np.pi, np.pi)

_PHI2 = 2 * np.pi / 3 + 0.02

#: The recipes of ``tests/test_theorem3_handler_branches.py``, each of which
#: fires its label with one handler call on a hub ``u``: the children's ccw
#: offsets from the ray ``u -> p``, the direction of u's parent, and phi.
HANDLER_BRANCH_RECIPES = {
    "deg4.p1.forward": ((0.8, 2.0, 3.5), 0.0, np.pi),
    "deg4.p1.backward": ((2.5, 4.2, 5.5), 0.0, np.pi),
    "deg4.p2.a": ((0.5, 2.5, 5.5), 0.0, 0.95 * np.pi),
    "deg4.p2.b": ((1.2, 2.2, 3.9), 0.0, 0.95 * np.pi),
    "deg4.p2.c": ((1.3, 2.9, 4.7), 0.0, _PHI2),
    "deg5.p1.inner": ((0.9, 2.0, 3.1, 5.3), 4.0, np.pi),
    "deg5.p1.inner.mirror": ((0.8, 2.2, 4.0, 5.0), 1.5, np.pi),
    "deg5.p2.first.wide": ((0.4, 1.2, 3.0, 4.6), 3.5, 0.95 * np.pi),
    "deg5.p2.first.wide.mirror": ((0.4, 1.5, 4.0, 5.0), 0.9, 0.95 * np.pi),
    "deg5.p2.first.delegate": ((0.5, 2.0, 3.2, 4.8), 3.9, _PHI2),
    "deg5.p2.first.delegate.mirror": ((0.5, 2.1, 3.6, 5.1), 1.3, _PHI2),
    "deg5.p2.second.c3p": ((1.6, 2.6, 4.3, 5.5), 6.2, _PHI2),
    "deg5.p2.second.pc2": ((1.2, 2.0, 3.6, 5.2), 0.05, _PHI2),
    "deg5.p2.second.e": ((1.4, 2.5, 3.6, 5.08), 6.2, _PHI2),
    "deg5.p2.second.f": ((1.5, 2.6, 3.5, 5.48), 6.2, _PHI2),
    "deg5.p2.second.f.mirror": ((0.8, 2.3, 3.2, 4.78), 6.2, _PHI2),
    "deg5.p2.second.g": ((1.3, 2.2, 3.4, 5.38), 6.2, _PHI2),
    "deg5.p2.second.g.mirror": ((0.9, 2.3, 3.5, 4.98), 6.2, _PHI2),
}

#: The handler-branch tests accept any big-gap label; trees must fire all three.
BIGGAP_LABELS = {"deg5.biggap.i0", "deg5.biggap.i1", "deg5.biggap.i2"}


def _unit(angle: float) -> np.ndarray:
    return np.array([np.cos(angle), np.sin(angle)])


def recipe_tree(child_pos, parent_pos, sibling_r: float = 0.9):
    """A whole tree in which hub ``u`` meets a handler-branch recipe.

    ``u`` sits at the origin with unit children at ``child_pos``.  When its
    parent's direction lies in the gap that holds the ray ``u -> p`` (angle
    0), the parent itself can be ``p``: the root leaf, at ``(1, 0)``.
    Otherwise (the deg-5 "first case") ``p`` must be a sibling that ``u``
    was delegated: the parent ``w`` sits at unit distance in direction
    ``parent_pos`` and ``p`` at ``(sibling_r, 0)``, the handler-branch
    geometry.  ``w`` has degree 5 below the root leaf, and its other two
    children leave the ``u``–``p`` gap the smallest of its inner gaps, so
    its big-gap case makes ``u`` cover ``p``.  The root is vertex 0.
    Returns ``(points, tree)``.
    """
    m = len(child_pos)
    kids = [_unit(a) for a in child_pos]
    if parent_pos >= child_pos[-1] or parent_pos <= child_pos[0]:
        ps = PointSet(np.asarray([_unit(0.0), np.zeros(2), *kids]))
        return ps, SpanningTree(ps, np.asarray([[0, 1]] + [[1, 2 + i] for i in range(m)]))
    w = _unit(parent_pos)
    p = np.array([sibling_r, 0.0])
    to_u, to_p = np.arctan2(-w[1], -w[0]), np.arctan2(p[1] - w[1], p[0] - w[0])
    gap = (to_u - to_p) % TWO_PI
    side = 1.0 if gap < np.pi else -1.0  # +1: p then u counterclockwise
    gap = gap if side > 0 else TWO_PI - gap
    rest = (TWO_PI - 2.0 - gap) / 2.0  # the two other inner gaps of w
    # Turning away from p: the root, w's outer child, then its middle child.
    root, outer, middle = (to_u + side * a for a in (1.0, 2.0, 2.0 + rest))
    ps = PointSet(np.asarray(
        [w + _unit(root), w, np.zeros(2), *kids, p, w + _unit(outer), w + _unit(middle)]
    ))
    edges = [[0, 1], [1, 2]] + [[2, 3 + i] for i in range(m)]
    edges += [[1, 3 + m], [1, 4 + m], [1, 5 + m]]
    return ps, SpanningTree(ps, np.asarray(edges))


def _theorem3_instances():
    """``(label, points, tree, root)`` with hubs of degree 4 and 5 everywhere."""
    for d in (4, 5):
        for leg in (2, 3):
            for seed in range(12):
                ps = PointSet(perturbed_star(d, leg=leg, seed=seed))
                yield f"perturbed_star({d}, leg={leg}, seed={seed})", ps, euclidean_mst(ps), None
    for seed in range(12):
        rng = np.random.default_rng(seed)
        # Regular stars glued at small offsets (exact angle ties), and
        # integer lattices (exact distance and angle ties).
        parts = [
            regular_polygon_star(int(rng.integers(3, 6))) + rng.integers(-3, 3, size=2) * 2.5
            for _ in range(int(rng.integers(2, 5)))
        ]
        ps = PointSet(np.unique(np.vstack(parts), axis=0))
        yield f"glued stars {seed}", ps, euclidean_mst(ps), None
        lattice = rng.integers(0, 5, size=(int(rng.integers(10, 30)), 2)).astype(float)
        ps = PointSet(np.unique(lattice, axis=0))
        yield f"lattice {seed}", ps, euclidean_mst(ps), None
    for label, (child_pos, parent_pos, _) in HANDLER_BRANCH_RECIPES.items():
        yield f"recipe {label}", *recipe_tree(child_pos, parent_pos), 0


def test_theorem3_whole_trees_match_loop_oracle():
    """The whole construction, on trees full of degree-4 and -5 vertices,
    is the loop's bit for bit, and between them these trees fire every
    label that the handler-branch tests fire one handler call at a time."""
    settings = [(phi, "auto") for phi in THEOREM3_PHIS] + [(np.pi, 2)]
    reached: set[str] = set()

    def compare(ps, tree, root, phi, part):
        new, old = (
            _outcome(lambda ps, t: m.orient_theorem3(ps, phi, tree=t, root=root, part=part),
                     ps, tree)
            for m in (_Library, ref)
        )
        assert_same_outcome(new, old)
        if not isinstance(new, Exception):
            reached.update(new.stats["cases"])
        return new

    for _, ps, tree, root in _theorem3_instances():
        for phi, part in settings:
            compare(ps, tree, root, phi, part)
    for label, (child_pos, parent_pos, phi) in HANDLER_BRANCH_RECIPES.items():
        new = compare(*recipe_tree(child_pos, parent_pos), 0, phi, "auto")
        assert label in new.stats["cases"], (label, new.stats["cases"])
    wanted = set(HANDLER_BRANCH_RECIPES) | BIGGAP_LABELS
    assert wanted <= reached, wanted - reached


def _random_tree(seed: int) -> tuple[PointSet, SpanningTree]:
    """Random points joined by a random tree of max degree 5 (not the MST,
    so the proof's angle and distance promises fail here and there).  Odd
    seeds take integer lattice points, where a vertex can see two children
    in exactly the same direction."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    if seed % 2:
        ps = PointSet(np.unique(rng.integers(0, 6, size=(n, 2)).astype(float), axis=0))
        n = len(ps)
    else:
        ps = PointSet(rng.uniform(0.0, 10.0, size=(n, 2)))
    degree = np.zeros(n, dtype=np.int64)
    edges = []
    for v in range(1, n):
        u = int(rng.choice(np.flatnonzero(degree[:v] < 5)))
        edges.append([u, v])
        degree[[u, v]] += 1
    return ps, SpanningTree(ps, np.asarray(edges).reshape(-1, 2))


@pytest.mark.parametrize("part", [1, 2])
def test_theorem3_engine_errors_match_loop_oracle(part):
    """On arbitrary trees and budgets the engine raises the loop's error,
    from the vertex the loop reaches first, or builds the loop's output."""
    from repro.core.theorem3 import Theorem3Engine
    from repro.spanning.rooted import RootedTree

    raised = 0
    for seed in range(60):
        ps, tree = _random_tree(seed)
        rooted = RootedTree.rooted_at_leaf(tree)
        for budget, scale in ((1.2, 1.3), (1.8, 1.3), (2.4, 0.8), (np.pi, 1.3)):
            outcomes = []
            for engine_cls in (Theorem3Engine, ref.Theorem3Engine):
                engine = engine_cls(rooted, budget, part, scale * tree.lmax)
                try:
                    engine.run(root_cover=ps[rooted.root] + 0.5)
                except Exception as exc:
                    outcomes.append(exc)
                else:
                    outcomes.append(engine)
            new, old = outcomes
            if isinstance(old, Exception):
                raised += 1
                assert type(new) is type(old) and str(new) == str(old), (new, old)
                continue
            assert not isinstance(new, Exception), new
            for a, b in zip(new.assignment.flattened(), old.assignment.flattened()):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert np.array_equal(np.asarray(new.intended), np.asarray(old.intended))
            assert json.dumps(new.stats) == json.dumps(old.stats)
    assert raised > 0
