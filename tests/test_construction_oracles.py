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
from repro.core.bounds import THM5_RANGE, THM6_RANGE
from repro.experiments.workloads import make_workload, regular_polygon_star
from repro.geometry.points import PointSet
from repro.io import _jsonable
from repro.spanning.bounded_angle import tree_spread_requirements
from repro.spanning.emst import euclidean_mst
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
    return out


class _Library:
    """The library's constructions under the names the reference uses."""

    orient_k1_pairs = staticmethod(orient_k1_pairs)
    orient_k1_tour = staticmethod(orient_k1_tour)
    orient_k2_zero_spread = staticmethod(orient_k2_zero_spread)
    orient_star_chain_tree = staticmethod(orient_star_chain_tree)
    orient_theorem2 = staticmethod(orient_theorem2)
    orient_bounded_angle_mst = staticmethod(orient_bounded_angle_mst)


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
    rows = []
    for label, make in PINNED_POINTS.items():
        ps = PointSet(make())
        tree = euclidean_mst(ps)
        for algo, fn in LIBRARY.items():
            out = _outcome(fn, ps, tree)
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
