"""Pinned outputs and the dense oracle of the ensemble trial measurement.

Two guards keep :func:`~repro.ensemble.trials.measure_trials` bit for bit
what the dense ``n²`` trial path produced:

* ``fixtures/ensemble_trial_digests.json`` pins a SHA-256 prefix of its
  connectivity, critical and realized arrays for strong and symmetric
  cells of every Table-1 regime, under each of the 16 on/off settings of
  rotation, fading, edge failure and node failure, on uniform, clustered,
  collinear, near-duplicate and n <= 3 point sets, read from dense and
  from sparse instance tables.  Rewrite it only for a deliberate change
  to a trial's outcome:
  ``PYTHONPATH=src python -c "from tests.test_ensemble_oracles import
  write_trial_fixture; write_trial_fixture()"``.
* :mod:`tests.ensemble_reference` keeps the replaced dense path verbatim;
  the oracle tests below run both on random instances.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kone import orient_k1_pairs
from repro.core.symmetric import orient_for_mode
from repro.engine.cache import ArtifactCache
from repro.ensemble import Perturbation
from repro.ensemble.trials import draw_trials, measure_trials
from repro.experiments.workloads import make_workload
from repro.geometry.points import PointSet
from repro.geometry.sectors import radius_tolerance
from repro.kernels.geometry import polar_tables
from repro.kernels.instrument import recording
from repro.kernels.sparse import (
    _EDGE_BLOCK_ELEMS,
    default_instance_cutoff,
    dense_candidate_tables,
    sparse_polar_tables,
    trial_coverage,
)
from repro.spanning.emst import euclidean_mst
from repro.utils.rng import indexed_uniforms
from tests.ensemble_reference import measure_trials_reference

TRIAL_FIXTURE = Path(__file__).parent / "fixtures" / "ensemble_trial_digests.json"

PI = math.pi


def _collinear() -> np.ndarray:
    t = np.sort(np.random.default_rng(5).uniform(0.0, 9.0, 10))
    return np.stack([3.0 * t, t - 2.0], axis=1)


def _near_duplicate() -> np.ndarray:
    pts = make_workload("uniform", 10, 6)
    return np.vstack([pts, pts[:4] + 1e-9])


#: Point sets of the pinned digests, by label.
TRIAL_POINTS = {
    "uniform-40": lambda: make_workload("uniform", 40, 21),
    "clustered-56": lambda: make_workload("clustered", 56, 22),
    "collinear-10": _collinear,
    "near-duplicate-14": _near_duplicate,
    "n1": lambda: np.array([[0.5, 0.5]]),
    "n2": lambda: np.array([[0.0, 0.0], [1.0, 0.0]]),
    "n3": lambda: np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]]),
}

#: One strong cell per Table-1 dispatch regime, and symmetric cells on both
#: sides of the bounded-angle feasibility rule.
TRIAL_CELLS = {
    "strong": (
        (1, 0.0), (1, PI), (1, 1.6 * PI), (2, 0.0), (2, 2 * PI / 3), (2, PI),
        (2, 1.2 * PI), (3, 0.0), (3, 0.8 * PI), (4, 0.0), (4, 0.5 * PI),
        (5, 0.0),
    ),
    "symmetric": ((1, PI), (2, 2 * PI), (3, PI), (5, 0.0)),
}

#: The 16 on/off settings of the four perturbations, by label.
PERTURBATIONS = {
    "".join(name if on else "-" for name, on in zip("RFEN", flags)): Perturbation(
        rotate=bool(flags[0]),
        fade_sigma=0.25 if flags[1] else 0.0,
        edge_fail=0.03 if flags[2] else 0.0,
        node_fail=0.05 if flags[3] else 0.0,
    )
    for flags in itertools.product((0, 1), repeat=4)
}

TRIALS = range(8)


def trial_digest(m) -> str:
    """SHA-256 prefix over the connected, critical and realized arrays."""
    h = hashlib.sha256()
    for arr in (m.connected, m.critical, m.realized):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def pinned_trials(tables_of=lambda ps: polar_tables(ps.coords)) -> dict:
    """``{point set|mode|k|phi: {perturbation: digest}}`` over the pinned grid.

    ``tables_of(ps)`` gives the instance tables the trials read; a cell
    whose construction raises records the error instead.
    """
    out = {}
    for label, make in TRIAL_POINTS.items():
        ps = PointSet(make())
        tree = euclidean_mst(ps)
        tables = tables_of(ps)
        for mode, cells in TRIAL_CELLS.items():
            for k, phi in cells:
                key = f"{label}|{mode}|k={k}|phi={phi:.6f}"
                try:
                    result = orient_for_mode(ps, k, phi, mode=mode, tree=tree)
                except Exception as exc:  # pinned as part of the outcome
                    out[key] = f"{type(exc).__name__}: {exc}"
                    continue
                out[key] = {
                    name: trial_digest(measure_trials(
                        ps, tables, result, pert, "pin", 3, TRIALS,
                        want_critical=True, want_realized=True, mode=mode,
                    ))
                    for name, pert in PERTURBATIONS.items()
                }
    return out


def write_trial_fixture() -> None:
    """Rewrite the pinned fixture; run only for a deliberate change to a
    trial's outcome (see the module docstring)."""
    TRIAL_FIXTURE.write_text(json.dumps(pinned_trials(), indent=1) + "\n")


def _sparse_tables(ps):
    return sparse_polar_tables(ps.coords, default_instance_cutoff(euclidean_mst(ps).lmax))


class TestPinnedTrials:
    def test_dense_tables_match_fixture(self):
        assert pinned_trials() == json.loads(TRIAL_FIXTURE.read_text())

    def test_sparse_tables_match_fixture(self):
        assert pinned_trials(_sparse_tables) == json.loads(TRIAL_FIXTURE.read_text())


# -- the dense oracle ------------------------------------------------------------


def _points(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return make_workload("uniform", n, seed)
    if kind == "clustered":
        return make_workload("clustered", max(n, 8), seed)
    if kind == "lattice":  # exact distance and angle ties everywhere
        return np.unique(rng.integers(0, 6, size=(n, 2)).astype(float), axis=0)
    t = np.sort(rng.uniform(0.0, 5.0, n))  # collinear
    return np.stack([t, 0.5 * t + 1.0], axis=1)


@st.composite
def trial_cases(draw):
    kind = draw(st.sampled_from(["uniform", "clustered", "lattice", "collinear"]))
    pts = _points(kind, draw(st.integers(1, 36)), draw(st.integers(0, 10_000)))
    mode = draw(st.sampled_from(["strong", "symmetric"]))
    k = draw(st.integers(1, 5))
    phi = draw(st.sampled_from([0.0, 0.5, 2.1, math.pi, 3.8, 5.2, 2 * math.pi]))
    pert = Perturbation(
        rotate=draw(st.booleans()),
        fade_sigma=draw(st.sampled_from([0.0, 0.05, 0.4])),
        edge_fail=draw(st.sampled_from([0.0, 0.05, 0.3])),
        node_fail=draw(st.sampled_from([0.0, 0.1, 0.4])),
    )
    first = draw(st.integers(0, 50))
    trials = range(first, first + draw(st.integers(1, 9)))
    return pts, mode, k, phi, pert, trials


def _same(a, b) -> None:
    for name in ("connected", "critical", "realized"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (name, x, y)


class TestDenseOracle:
    """Every instance table and cache setting reproduces the replaced dense
    path bit for bit, in both modes, under every perturbation mix."""

    @settings(max_examples=60, deadline=None)
    @given(trial_cases(), st.sampled_from([(True, True), (True, False), (False, True)]))
    def test_matches_reference(self, case, wants):
        pts, mode, k, phi, pert, trials = case
        ps = PointSet(pts)
        tree = euclidean_mst(ps)
        result = orient_for_mode(ps, k, phi, mode=mode, tree=tree)
        dense = polar_tables(ps.coords)
        kwargs = dict(want_connectivity=wants[0], want_critical=wants[1],
                      want_realized=True, mode=mode)
        ref = measure_trials_reference(ps, dense, result, pert, "oracle", 2,
                                       trials, **kwargs)
        cache = ArtifactCache()
        cache.polar(ps)
        for tables, c in ((dense, None), (dense, cache), (_sparse_tables(ps), None),
                          (_sparse_tables(ps), ArtifactCache())):
            _same(measure_trials(ps, tables, result, pert, "oracle", 2, trials,
                                 cache=c, **kwargs), ref)

    def test_chunking_never_changes_a_trial(self):
        ps = PointSet(make_workload("uniform", 30, 8))
        result = orient_for_mode(ps, 2, math.pi, tree=euclidean_mst(ps))
        tables = polar_tables(ps.coords)
        pert = Perturbation(rotate=True, fade_sigma=0.2, edge_fail=0.05, node_fail=0.1)
        whole = measure_trials(ps, tables, result, pert, "c", 0, range(12),
                               want_critical=True, want_realized=True)
        for part in (range(0, 5), range(5, 12), [7]):
            piece = measure_trials(ps, tables, result, pert, "c", 0, part,
                                   want_critical=True, want_realized=True)
            idx = list(part)
            for name in ("connected", "critical", "realized"):
                assert getattr(piece, name).tobytes() == getattr(whole, name)[idx].tobytes()


class TestTrialKernels:
    def test_launches_per_chunk(self):
        """One coverage launch per mask, one connectivity and one critical
        launch per chunk, and one union probe per trial; each widening
        re-measures with one more angular coverage and critical launch."""
        ps = PointSet(make_workload("uniform", 40, 9))
        result = orient_for_mode(ps, 2, 2 * math.pi, tree=euclidean_mst(ps))
        tables = polar_tables(ps.coords)
        pert = Perturbation(rotate=True, edge_fail=0.02)
        with recording() as rec:
            measure_trials(ps, tables, result, pert, "l", 0, range(10))
        assert (rec.coverage_calls, rec.connectivity_probes, rec.scipy_scc_calls) == (1, 10, 1)
        with recording() as rec:
            measure_trials(ps, tables, result, pert, "l", 0, range(10), want_critical=True)
        assert (rec.coverage_calls, rec.critical_searches, rec.rcut_widenings) == (2, 1, 0)
        with recording() as rec:
            measure_trials(ps, tables, result, Perturbation(edge_fail=0.02),
                           "l", 0, range(10), want_critical=True)
        assert rec.rcut_widenings > 0
        assert rec.coverage_calls == 2 + rec.rcut_widenings
        assert rec.critical_searches == 1 + rec.rcut_widenings

    def test_all_dead_chunk_is_trivially_connected(self):
        """A trial with no alive sensor is connected (vacuously), whether or
        not other trials of its chunk have survivors."""
        ps = PointSet(np.array([[0.0, 0.0]]))
        result = orient_for_mode(ps, 1, math.pi)
        pert = Perturbation(node_fail=0.9)
        tables = polar_tables(ps.coords)
        whole = measure_trials(ps, tables, result, pert, "d", 0, range(8))
        assert whole.connected.all()
        for t in range(8):
            assert measure_trials(ps, tables, result, pert, "d", 0, [t]).connected.all()

    def test_dense_candidates_match_the_kd_tree_build(self):
        ps = PointSet(make_workload("clustered", 80, 4))
        tables = polar_tables(ps.coords)
        r_cut = default_instance_cutoff(euclidean_mst(ps).lmax)
        a, b = dense_candidate_tables(tables, r_cut), sparse_polar_tables(ps.coords, r_cut)
        for name in ("indptr", "indices", "src", "dist", "ang"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_dense_candidates_leave_cache_stats_alone(self):
        ps = PointSet(make_workload("uniform", 24, 2))
        cache = ArtifactCache()
        tables = cache.polar(ps)
        before = cache.stats.as_dict()
        first = cache.dense_candidates(ps, tables, 3.0)
        assert cache.dense_candidates(ps, tables, 3.0) is first
        assert cache.stats.as_dict() == before

    def test_seed_arrays_read_each_seed_table(self):
        seeds = np.array([3, 3, 11, 7], dtype=np.uint64)
        ids = np.array([0, 5, 5, 9], dtype=np.uint64)
        expected = [indexed_uniforms(int(s), int(i)) for s, i in zip(seeds, ids)]
        assert indexed_uniforms(seeds, ids).tolist() == expected

    @pytest.mark.parametrize("rotate, fade", [(True, True), (True, False), (False, True)])
    def test_coverage_temporaries_are_blocked(self, rotate, fade):
        """On a ~5k-point instance a chunk's coverage allocates its two
        output masks plus a bounded number of block temporaries: no float
        array over ``_EDGE_BLOCK_ELEMS`` elements, whatever the chunk."""
        import tracemalloc

        ps = PointSet(make_workload("uniform", 5000, 3))
        tables = _sparse_tables(ps)
        result = orient_for_mode(ps, 2, math.pi, tree=euclidean_mst(ps))
        sensor, start, spread, radius = result.assignment.flattened()
        trials = 25
        rng = np.random.default_rng(0)
        if rotate:
            start = rng.uniform(0.0, 2 * math.pi, (trials, start.shape[0]))
        if fade:
            radius = radius * np.exp(0.1 * rng.standard_normal((trials, radius.shape[0])))
        tracemalloc.start()
        try:
            trial_coverage(tables, sensor, start, spread, radius, trials=trials,
                           radius_mask=True, angular_mask=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        masks = 2 * trials * tables.m
        # Unblocked, one (trials, entries) float temporary alone would be
        # ~25 * 2 * 5000 * deg * 8 bytes, over 10x this budget.
        assert peak < masks + 16 * _EDGE_BLOCK_ELEMS * 8


class TestRotationOracle:
    @pytest.mark.parametrize("phi", [PI, 1.5 * PI])
    def test_link_cover_rate_is_spread_over_two_pi(self, phi):
        """Under rotation each sensor's beam turns by one uniform angle per
        trial, so a k = 1 sensor ``u`` covers an in-range point with
        probability ``spread_u / 2pi`` (plus the kernel's ``2 eps`` boundary
        slack): every in-range pair's cover count over 2,000 trials lies in
        its two-sided binomial interval at ``alpha = 1e-3`` over the number
        of pairs, and no out-of-range pair is ever covered."""
        from scipy.stats import binom

        eps, trials = 1e-9, 2000
        ps = PointSet(make_workload("uniform", 40, 6))
        result = orient_k1_pairs(ps, phi)
        sensor, start, spread, radius = result.assignment.flattened()
        assert np.array_equal(sensor, np.arange(len(ps)))  # one beam per sensor
        draws = draw_trials("rotation-oracle", 0, range(trials), len(ps),
                            Perturbation(rotate=True))
        rotated = np.mod(start[None, :] + draws.rotation[:, sensor], 2 * PI)
        cand = sparse_polar_tables(ps.coords, 2.0 * float(ps.coords.max()) + 1.0)
        assert cand.m == len(ps) * (len(ps) - 1)  # every directed pair
        cover, _ = trial_coverage(cand, sensor, rotated, spread, radius, trials=trials,
                                  eps=eps)
        counts = cover.sum(axis=0)
        in_range = cand.dist <= radius[cand.src] + radius_tolerance(radius[cand.src], eps)
        assert in_range.sum() > 100 and not counts[~in_range].any()
        alpha = 1e-3 / in_range.sum()
        p = spread[cand.src[in_range]] / (2 * PI)
        lo = binom.ppf(alpha / 2, trials, p)
        hi = binom.ppf(1 - alpha / 2, trials, p + 2 * eps / (2 * PI))
        got = counts[in_range]
        assert np.all((lo <= got) & (got <= hi)), (got.min(), got.max(), lo.min(), hi.max())
