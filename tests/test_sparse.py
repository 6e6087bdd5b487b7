"""Sparse radius-bounded kernel path: exactness, widening, accounting.

The contract under test (see :mod:`repro.kernels.sparse`): every metric
the measurement loop (:func:`repro.ensemble.trials.measure_columns`)
returns over kd-tree candidates — edge count, strong connectivity,
critical range — is *bit-identical* to the dense pipeline, on random and
degenerate instances alike; a result that cannot be certified against the
candidate cutoff (by its radius, or for ``inf`` by a cut-off sensor)
triggers a counted widening instead of ever being returned; and the
instrument counters report the actual (reduced) trig work.
"""

import numpy as np
import pytest

from repro.analysis.metrics import orientation_metrics
from repro.core.planner import orient_antennae
from repro.core.symmetric import orient_for_mode
from repro.ensemble.trials import measure_columns
from repro.errors import InvalidParameterError
from repro.experiments.workloads import make_workload, perturbed_star
from repro.geometry.points import PointSet, max_pairwise_distance
from repro.kernels.backend import use_backend
from repro.kernels.connectivity import strongly_connected_csr
from repro.kernels.coverage import batched_coverage
from repro.kernels.critical import _critical_search_impl
from repro.kernels.geometry import (
    DENSE_LIMIT_ENV_VAR,
    polar_tables,
)
from repro.kernels.instrument import recording
from repro.kernels.sparse import (
    SparsePolarTables,
    bbox_diameter_bound,
    complete_cutoff,
    default_instance_cutoff,
    dense_candidate_tables,
    required_cutoff,
    reverse_edge_permutation,
    sparse_polar_tables,
    trial_connected,
    trial_coverage,
    trial_critical,
)

TWO_PI = 2.0 * np.pi

GRID = [(1, TWO_PI), (1, np.pi), (2, np.pi), (3, 4 * np.pi / 5), (5, 2 * np.pi / 5)]


def dense_search(n, src, dst, dist, eps=1e-9):
    """The critical range over every angularly covered pair ``src → dst``."""
    if n <= 1:
        return 0.0
    if src.shape[0] == 0:
        return float("inf")
    return _critical_search_impl(n, src, dst, dist, eps)


def dense_reference(coords, idx, start, spread, radius, eps=1e-9):
    """The dense pipeline's (edges, connected, critical) for raw sectors."""
    tables = polar_tables(coords)
    n = coords.shape[0]
    cover = batched_coverage(tables, idx, start, spread, radius, eps=eps)
    src, dst = np.nonzero(cover)
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(src, minlength=n))]
    ).astype(np.int64)
    connected = strongly_connected_csr(n, indptr, dst.astype(np.int64))
    # Infinite radii: the angular-only mask.
    cover_ang = batched_coverage(
        tables, idx, start, spread, np.full_like(radius, np.inf), eps=eps
    )
    asrc, adst = np.nonzero(cover_ang)
    critical = dense_search(n, asrc, adst, tables.dist[asrc, adst], eps=eps)
    return int(cover.sum()), bool(connected), float(critical)


def loop_metrics(coords, idx, start, spread, radius):
    """``(edges, connected, critical)`` of one unperturbed trial of the
    measurement loop, over kd-tree candidates built on demand."""
    cover, connected, critical = measure_columns(
        coords, None, idx, start, spread, radius
    )
    return int(cover.sum()), bool(connected[0]), float(critical[0])


def make_sectors(rng, n, per_sensor):
    """Adversarial sectors: zero/2π spreads, zero/finite/infinite radii."""
    a = n * per_sensor
    idx = np.repeat(np.arange(n, dtype=np.int64), per_sensor)
    start = rng.uniform(0.0, TWO_PI, size=a)
    spread = rng.uniform(0.0, TWO_PI, size=a)
    spread[rng.random(a) < 0.2] = 0.0
    spread[rng.random(a) < 0.2] = TWO_PI
    radius = rng.uniform(0.5, 8.0, size=a)
    radius[rng.random(a) < 0.3] = np.inf
    radius[rng.random(a) < 0.1] = 0.0
    return idx, start, spread, radius


def instance_catalog():
    t = np.linspace(0.0, 3.0, 9)
    return {
        "uniform-16": make_workload("uniform", 16, seed=5),
        "uniform-60": make_workload("uniform", 60, seed=6),
        "uniform-200": make_workload("uniform", 200, seed=7),
        "collinear": np.stack([t, 2.0 * t + 0.5], axis=1),
        "star-1gon": perturbed_star(1, leg=5, seed=8),
        "star-5gon": perturbed_star(5, leg=3, seed=8),
    }


# -- bit-identity against the dense pipeline ---------------------------------------


@pytest.mark.parametrize("case", sorted(instance_catalog()))
@pytest.mark.parametrize("per_sensor", [1, 3])
def test_sparse_kernels_match_dense_reference(case, per_sensor):
    coords = instance_catalog()[case]
    n = coords.shape[0]
    rng = np.random.default_rng(sum(map(ord, case)) * 17 + per_sensor)
    idx, start, spread, radius = make_sectors(rng, n, per_sensor)
    edges_d, conn_d, crit_d = dense_reference(coords, idx, start, spread, radius)
    edges_s, conn_s, crit_s = loop_metrics(coords, idx, start, spread, radius)
    assert edges_s == edges_d
    assert conn_s == conn_d
    assert crit_s == crit_d or (crit_s != crit_s and crit_d != crit_d)


@pytest.mark.parametrize("case", sorted(instance_catalog()))
@pytest.mark.parametrize("k,phi", GRID)
def test_orientation_metrics_identical_across_backends(case, k, phi):
    """The full measurement stack, dense vs sparse, field for field."""
    ps = PointSet(instance_catalog()[case])
    result_d = orient_antennae(ps, k, float(phi))
    result_s = orient_antennae(ps, k, float(phi))
    with use_backend("numpy"):
        dense = orientation_metrics(result_d)
    with use_backend("sparse"):
        sparse = orientation_metrics(result_s)
    assert dense.identical(sparse)
    assert dense.critical_range == sparse.critical_range or (
        dense.critical_range != dense.critical_range
        and sparse.critical_range != sparse.critical_range
    )
    assert result_s.stats["critical_range_kernels"]["sparse"] is True


def test_phi_two_pi_clamp_identical():
    """φ exactly 2π (full-circle clamp) through both paths."""
    ps = PointSet(make_workload("uniform", 40, seed=11))
    with use_backend("numpy"):
        dense = orientation_metrics(orient_antennae(ps, 1, TWO_PI))
    with use_backend("sparse"):
        sparse = orientation_metrics(orient_antennae(ps, 1, TWO_PI))
    assert dense.identical(sparse)


# -- the widening fallback ----------------------------------------------------------


def test_widening_reaches_distant_critical_range():
    """Initial cutoff below the true critical range: widen, never lie.

    Two far-apart clusters with full-circle antennae of small radius: the
    transmission graph is disconnected at radius 0.5, and the critical
    range is the inter-cluster gap — far beyond the radius-derived cutoff,
    so the first probe cannot be certified.
    """
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 1.0, size=(6, 2))
    b = rng.uniform(0.0, 1.0, size=(6, 2)) + [100.0, 0.0]
    coords = np.vstack([a, b])
    n = coords.shape[0]
    idx = np.arange(n, dtype=np.int64)
    start = np.zeros(n)
    spread = np.full(n, TWO_PI)
    radius = np.full(n, 0.5)
    edges_d, conn_d, crit_d = dense_reference(coords, idx, start, spread, radius)
    with recording() as rec:
        edges_s, conn_s, crit_s = loop_metrics(coords, idx, start, spread, radius)
    assert (edges_s, conn_s, crit_s) == (edges_d, conn_d, crit_d)
    assert np.isfinite(crit_s) and crit_s > 50.0
    assert rec.rcut_widenings >= 1
    assert rec.sparse_polar_builds >= 2


def test_widening_certifies_genuine_infinity():
    """An instance that is *never* strongly connected because one sensor
    covers nobody: that cut-off sensor proves inf at the first cutoff, with
    no widening and no second build."""
    coords = np.stack([np.linspace(0.0, 5.0, 8), np.zeros(8)], axis=1)
    n = coords.shape[0]
    idx = np.arange(n, dtype=np.int64)
    start = np.zeros(n)  # every ray points +x: the last point covers nobody
    spread = np.zeros(n)
    fin_radius = np.full(n, 0.7)
    edges_d, conn_d, crit_d = dense_reference(coords, idx, start, spread, fin_radius)
    with recording() as rec:
        edges_s, conn_s, crit_s = loop_metrics(coords, idx, start, spread, fin_radius)
    assert (edges_s, conn_s, crit_s) == (edges_d, conn_d, crit_d)
    assert not np.isfinite(crit_s)
    assert rec.rcut_widenings == 0
    assert rec.sparse_polar_builds == 1


def test_infinity_without_cut_off_sensor_widens_to_complete_cutoff():
    """Two far-apart groups, each strongly connected, whose rays never face
    the other group: every sensor has an out- and an in-edge, so no sensor
    certifies inf, and only the complete cutoff may return it."""
    group = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    coords = np.vstack([group, group + [0.0, 100.0]])
    n = coords.shape[0]
    idx = np.arange(n, dtype=np.int64)
    start = np.tile([0.0, 0.0, np.pi], 2)  # along the group's own line
    spread = np.zeros(n)
    radius = np.full(n, 2.5)
    edges_d, conn_d, crit_d = dense_reference(coords, idx, start, spread, radius)
    with recording() as rec:
        edges_s, conn_s, crit_s = loop_metrics(coords, idx, start, spread, radius)
    assert (edges_s, conn_s, crit_s) == (edges_d, conn_d, crit_d)
    assert not np.isfinite(crit_s) and not conn_s
    assert rec.rcut_widenings >= 1
    assert rec.trig_evals >= n * (n - 1)  # the last build held every pair


def test_unbounded_radius_goes_straight_to_complete_cutoff():
    coords = make_workload("uniform", 30, seed=21)
    n = coords.shape[0]
    idx = np.arange(n, dtype=np.int64)
    start = np.zeros(n)
    spread = np.full(n, TWO_PI)
    radius = np.full(n, np.inf)
    with recording() as rec:
        edges_s, conn_s, crit_s = loop_metrics(coords, idx, start, spread, radius)
    assert rec.rcut_widenings == 0
    assert rec.sparse_polar_builds == 1
    assert rec.trig_evals == n * (n - 1)  # built at the complete cutoff
    edges_d, conn_d, crit_d = dense_reference(coords, idx, start, spread, radius)
    assert (edges_s, conn_s, crit_s) == (edges_d, conn_d, crit_d)


def test_infeasible_symmetric_cell_needs_no_complete_candidate_set():
    """Symmetric mode, k = 1, φ = π is infeasible (``range_bound = inf``):
    a cut-off sensor proves its inf at the default cutoff, so the sparse
    route matches the dense one field for field without the O(n²)
    candidate set."""
    ps = PointSet(make_workload("uniform", 2000, seed=1))
    result = orient_for_mode(ps, 1, np.pi, mode="symmetric")
    assert result.range_bound == np.inf
    with use_backend("numpy"):
        dense = orientation_metrics(result, mode="symmetric")
    # The engine's cached artifact: the sparse route's starting cutoff.
    tables = sparse_polar_tables(ps.coords, default_instance_cutoff(result.lmax))
    with recording() as rec:
        sparse = orientation_metrics(result, tables=tables, mode="symmetric")
    assert dense.identical(sparse)
    assert sparse.critical_range == np.inf and not sparse.strongly_connected
    n = len(ps)
    assert rec.trig_evals < n * n / 20


# -- counter accounting (the satellite fix) ----------------------------------------


def test_sparse_counters_report_actual_pair_work():
    coords = make_workload("uniform", 150, seed=33)
    with recording() as rec:
        tables = sparse_polar_tables(coords, 3.0)
    assert rec.sparse_polar_builds == 1
    assert rec.polar_builds == 0
    assert rec.trig_evals == tables.m  # actual pairs, not n²
    assert rec.trig_evals < 150 * 150


def test_trig_reduction_at_scale_counter_asserted():
    """≥ 20× fewer trig evals than dense on a jittered grid (counters,
    never wall-clock)."""
    rng = np.random.default_rng(44)
    side = 40
    xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
    coords += rng.uniform(-0.2, 0.2, size=coords.shape)
    n = coords.shape[0]
    with recording() as rec:
        sparse_polar_tables(coords, 3.5)
    assert rec.trig_evals * 20 <= n * n


def test_coverage_counts_candidate_evals():
    coords = make_workload("uniform", 50, seed=55)
    tables = sparse_polar_tables(coords, 4.0)
    n = coords.shape[0]
    idx = np.arange(n, dtype=np.int64)
    with recording() as rec:
        trial_coverage(
            tables, idx, np.zeros(n), np.full(n, TWO_PI), np.full(n, 4.0)
        )
    assert rec.coverage_calls == 1
    deg = tables.indptr[1:] - tables.indptr[:-1]
    assert rec.sector_evals == int(deg.sum())


# -- the dense memory guard (satellite) --------------------------------------------


def test_dense_limit_guard_names_sparse_backend(monkeypatch):
    monkeypatch.setenv(DENSE_LIMIT_ENV_VAR, "100")
    coords = np.stack([np.arange(11, dtype=float), np.zeros(11)], axis=1)
    with pytest.raises(InvalidParameterError, match="sparse"):
        polar_tables(coords)
    monkeypatch.setenv(DENSE_LIMIT_ENV_VAR, "121")
    polar_tables(coords)  # exactly at the budget: allowed


def test_dense_limit_guard_ignores_malformed_env(monkeypatch):
    monkeypatch.setenv(DENSE_LIMIT_ENV_VAR, "not-a-number")
    polar_tables(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_packed_path_honors_dense_limit(monkeypatch):
    """A sweep chunk's table build must fail fast too, before any table of
    an instance over the budget is allocated."""
    from repro.kernels.batch import packed_polar_tables

    coords = make_workload("uniform", 11, seed=3)
    chunk = [coords, coords[:7]]
    monkeypatch.setenv(DENSE_LIMIT_ENV_VAR, "100")
    with pytest.raises(InvalidParameterError, match="sparse"):
        packed_polar_tables(chunk)
    monkeypatch.setenv(DENSE_LIMIT_ENV_VAR, "121")
    packed_polar_tables(chunk)  # the largest n² exactly at the budget: allowed


# -- structural properties ----------------------------------------------------------


def test_tables_are_csr_sorted_readonly_and_bit_compatible():
    coords = make_workload("uniform", 64, seed=9)
    tables = sparse_polar_tables(coords, 5.0)
    assert isinstance(tables, SparsePolarTables)
    # CSR grouping: src non-decreasing, indices sorted within each row
    assert np.all(np.diff(tables.src) >= 0)
    for u in range(tables.n):
        row = tables.indices[tables.indptr[u]:tables.indptr[u + 1]]
        assert np.all(np.diff(row) > 0)
    dense = polar_tables(coords)
    assert np.array_equal(tables.dist, dense.dist[tables.src, tables.indices])
    assert np.array_equal(tables.ang, dense.ang[tables.src, tables.indices])
    assert np.all(tables.dist <= 5.0 * (1 + 1e-12))
    for arr in (tables.indptr, tables.indices, tables.src, tables.dist, tables.ang):
        assert not arr.flags.writeable


def test_reverse_edge_permutation_pairs_each_edge_with_its_reverse():
    xs, ys = np.meshgrid(np.arange(9.0), np.arange(7.0))  # distance ties
    for coords in (
        make_workload("uniform", 90, seed=3),
        make_workload("clustered", 90, seed=3),
        np.stack([xs.ravel(), ys.ravel()], axis=1),
    ):
        r = 0.3 * bbox_diameter_bound(coords)
        for tables in (
            sparse_polar_tables(coords, r),
            dense_candidate_tables(polar_tables(coords), r),
        ):
            rev = reverse_edge_permutation(tables)
            assert tables.m > 0
            assert np.array_equal(tables.src[rev], tables.indices)
            assert np.array_equal(tables.indices[rev], tables.src)


def test_angular_mask_feeds_trial_critical():
    coords = make_workload("uniform", 30, seed=10)
    tables = sparse_polar_tables(coords, complete_cutoff(coords))
    n = coords.shape[0]
    idx = np.arange(n, dtype=np.int64)
    cover, cover_ang = trial_coverage(
        tables, idx, np.zeros(n), np.full(n, TWO_PI), np.full(n, np.inf),
        angular_mask=True,
    )
    assert cover_ang.shape == (1, tables.m) and cover_ang.sum() == n * (n - 1)
    crit = trial_critical(tables, cover_ang, np.array([n]))
    dense = polar_tables(coords)
    src, dst = np.nonzero(dense.dist > 0)
    ref = dense_search(n, src, dst, dense.dist[src, dst])
    assert crit.tolist() == [ref]
    assert trial_connected(tables, cover, np.array([n])).tolist() == [True]


def test_single_point_and_empty_antenna_edge_cases():
    edges, conn, crit = loop_metrics(
        np.array([[0.5, 0.5]]), np.empty(0, dtype=np.int64),
        np.empty(0), np.empty(0), np.empty(0),
    )
    assert (edges, conn, crit) == (0, True, 0.0)
    # n > 1, zero antennae: inf without any widening churn
    with recording() as rec:
        edges, conn, crit = loop_metrics(
            np.array([[0.0, 0.0], [1.0, 0.0]]), np.empty(0, dtype=np.int64),
            np.empty(0), np.empty(0), np.empty(0),
        )
    assert (edges, conn) == (0, False)
    assert not np.isfinite(crit)
    assert rec.rcut_widenings == 0


def test_sparse_polar_tables_rejects_infinite_cutoff():
    """Every pair is asked for as the complete cutoff, never as ``inf``."""
    coords = make_workload("uniform", 12, seed=4)
    for bad in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="finite"):
            sparse_polar_tables(coords, bad)
    assert sparse_polar_tables(coords, complete_cutoff(coords)).m == 12 * 11


def test_cutoff_policy_bounds():
    coords = make_workload("uniform", 25, seed=2)
    diam = bbox_diameter_bound(coords)
    dense = polar_tables(coords)
    assert diam >= float(dense.dist.max())
    assert complete_cutoff(coords) > diam
    assert required_cutoff(2.0) > 2.0
    assert required_cutoff(0.0) >= 0.0
    assert not np.isfinite(required_cutoff(np.inf))


def test_max_pairwise_distance_matches_dense_tables():
    for seed in (1, 2):
        coords = make_workload("uniform", 120, seed=seed)
        dense = polar_tables(coords)
        assert max_pairwise_distance(coords) == float(dense.dist.max())
    # collinear degenerate hull
    t = np.linspace(0.0, 7.0, 30)
    coords = np.stack([t, 3.0 * t], axis=1)
    dense = polar_tables(coords)
    assert max_pairwise_distance(coords) == float(dense.dist.max())
    assert max_pairwise_distance(np.array([[4.0, 2.0]])) == 0.0
