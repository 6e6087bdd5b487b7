"""Backend tests: routing names, selection precedence, parity of every route.

``numpy``, ``sparse`` and ``auto`` share one implementation of every
kernel and differ only in which instances they measure through the
radius-bounded sparse path (``use_sparse``).  Under every name, each
route must be bit-exact against the loop oracles in
``tests/kernels_reference.py`` — including on degenerate inputs
(single-point instances, collinear layouts, coincident points,
full-circle sectors, more antennae than sensors).

The batched multi-instance path is validated the repository's usual way:
kernel *work counters* (one packed launch per chunk instead of one launch
per instance), never wall-clock.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.analysis.metrics import batched_orientation_metrics
from repro.antenna.coverage import coverage_matrix, critical_range, graph_from_cover
from repro.antenna.model import AntennaAssignment
from repro.core.result import OrientationResult
from repro.core.symmetric import orient_for_mode
from repro.engine import GridCell, PlanRequest, Scenario, execute_plan, run_instance_grid
from repro.engine._spec import FrontierRequest
from repro.engine.cache import ArtifactCache
from repro.ensemble.trials import measure_columns
from repro.errors import InvalidParameterError
from repro.graph.connectivity import is_strongly_connected
from repro.kernels import (
    KNOWN_BACKENDS,
    BackendUnavailable,
    active_backend,
    polar_tables,
    resolve_backend,
    use_backend,
)
from repro.kernels.backend import SPARSE_AUTO_ENV_VAR
from repro.kernels.batch import packed_candidates
from repro.kernels.instrument import recording
from repro.spanning.emst import euclidean_mst
from repro.store import plan_fingerprint, request_to_dict
from tests.kernels_reference import (
    bfs_strongly_connected,
    coverage_matrix_loop,
    critical_range_rebuild,
    per_instance_sweep,
)

TWO_PI = 2.0 * np.pi


# -- degenerate + adversarial instances --------------------------------------------


def random_instance(seed, n=None):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 24))
    coords = rng.uniform(-5, 5, size=(n, 2))
    # duplicate / coincident points stress the dist > 0 exclusion
    if n >= 4 and rng.random() < 0.5:
        coords[1] = coords[0]
    return coords


def degenerate_instances():
    t = np.linspace(0.0, 3.0, 7)
    return {
        "single-point": np.array([[0.3, 0.7]]),
        "two-points": np.array([[0.0, 0.0], [1.0, 0.0]]),
        "collinear": np.stack([t, 2.0 * t + 0.5], axis=1),
        "random-9": random_instance(91, n=9),
        "random-17": random_instance(17),
    }


def make_sectors(rng, n, per_sensor):
    """Random sectors, ``per_sensor`` antennae each: mixed degenerate cases.

    Includes zero spreads, full-circle (2π) spreads, zero / finite / infinite
    radii — the boundary semantics every route must reproduce exactly.
    """
    a = n * per_sensor
    idx = np.repeat(np.arange(n, dtype=np.int64), per_sensor)
    start = rng.uniform(0.0, TWO_PI, size=a)
    spread = rng.uniform(0.0, TWO_PI, size=a)
    spread[rng.random(a) < 0.2] = 0.0
    spread[rng.random(a) < 0.2] = TWO_PI  # full circles
    radius = rng.uniform(0.5, 8.0, size=a)
    radius[rng.random(a) < 0.3] = np.inf
    radius[rng.random(a) < 0.1] = 0.0
    return AntennaAssignment.from_columns(n, idx, start, spread, radius)


def oracle_outputs(coords, assignment):
    """The loop oracles' cover, angular cover, connectivity and critical range."""
    cover = coverage_matrix_loop(coords, assignment)
    cover_ang = coverage_matrix_loop(coords, assignment, ignore_radius=True)
    connected = bfs_strongly_connected(graph_from_cover(cover))
    return cover, cover_ang, connected, critical_range_rebuild(coords, assignment)


def assert_same_float(got, want):
    assert got == want or (got != got and want != want)


def unique_lmax(coords) -> float:
    """The EMST's longest edge over the distinct points of ``coords``."""
    distinct = np.unique(coords, axis=0)
    return euclidean_mst(distinct).lmax if distinct.shape[0] > 1 else 0.0


def sector_result(coords, assignment, lmax):
    """``assignment`` as an orientation result, measured in units of ``lmax``.

    The points stay raw coordinates, which the measurement loop accepts:
    a :class:`~repro.geometry.points.PointSet` refuses the coincident
    points some degenerate layouts hold.
    """
    return OrientationResult(
        coords, assignment, np.empty((0, 2), dtype=np.int64), k=1,
        phi=TWO_PI, range_bound=2.0, lmax=lmax, algorithm="random-sectors",
    )


def sparse_route(coords, assignment):
    """``(edges, connected, critical)`` of one unperturbed trial of the
    measurement loop over kd-tree candidates."""
    cover, connected, critical = measure_columns(
        coords, None, *assignment.flattened()
    )
    return int(cover.sum()), bool(connected[0]), float(critical[0])


@pytest.mark.parametrize("backend_name", KNOWN_BACKENDS)
class TestBackendParity:
    """Every routing name, bit-exact against the loop oracles.

    ``auto``'s threshold is pinned inside the cases' sizes, so its copy
    measures some instances dense and the others sparse.
    """

    @pytest.fixture(autouse=True)
    def _auto_threshold(self, monkeypatch):
        monkeypatch.setenv(SPARSE_AUTO_ENV_VAR, "8")

    @pytest.mark.parametrize("case", sorted(degenerate_instances()))
    @pytest.mark.parametrize("per_sensor", [1, 3])
    def test_per_instance_kernels_match_reference(
        self, backend_name, case, per_sensor
    ):
        coords = degenerate_instances()[case]
        n = coords.shape[0]
        rng = np.random.default_rng(sum(map(ord, case)) * 31 + per_sensor)
        assignment = make_sectors(rng, n, per_sensor)
        cover, cover_ang, connected, critical = oracle_outputs(coords, assignment)

        with use_backend(backend_name) as backend:
            if backend.use_sparse(n):
                edges, got_connected, got_critical = sparse_route(
                    coords, assignment
                )
                assert edges == int(cover.sum())
            else:
                tables = polar_tables(coords)
                assert np.array_equal(
                    coverage_matrix(coords, assignment, tables=tables), cover
                )
                assert np.array_equal(
                    coverage_matrix(
                        coords, assignment.with_uniform_radius(np.inf),
                        tables=tables,
                    ),
                    cover_ang,
                )
                got_connected = is_strongly_connected(graph_from_cover(cover))
                got_critical = critical_range(coords, assignment, tables=tables)
        assert got_connected == connected
        assert_same_float(got_critical, critical)

    @pytest.mark.parametrize("per_sensor", [1, 2])
    def test_packed_kernels_match_per_instance(self, backend_name, per_sensor):
        """A chunk split as the engine splits it: dense-routed instances
        measured together by :func:`batched_orientation_metrics`, one
        launch per kernel, the rest through the sparse path."""
        coords_list = list(degenerate_instances().values())
        assignments = [
            make_sectors(np.random.default_rng(1000 + 7 * i + per_sensor),
                         coords.shape[0], per_sensor)
            for i, coords in enumerate(coords_list)
        ]
        lmaxes = [unique_lmax(coords) for coords in coords_list]
        with use_backend(backend_name) as backend:
            dense = [i for i, c in enumerate(coords_list)
                     if not backend.use_sparse(c.shape[0])]
            tables = ArtifactCache().packed_polar([coords_list[i] for i in dense])
            metrics = batched_orientation_metrics(
                [sector_result(coords_list[i], assignments[i], lmaxes[i])
                 for i in dense],
                tables, packed_candidates(tables, [lmaxes[i] for i in dense]),
            )
            sparse = {
                i: sparse_route(coords_list[i], assignments[i])
                for i in range(len(coords_list)) if i not in dense
            }
        assert bool(sparse) == (backend_name != "numpy")  # only numpy stays dense

        for i, coords in enumerate(coords_list):
            ref_cover, _, ref_sc, ref_cr = oracle_outputs(coords, assignments[i])
            if i in sparse:
                edges, sc, cr = sparse[i]
            else:
                j = dense.index(i)
                ref_tables = polar_tables(coords)
                assert np.array_equal(tables[j].dist, ref_tables.dist)
                assert np.array_equal(tables[j].ang, ref_tables.ang)
                edges, sc = metrics[j].edges, metrics[j].strongly_connected
                # Metrics report lmax units: compare with the oracle's range
                # divided the same way.
                cr = metrics[j].critical_range
                if lmaxes[i] > 0:
                    ref_cr /= lmaxes[i]
            assert edges == int(ref_cover.sum())
            assert sc == ref_sc
            assert_same_float(cr, ref_cr)


# -- registry and selection precedence ---------------------------------------------


class TestBackendSelection:
    def test_numpy_always_available(self):
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("numpy") is resolve_backend("numpy")  # cached

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendUnavailable, match="bogus"):
            resolve_backend("bogus")
        with pytest.raises(BackendUnavailable, match="numba"):
            resolve_backend("numba")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None).name == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(BackendUnavailable):
            resolve_backend(None)
        # an explicit name beats a broken environment
        assert resolve_backend("numpy").name == "numpy"

    def test_use_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with use_backend("numpy"):
            assert active_backend().name == "numpy"

    def test_use_backend_nests_and_restores(self):
        outer = active_backend()
        with use_backend("numpy"):
            inner = active_backend()
            assert inner.name == "numpy"
            with use_backend(inner):
                assert active_backend() is inner
        assert active_backend() is outer

    def test_spec_flag_validated(self):
        with pytest.raises(InvalidParameterError):
            PlanRequest.sweep(
                workloads=["uniform"], sizes=[8], seeds=1,
                ks=[1], phis=[np.pi], backend="bogus",
            )
        with pytest.raises(InvalidParameterError):
            FrontierRequest(
                scenarios=(Scenario("uniform", 8, seeds=1),),
                ks=(1,), metric="critical_range", backend="bogus",
            )

    def test_backend_flag_stays_out_of_fingerprint(self):
        plain = PlanRequest.sweep(
            workloads=["uniform"], sizes=[8], seeds=1, ks=[1], phis=[np.pi]
        )
        flagged = PlanRequest.sweep(
            workloads=["uniform"], sizes=[8], seeds=1, ks=[1], phis=[np.pi],
            backend="numpy",
        )
        assert plan_fingerprint(plain) == plan_fingerprint(flagged)
        assert "backend" not in request_to_dict(flagged)


# -- the batched multi-instance path -----------------------------------------------


def many_instance_request(seeds=200):
    return PlanRequest(
        (Scenario("uniform", 10, seeds=seeds, tag="batch-path"),),
        (GridCell(1, np.pi),),
    )


class TestBatchedExecution:
    def test_batched_matches_per_instance_bit_exactly(self):
        request = many_instance_request(seeds=24)
        batched = execute_plan(request)
        records, facts, loop_backend = per_instance_sweep(request)
        assert len(batched.records) == len(records)
        for ra, rb in zip(batched.records, records):
            assert ra.metrics.identical(rb.metrics)
        assert batched.backend == loop_backend == "numpy"
        for rep_a, fact_b in zip(batched.instance_reports, facts):
            assert rep_a.lmax == fact_b["lmax"]
            assert rep_a.diameter == fact_b["diameter"]
            assert rep_a.mst_weight == fact_b["mst_weight"]

    def test_batched_path_needs_10x_fewer_kernel_launches(self):
        request = many_instance_request(seeds=200)
        with recording() as rec_batched:
            execute_plan(request)
        with recording() as rec_loop:
            per_instance_sweep(request)
        batched_c, loop_c = rec_batched.as_dict(), rec_loop.as_dict()
        assert batched_c["batched_instances"] == 200
        assert batched_c["packed_polar_builds"] >= 1
        # the acceptance bar: >= 10x fewer Python-level kernel launches
        assert loop_c["coverage_calls"] >= 10 * batched_c["coverage_calls"]
        assert loop_c["critical_searches"] >= 10 * batched_c["critical_searches"]

    def test_ledger_rows_carry_backend_tag(self, tmp_path):
        from repro.store import RunStore

        request = many_instance_request(seeds=3)
        store = RunStore(tmp_path)
        execute_plan(request, store=store)
        rows = store.load_rows(plan_fingerprint(request))
        assert rows and all(row.backend == "numpy" for row in rows.values())

    def test_chunk_tables_are_released_when_their_chunk_ends(self, monkeypatch):
        """No sub-batch's tables or stacked pairs are alive when the next
        one is built, nor after the sweep, though its cache is."""
        import repro.engine.executor as executor_module
        import repro.kernels.backend as backend_module

        alive = []  # weak references to every chunk artifact built so far

        def tracked(build, arrays_of, *, first):
            def wrapper(*args):
                if first:  # a new sub-batch: the earlier ones are gone
                    gc.collect()
                    assert all(ref() is None for ref in alive)
                out = build(*args)
                alive.extend(weakref.ref(a) for a in arrays_of(out))
                return out
            return wrapper

        monkeypatch.setattr(backend_module, "packed_polar_tables", tracked(
            backend_module.packed_polar_tables,
            lambda tables: [t.dist for t in tables], first=True))
        monkeypatch.setattr(executor_module, "packed_candidates", tracked(
            executor_module.packed_candidates, lambda cand: [cand.pairs.dist],
            first=False))
        # Two n = 10 instances per sub-batch: several sub-batches per chunk.
        monkeypatch.setattr(executor_module, "_BATCH_MAX_ELEMS", 200)
        cache = ArtifactCache()
        execute_plan(many_instance_request(seeds=12), cache=cache)
        # 12 instances' tables and the pairs of 8 sub-batches (4 chunks).
        assert len(alive) == 12 + 8
        gc.collect()
        assert all(ref() is None for ref in alive)


def spider(arms=3, joints=2):
    """A spider of unit-spaced legs around one centre point.

    Its EMST is the spider itself (lmax = 1).  With three legs of two
    joints no k = 1 tour stays within 2·lmax: within 2, each leg's tip
    reaches only its own leg and the centre, and the centre cannot
    neighbour all three tips in a cycle.
    """
    angles = 2.0 * np.pi * np.arange(arms) / arms
    legs = [
        np.stack([j * np.cos(angles), j * np.sin(angles)], axis=1)
        for j in range(1, joints + 1)
    ]
    return np.concatenate([np.zeros((1, 2)), *legs])


def mixed_chunk():
    """One chunk of n = 1, 2, 3, 7 and 40 with the degenerate layouts.

    The coincident point of ``random-17`` is dropped: instances of a sweep
    are point sets (``test_packed_kernels_match_per_instance`` covers
    coincident points).
    """
    rng = np.random.default_rng(2024)
    layouts = [np.unique(c, axis=0) for c in degenerate_instances().values()]
    return layouts + [rng.uniform(0, 4, (3, 2)), spider(),
                      rng.uniform(0, 10, (40, 2))]


MIXED_GRID = (
    GridCell(1, 0.0), GridCell(1, np.pi), GridCell(2, 2 * np.pi / 3),
    GridCell(5, 0.0), GridCell(2, 2 * np.pi),
)


@pytest.mark.parametrize("mode", ["strong", "symmetric"])
@pytest.mark.parametrize("compute_critical", [True, False])
def test_mixed_chunk_matches_per_instance(monkeypatch, mode, compute_critical):
    """A chunk of every size and layout, measured per grid cell over its
    stacked pairs, equals the per-instance path bit for bit.  The spider's
    k = 1 tour needs more than its cutoff, so it is measured again on its
    own; the infeasible symmetric cells are ``inf``."""
    import repro.ensemble.trials as trials_module

    coords_list = mixed_chunk()
    cache = ArtifactCache()
    reference = [
        run_instance_grid(c, MIXED_GRID, compute_critical=compute_critical,
                          cache=cache, mode=mode)[0]
        for c in coords_list
    ]
    points = [cache.pointset(c) for c in coords_list]
    trees = [cache.tree(ps) for ps in points]
    tables = ArtifactCache().packed_polar(coords_list)
    candidates = packed_candidates(tables, [tree.lmax for tree in trees])

    fallbacks = []  # the points of each instance measured again on its own

    def counted(ps, *args, **kwargs):
        fallbacks.append(ps)
        return measure_columns(ps, *args, **kwargs)

    monkeypatch.setattr(trials_module, "measure_columns", counted)
    masks = 2 if compute_critical else 1
    for ci, cell in enumerate(MIXED_GRID):
        results = [
            orient_for_mode(ps, cell.k, cell.phi, mode=mode, tree=tree)
            for ps, tree in zip(points, trees)
        ]
        fallbacks.clear()
        with recording() as rec:
            got = batched_orientation_metrics(
                results, tables, candidates, compute_critical=compute_critical,
                mode=mode,
            )
        for m, ref in zip(got, reference):
            assert m.identical(ref[ci]), (cell, m, ref[ci])
        assert rec.coverage_calls == masks * (1 + len(fallbacks)) + rec.rcut_widenings
        if mode == "strong" and cell == GridCell(1, 0.0):
            assert [ps is points[-2] for ps in fallbacks] == [True]  # the spider
        # Cut-off sensors prove the infeasible cells' inf ranges in the
        # chunk; only a range beyond the cutoff is measured again.
        assert len(fallbacks) <= 1
    if mode == "symmetric" and compute_critical:
        infeasible = [ref[0].critical_range for ref in reference]
        assert np.isinf(infeasible).sum() >= 3


# -- the sparse backend and the auto rule ------------------------------------------


class TestSparseBackendSelection:
    def test_sparse_and_auto_always_available(self):
        assert KNOWN_BACKENDS == ("numpy", "sparse", "auto")
        for name in KNOWN_BACKENDS:
            assert resolve_backend(name).name == name

    def test_use_sparse_rules(self):
        assert not resolve_backend("numpy").use_sparse(10**6)
        sparse = resolve_backend("sparse")
        assert not sparse.use_sparse(1)
        assert sparse.use_sparse(2)

    def test_auto_threshold_default_boundary(self, monkeypatch):
        from repro.kernels.backend import (
            DEFAULT_SPARSE_AUTO_N,
            SPARSE_AUTO_ENV_VAR,
            sparse_auto_threshold,
        )

        monkeypatch.delenv(SPARSE_AUTO_ENV_VAR, raising=False)
        auto = resolve_backend("auto")
        assert sparse_auto_threshold() == DEFAULT_SPARSE_AUTO_N
        assert not auto.use_sparse(DEFAULT_SPARSE_AUTO_N - 1)
        assert auto.use_sparse(DEFAULT_SPARSE_AUTO_N)

    def test_auto_threshold_env_override(self, monkeypatch):
        from repro.kernels.backend import SPARSE_AUTO_ENV_VAR

        auto = resolve_backend("auto")
        monkeypatch.setenv(SPARSE_AUTO_ENV_VAR, "10")
        assert auto.use_sparse(10) and not auto.use_sparse(9)
        monkeypatch.setenv(SPARSE_AUTO_ENV_VAR, "garbage")
        from repro.kernels.backend import DEFAULT_SPARSE_AUTO_N

        assert not auto.use_sparse(DEFAULT_SPARSE_AUTO_N - 1)

    def test_explicit_override_beats_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        assert active_backend().name == "auto"
        with use_backend("sparse"):
            assert active_backend().name == "sparse"

    def test_spec_accepts_sparse_and_auto(self):
        for name in ("sparse", "auto"):
            PlanRequest.sweep(
                workloads=["uniform"], sizes=[8], seeds=1,
                ks=[1], phis=[np.pi], backend=name,
            )


class TestSparseExecution:
    def test_execute_plan_sparse_bit_identical_to_numpy(self, tmp_path):
        from repro.store import RunStore

        request = many_instance_request(seeds=6)
        baseline = execute_plan(request)
        sparse_req = PlanRequest(
            request.scenarios, request.grid, backend="sparse"
        )
        store = RunStore(tmp_path)
        got = execute_plan(sparse_req, store=store)
        assert got.backend == "sparse"
        assert len(got.records) == len(baseline.records)
        for ra, rb in zip(baseline.records, got.records):
            assert ra.metrics.identical(rb.metrics)
        for rep_a, rep_b in zip(
            baseline.instance_reports, got.instance_reports
        ):
            assert rep_a.lmax == rep_b.lmax
            assert rep_a.diameter == rep_b.diameter
            assert rep_a.mst_weight == rep_b.mst_weight
        rows = store.load_rows(plan_fingerprint(sparse_req))
        assert rows and all(row.backend == "sparse" for row in rows.values())

    def test_sparse_skips_dense_table_builds(self):
        request = many_instance_request(seeds=4)
        with recording() as rec:
            execute_plan(PlanRequest(request.scenarios, request.grid,
                                     backend="sparse"))
        assert rec.polar_builds == 0
        assert rec.packed_polar_builds == 0
        assert rec.sparse_polar_builds >= 4

    def test_auto_rule_routes_mixed_sizes_in_one_plan(self, monkeypatch):
        from repro.kernels.backend import SPARSE_AUTO_ENV_VAR

        request = PlanRequest(
            (
                Scenario("uniform", 8, seeds=3, tag="small"),
                Scenario("uniform", 24, seeds=3, tag="large"),
            ),
            (GridCell(1, np.pi),),
        )
        baseline = execute_plan(request)
        monkeypatch.setenv(SPARSE_AUTO_ENV_VAR, "16")
        with recording() as rec:
            got = execute_plan(
                PlanRequest(request.scenarios, request.grid, backend="auto")
            )
        for ra, rb in zip(baseline.records, got.records):
            assert ra.metrics.identical(rb.metrics)
        # both routes ran: packed dense for n=8, sparse for n=24
        assert rec.sparse_polar_builds >= 3
        assert rec.packed_polar_builds + rec.polar_builds >= 1
