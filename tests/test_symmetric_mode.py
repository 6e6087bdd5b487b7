"""Tests for the symmetric connectivity mode (the ConnectivityMode seam).

Covers the bounded-angle MST construction on degenerate layouts (stars,
spiders, near-collinear point sets, the φ=2π clamp), bit-identity of the
symmetric objective across backends (dense vs sparse vs reference),
serial vs multi-process vs shard/resume determinism, and
the identity rules of the seam itself: ``mode`` participates in the plan
fingerprint while strong-mode specs keep their historical byte form.
"""

import json
import math

import networkx as nx
import numpy as np
import pytest

from repro.analysis.metrics import orientation_metrics
from repro.api import assemble_rows, request_from_wire
from repro.core.symmetric import (
    SYMMETRIC_ALGORITHM,
    orient_bounded_angle_mst,
    orient_for_mode,
)
from repro.engine import GridCell, PlanRequest, Scenario, execute_plan
from repro.engine._spec import FrontierRequest
from repro.ensemble import EnsembleRequest, Perturbation, execute_ensemble
from repro.errors import InvalidParameterError
from repro.frontier import execute_frontier
from repro.graph.digraph import DiGraph
from repro.graph.scc import undirected_component_count
from repro.kernels.connectivity import (
    CONNECTIVITY_MODES,
    symmetric_connected_csr,
    validate_mode,
)
from repro.store import RunStore, StoreError, merge_stores
from tests.kernels_reference import mutual_mask, per_instance_sweep

PI = math.pi
TWO_PI = 2.0 * math.pi


def star(m, radius=1.0):
    """A hub at the origin with ``m`` leaves spread over the circle."""
    angles = np.linspace(0.0, TWO_PI, m, endpoint=False)
    leaves = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return np.vstack([[0.0, 0.0], leaves])


def spider_one_leg(m):
    """A path ("spider" with a single leg): every vertex has degree <= 2."""
    return np.stack([np.arange(m, dtype=float), np.zeros(m)], axis=1)


def near_collinear(m, wobble=1e-9):
    """Points a hair off one line — the EMST degenerate-geometry fallback."""
    x = np.arange(m, dtype=float)
    y = wobble * np.sin(np.arange(m))
    return np.stack([x, y], axis=1)


# -- bounded-angle construction on degenerate layouts ------------------------------


class TestBoundedAngleConstruction:
    def test_star_with_one_antenna(self):
        """A 1-gon star: the hub needs spread 2π·(m-1)/m-ish, leaves need 0."""
        result = orient_bounded_angle_mst(star(6), k=1, phi=TWO_PI)
        assert result.algorithm == SYMMETRIC_ALGORITHM
        assert result.stats["feasible"]
        assert result.range_bound == 1.0
        report = result.validate()
        assert report.ok, report.summary()
        metrics = orientation_metrics(result, mode="symmetric")
        assert metrics.strongly_connected
        assert metrics.critical_range <= result.lmax * (1 + 1e-9)

    def test_star_infeasible_when_budget_too_small(self):
        """The hub of a 6-star needs more spread than φ=π/2 allows."""
        result = orient_bounded_angle_mst(star(6), k=1, phi=PI / 2)
        assert not result.stats["feasible"]
        assert math.isinf(result.range_bound)
        assert result.stats["vertices_over_budget"] >= 1
        # The fallback still aims rays along tree edges, so coverage stays
        # a subset of the feasible layout's (monotone-in-φ guarantee).
        metrics = orientation_metrics(result, mode="symmetric")
        assert not metrics.strongly_connected

    def test_one_leg_spider_needs_no_budget(self):
        """On a path, k=1 wedges cover both neighbours of every vertex; the
        interior spread requirement is the gap complement, feasible at 2π."""
        result = orient_bounded_angle_mst(spider_one_leg(7), k=1, phi=TWO_PI)
        assert result.stats["feasible"]
        metrics = orientation_metrics(result, mode="symmetric")
        assert metrics.strongly_connected

    def test_one_leg_spider_k2_zero_spread(self):
        """With k=2 a path vertex aims one ray per neighbour: spread 0."""
        result = orient_bounded_angle_mst(spider_one_leg(9), k=2, phi=0.0)
        assert result.stats["feasible"]
        assert result.stats["spread_required"] == pytest.approx(0.0, abs=1e-12)
        metrics = orientation_metrics(result, mode="symmetric")
        assert metrics.strongly_connected
        assert metrics.max_spread_sum == pytest.approx(0.0, abs=1e-12)

    def test_near_collinear_emst_fallback(self):
        """Almost-collinear inputs exercise the EMST degeneracy fallback and
        still produce a symmetric-connected, in-budget orientation."""
        result = orient_bounded_angle_mst(near_collinear(12), k=1, phi=TWO_PI)
        assert result.stats["feasible"]
        assert result.validate().ok
        metrics = orientation_metrics(result, mode="symmetric")
        assert metrics.strongly_connected

    def test_phi_two_pi_clamp(self):
        """Budgets a rounding error above 2π clamp instead of erroring, and
        the clamped orientation is identical to the exact-2π one."""
        a = orient_bounded_angle_mst(star(5), k=1, phi=TWO_PI + 1e-12)
        b = orient_bounded_angle_mst(star(5), k=1, phi=TWO_PI)
        assert a.phi == b.phi == pytest.approx(TWO_PI)
        ma = orientation_metrics(a, mode="symmetric")
        mb = orientation_metrics(b, mode="symmetric")
        assert ma.identical(mb)

    def test_tiny_instances(self):
        for n in (1, 2):
            coords = np.zeros((n, 2)) + np.arange(n)[:, None]
            result = orient_bounded_angle_mst(coords, k=1, phi=TWO_PI)
            assert result.stats["feasible"]
            metrics = orientation_metrics(result, mode="symmetric")
            assert metrics.strongly_connected

    def test_orient_for_mode_dispatch(self):
        coords = star(4)
        assert orient_for_mode(coords, 1, PI, mode="strong").algorithm != (
            SYMMETRIC_ALGORITHM
        )
        assert (
            orient_for_mode(coords, 1, TWO_PI, mode="symmetric").algorithm
            == SYMMETRIC_ALGORITHM
        )
        with pytest.raises(InvalidParameterError, match="mode"):
            orient_for_mode(coords, 1, PI, mode="weak")


# -- symmetric kernels and the undirected-components scaffold ----------------------


class TestSymmetricKernels:
    def test_validate_mode(self):
        assert set(CONNECTIVITY_MODES) == {"strong", "symmetric"}
        for mode in CONNECTIVITY_MODES:
            assert validate_mode(mode) == mode
        with pytest.raises(InvalidParameterError):
            validate_mode("directed")

    def test_mutual_mask_keeps_only_reciprocated_edges(self):
        src = np.array([0, 1, 1, 2, 3], dtype=np.int64)
        dst = np.array([1, 0, 2, 3, 2], dtype=np.int64)
        mask = mutual_mask(4, src, dst)
        kept = set(zip(src[mask].tolist(), dst[mask].tolist()))
        assert kept == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_symmetric_connected_ignores_one_way_links(self):
        def connected(n, src, dst):
            keep = mutual_mask(n, src, dst)
            src, dst = src[keep], dst[keep]
            indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
            return symmetric_connected_csr(n, indptr, dst[np.argsort(src, kind="stable")])

        # 0<->1 mutual, 1->2 one-way: not symmetric-connected.
        src = np.array([0, 1, 1], dtype=np.int64)
        dst = np.array([1, 0, 2], dtype=np.int64)
        assert not connected(3, src, dst)
        # Adding the reverse closes the mutual path.
        src = np.append(src, 2)
        dst = np.append(dst, 1)
        assert connected(3, src, dst)

    def test_undirected_component_count_matches_bfs_fallback(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 30))
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            edges = [(int(u), int(v)) for u, v in pairs if u != v]
            oracle = nx.DiGraph()
            oracle.add_nodes_from(range(n))
            oracle.add_edges_from(edges)
            expected = nx.number_weakly_connected_components(oracle)
            assert undirected_component_count(DiGraph(n, edges)) == expected

    def test_undirected_component_count_edge_cases(self):
        assert undirected_component_count(DiGraph(0)) == 0
        assert undirected_component_count(DiGraph(1)) == 1
        # A one-way edge still joins components in the undirected view.
        assert undirected_component_count(DiGraph(4, [(0, 1)])) == 3


# -- engine determinism in symmetric mode ------------------------------------------


def symmetric_plan(**overrides):
    base = dict(
        workloads=["uniform"],
        sizes=[16],
        seeds=2,
        ks=[1, 2],
        phis=[PI, TWO_PI],
        tag="sym-test",
        mode="symmetric",
    )
    base.update(overrides)
    return PlanRequest.sweep(**base)


class TestSymmetricEngine:
    def test_dense_vs_sparse_bit_identical(self):
        reference = execute_plan(symmetric_plan(), backend="numpy")
        for name in ("sparse", "auto"):
            batch = execute_plan(symmetric_plan(), backend=name)
            assert len(batch.records) == len(reference.records)
            for got, want in zip(batch.records, reference.records):
                assert got.metrics.identical(want.metrics), (
                    f"{name} diverged at {want.cell.label} "
                    f"seed {want.instance_index}"
                )

    def test_batched_equals_per_instance(self):
        a = execute_plan(symmetric_plan())
        b, _, _ = per_instance_sweep(symmetric_plan())
        for x, y in zip(a.records, b):
            assert x.metrics.identical(y.metrics)

    def test_serial_vs_jobs_vs_shard_resume(self, tmp_path):
        request = symmetric_plan()
        reference = execute_plan(request).aggregate_by_scenario_cell()
        parallel = execute_plan(request, jobs=2).aggregate_by_scenario_cell()
        assert parallel == reference

        run_dir = tmp_path / "runs"
        store = RunStore(run_dir)
        for i in range(2):
            execute_plan(request, store=store, shard=(i, 2))
        key, loaded, rows = merge_stores([run_dir])
        assert loaded == request and loaded.mode == "symmetric"
        merged = assemble_rows(loaded, rows)
        assert merged.aggregate_by_scenario_cell() == reference

        resumed = execute_plan(request, store=store, resume=True)
        assert resumed.aggregate_by_scenario_cell() == reference
        assert resumed.replayed_instances == request.total_instances
        store.close()

    def test_mode_mismatch_refuses_merge(self, tmp_path):
        for mode in ("strong", "symmetric"):
            store = RunStore(tmp_path / mode)
            execute_plan(symmetric_plan(mode=mode), store=store)
            store.close()
        with pytest.raises(StoreError, match="connectivity modes"):
            merge_stores([tmp_path / "strong", tmp_path / "symmetric"])

    def test_frontier_symmetric_bisection(self):
        request = FrontierRequest(
            scenarios=(Scenario("uniform", 12, seeds=1, tag="sym-test"),),
            ks=(1,),
            metric="range_bound",
            target=1.5,
            phi_lo=0.0,
            phi_hi=TWO_PI,
            tol=1e-2,
            mode="symmetric",
        )
        batch = execute_frontier(request)
        rows = batch.aggregate_rows()
        assert rows and rows[0]["found"] == 1
        # Feasibility flips exactly once, at max_v s*(v): the located φ*
        # must be feasible (bound 1.0 <= 1.5) while φ*-tol is not.
        assert 0.0 < rows[0]["phi_star_mean"] <= TWO_PI

    def test_ensemble_symmetric_shard_merge(self, tmp_path):
        request = EnsembleRequest(
            scenarios=(Scenario("uniform", 14, seeds=2, tag="sym-test"),),
            grid=(GridCell(1, TWO_PI), GridCell(2, PI)),
            trials=6,
            chunk=3,
            perturbation=Perturbation(rotate=True, fade_sigma=0.05),
            mode="symmetric",
        )
        reference = execute_ensemble(request).aggregate_rows()
        run_dir = tmp_path / "runs"
        store = RunStore(run_dir)
        for i in range(2):
            execute_ensemble(request, store=store, shard=(i, 2))
        key, loaded, rows = merge_stores([run_dir])
        assert loaded.mode == "symmetric"
        assert assemble_rows(loaded, rows).aggregate_rows() == reference
        store.close()


# -- identity rules of the seam ----------------------------------------------------


class TestModeIdentity:
    def test_mode_changes_the_fingerprint(self):
        strong = symmetric_plan(mode="strong")
        symmetric = symmetric_plan()
        assert strong.fingerprint() != symmetric.fingerprint()

    def test_strong_spec_keeps_historical_byte_form(self):
        """Strong-mode specs must not grow a "mode" key — every pre-seam
        fingerprint and ledger key depends on the serialized bytes."""
        for request in (
            symmetric_plan(mode="strong"),
            FrontierRequest(
                scenarios=(Scenario("uniform", 8, seeds=1, tag="t"),),
                ks=(1,),
                metric="critical_range",
            ),
            EnsembleRequest(
                scenarios=(Scenario("uniform", 8, seeds=1, tag="t"),),
                grid=(GridCell(1, PI),),
                trials=4,
                chunk=2,
            ),
        ):
            assert "mode" not in request.to_dict()
            assert "mode" not in request._fingerprint_spec()

    def test_symmetric_spec_round_trips_through_wire(self):
        request = symmetric_plan()
        wire = json.loads(json.dumps(request.to_wire()))
        back = request_from_wire(wire)
        assert back == request
        assert back.mode == "symmetric"
        assert back.fingerprint() == request.fingerprint()

    def test_invalid_mode_rejected_at_spec(self):
        with pytest.raises(InvalidParameterError, match="mode"):
            symmetric_plan(mode="undirected")

    def test_ledger_rows_carry_mode(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        request = symmetric_plan(sizes=[10], seeds=1, ks=[1], phis=[TWO_PI])
        execute_plan(request, store=store)
        rows = store.load_rows(request.fingerprint())
        assert rows and all(r.mode == "symmetric" for r in rows.values())
        for row in rows.values():
            for metrics in row.cell_metrics():
                assert metrics.mode == "symmetric"
        store.close()
