"""Tests for the ``repro.api`` façade and the RequestBase refactor.

The load-bearing claim is identity stability: moving PlanRequest and
FrontierRequest onto a shared ``RequestBase`` must not change a single
plan fingerprint, or every existing run directory silently orphans its
ledgers.  The checked-in fixture ``tests/fixtures/plan_fingerprints.json``
pins the pre-refactor hashes; these tests reconstruct the exact requests
and require byte-equality.
"""

import json
import math
from pathlib import Path

import pytest

from repro.api import (
    WIRE_VERSION,
    EnsembleRequest,
    FrontierRequest,
    Perturbation,
    PlanRequest,
    RequestBase,
    Shard,
    UnknownRequestKind,
    UnsupportedWireVersion,
    WireFormatError,
    assemble,
    request_from_wire,
    submit,
)
from repro.engine import GridCell, Scenario
from repro.errors import InvalidParameterError
from repro.store import RunStore, StoreError

FIXTURES = Path(__file__).parent / "fixtures" / "plan_fingerprints.json"


def fixture_requests() -> dict[str, RequestBase]:
    """The exact requests whose fingerprints are pinned in the fixture."""
    return {
        "ci-smoke sweep": PlanRequest.sweep(
            workloads=["uniform"], sizes=[32], seeds=4, ks=[1, 2],
            phis=[math.pi], tag="ci-smoke", compute_critical=False,
        ),
        "two-scenario sweep": PlanRequest(
            scenarios=(
                Scenario("uniform", 64, seeds=3, tag="sweep"),
                Scenario("clustered", 48, seeds=2, tag="x", seed_offset=5),
            ),
            grid=(
                GridCell(1, math.pi),
                GridCell(3, 2 * math.pi),
                GridCell(2, 2.0943951023931953),
            ),
        ),
        "ci-frontier threshold": FrontierRequest(
            scenarios=(Scenario("uniform", 24, seeds=3, tag="ci-frontier"),),
            ks=(2,),
            metric="range_bound",
            target=1.41421356,
            phi_lo=2.8,
            phi_hi=3.3,
            tol=1e-3,
        ),
        "staircase frontier": FrontierRequest(
            scenarios=(Scenario("annulus", 40, seeds=2, tag="stair"),),
            ks=(1, 2, 4),
            metric="critical_range",
            target=None,
            phi_lo=0.0,
            phi_hi=2 * math.pi + 1e-13,
            tol=5e-3,
        ),
        "ci-ensemble curve": EnsembleRequest(
            scenarios=(Scenario("uniform", 24, seeds=2, tag="ci-ensemble"),),
            grid=(GridCell(1, math.pi), GridCell(2, math.pi)),
            trials=8,
            chunk=4,
            perturbation=Perturbation(rotate=True, edge_fail=0.1),
        ),
        "ci-ensemble threshold": EnsembleRequest(
            scenarios=(Scenario("uniform", 24, seeds=2, tag="ci-ensemble"),),
            ks=(1, 2),
            metric="critical_range",
            quantile=0.5,
            target=1.25,
            phi_lo=2.0,
            phi_hi=2 * math.pi,
            tol=1e-2,
            trials=12,
            chunk=6,
            perturbation=Perturbation(fade_sigma=0.05),
        ),
    }


class TestFingerprintStability:
    def test_fixture_fingerprints_unchanged(self):
        """Every pinned pre-refactor fingerprint reproduces byte-for-byte."""
        pinned = {
            e["label"]: e for e in json.loads(FIXTURES.read_text("utf8"))
        }
        requests = fixture_requests()
        assert set(pinned) == set(requests)
        for label, request in requests.items():
            assert request.fingerprint() == pinned[label]["fingerprint"], label
            assert request.KIND == pinned[label]["kind"], label

    def test_backend_field_outside_identity(self):
        a = fixture_requests()["ci-smoke sweep"]
        b = PlanRequest(
            scenarios=a.scenarios, grid=a.grid,
            compute_critical=a.compute_critical, backend="numpy",
        )
        assert a.fingerprint() == b.fingerprint()

    def test_sweep_and_frontier_fingerprints_disjoint(self):
        """The frontier kind tag keeps the two hash spaces separate."""
        requests = fixture_requests()
        prints = {r.fingerprint() for r in requests.values()}
        assert len(prints) == len(requests)


class TestWireFormat:
    @pytest.mark.parametrize("label", sorted(fixture_requests()))
    def test_round_trip_preserves_identity(self, label):
        request = fixture_requests()[label]
        clone = request_from_wire(
            json.loads(json.dumps(request.to_wire()))
        )
        assert type(clone) is type(request)
        assert clone == request
        assert clone.fingerprint() == request.fingerprint()

    def test_missing_kind_defaults_to_sweep(self):
        request = fixture_requests()["ci-smoke sweep"]
        wire = request.to_wire()
        del wire["kind"]
        assert request_from_wire(wire) == request

    def test_unknown_kind_rejected(self):
        wire = fixture_requests()["ci-smoke sweep"].to_wire()
        wire["kind"] = "mystery"
        with pytest.raises(UnknownRequestKind, match="mystery"):
            request_from_wire(wire)

    def test_envelope_is_versioned(self):
        for request in fixture_requests().values():
            assert request.to_wire()["wire_version"] == WIRE_VERSION == 1

    def test_missing_wire_version_reads_as_v1(self):
        request = fixture_requests()["ci-frontier threshold"]
        wire = request.to_wire()
        del wire["wire_version"]
        assert request_from_wire(wire) == request

    def test_future_wire_version_rejected(self):
        wire = fixture_requests()["ci-smoke sweep"].to_wire()
        wire["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(UnsupportedWireVersion, match="newer"):
            request_from_wire(wire)

    def test_malformed_wire_version_rejected(self):
        wire = fixture_requests()["ci-smoke sweep"].to_wire()
        for bad in (0, -1, "1", True, None):
            wire["wire_version"] = bad
            with pytest.raises(WireFormatError):
                request_from_wire(wire)

    def test_typed_errors_map_to_invalid_parameter(self):
        """Service 400s and CLI exit code 2 hinge on this hierarchy."""
        assert issubclass(UnknownRequestKind, WireFormatError)
        assert issubclass(UnsupportedWireVersion, WireFormatError)
        assert issubclass(WireFormatError, InvalidParameterError)

    def test_ensemble_kind_loads_lazily(self):
        """A plain-engine reader meets an "ensemble" envelope: the kind
        registers itself through the lazy import inside request_from_wire."""
        wire = fixture_requests()["ci-ensemble curve"].to_wire()
        clone = request_from_wire(json.loads(json.dumps(wire)))
        assert isinstance(clone, EnsembleRequest)
        assert clone.fingerprint() == (
            fixture_requests()["ci-ensemble curve"].fingerprint()
        )


class TestSubmitFacade:
    def test_dispatches_sweep(self, tmp_path):
        request = PlanRequest.sweep(
            workloads=["uniform"], sizes=[16], seeds=2, ks=[1],
            phis=[math.pi], tag="facade", compute_critical=False,
        )
        store = RunStore(tmp_path)
        result = submit(request, store=store)
        assert len(result.records) == 2
        assert len(assemble(request, store).records) == 2

    def test_dispatches_frontier(self, tmp_path):
        request = FrontierRequest(
            scenarios=(Scenario("uniform", 16, seeds=2, tag="facade"),),
            ks=(1,), metric="critical_range", target=None,
            phi_lo=math.pi, phi_hi=2 * math.pi, tol=0.1,
        )
        store = RunStore(tmp_path)
        result = submit(request, store=store)
        assert len(result.outcomes) == 2
        assert len(assemble(request, store).outcomes) == 2

    def test_shard_and_resume_pass_through(self, tmp_path):
        request = PlanRequest.sweep(
            workloads=["uniform"], sizes=[16], seeds=4, ks=[1],
            phis=[math.pi], tag="facade-shard", compute_critical=False,
        )
        store = RunStore(tmp_path)
        submit(request, store=store, shard=Shard(0, 2))
        submit(request, store=store, shard=Shard(1, 2))
        merged = assemble(request, store)
        reference = submit(request)
        assert [
            json.dumps(r.metrics.as_dict(), sort_keys=True)
            for r in merged.records
        ] == [
            json.dumps(r.metrics.as_dict(), sort_keys=True)
            for r in reference.records
        ]

    def test_dispatches_ensemble(self, tmp_path):
        request = EnsembleRequest(
            scenarios=(Scenario("uniform", 16, seeds=1, tag="facade"),),
            grid=(GridCell(1, math.pi),),
            trials=4, chunk=2,
            perturbation=Perturbation(edge_fail=0.1),
            compute_critical=False,
        )
        store = RunStore(tmp_path)
        result = submit(request, store=store)
        assert len(result.outcomes) == request.total_slots == 2
        assert assemble(request, store).aggregate_rows() == (
            result.aggregate_rows()
        )

    def test_rejects_foreign_types(self):
        with pytest.raises(InvalidParameterError, match="no executor"):
            submit("not a request")  # type: ignore[arg-type]
        with pytest.raises(InvalidParameterError, match="no executor"):
            assemble(42, None)  # type: ignore[arg-type]


def row_check_requests() -> dict[str, RequestBase]:
    """One small request per kind (and ensemble objective), two slots each."""
    scenarios = (Scenario("uniform", 12, seeds=2, tag="row-check"),)
    grid = (GridCell(1, math.pi), GridCell(2, math.pi))
    ensemble = dict(
        scenarios=scenarios, trials=4, chunk=4, compute_critical=False,
        perturbation=Perturbation(rotate=True, edge_fail=0.1),
    )
    return {
        "sweep": PlanRequest(scenarios, grid, compute_critical=False),
        "frontier": FrontierRequest(
            scenarios=scenarios, ks=(2, 3), metric="range_bound",
            target=1.5, phi_lo=2.0, phi_hi=3.5, tol=0.1,
        ),
        "ensemble-curve": EnsembleRequest(grid=grid, **ensemble),
        "ensemble-threshold": EnsembleRequest(
            ks=(1, 2), p_target=0.5, phi_lo=2.0, phi_hi=5.0, tol=0.5,
            **ensemble,
        ),
    }


class TestLedgerRowCheck:
    """Resume and assembly refuse the same damaged ledger rows."""

    @pytest.mark.parametrize("damage", ["slot-outside-plan", "payload-too-short"])
    @pytest.mark.parametrize("name", list(row_check_requests()))
    def test_resume_and_assemble_refuse_the_same_row(self, tmp_path, name, damage):
        request = row_check_requests()[name]
        store = RunStore(tmp_path)
        submit(request, store=store)
        [path] = store.ledger_paths(request.fingerprint())
        row = next(
            obj for obj in map(json.loads, path.read_text().splitlines())
            if obj["type"] != "shard_done"
        )
        if damage == "slot-outside-plan":
            row["slot"] = request.total_slots + 5
        else:
            payload = next(k for k in ("metrics", "frontiers", "results") if k in row)
            row[payload] = row[payload][:-1]
        with path.open("a") as fh:
            fh.write(json.dumps(row) + "\n")
        with pytest.raises(StoreError, match="outside the plan|expects"):
            submit(request, store=store, resume=True)
        with pytest.raises(StoreError, match="outside the plan|expects"):
            assemble(request, store)


class TestDeprecatedDeepImports:
    """The deep-import shims are gone since 2.0; the façade is the surface."""

    def test_public_surface_matches_all(self):
        import repro.api as api

        for name in api.__all__:
            assert hasattr(api, name), name


class TestOldImportsKeepWorking:
    def test_store_serialization_reexports(self):
        from repro.store import (
            frontier_from_dict,
            frontier_to_dict,
            plan_fingerprint,
            plan_kind,
            request_from_dict,
            request_to_dict,
        )

        requests = fixture_requests()
        sweep = requests["ci-smoke sweep"]
        frontier = requests["ci-frontier threshold"]
        assert request_from_dict(request_to_dict(sweep)) == sweep
        assert frontier_from_dict(frontier_to_dict(frontier)) == frontier
        assert plan_fingerprint(sweep) == sweep.fingerprint()
        assert plan_kind(sweep) == "sweep"
        assert plan_kind(frontier) == "frontier"

    def test_top_level_exports(self):
        import repro

        assert repro.submit is submit
        assert issubclass(repro.PlanRequest, repro.RequestBase)
        assert issubclass(repro.FrontierRequest, repro.RequestBase)
