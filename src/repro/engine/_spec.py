"""Declarative scenario specifications for batch planning.

A :class:`Scenario` names a workload generator from
:mod:`repro.experiments.workloads`, an instance size and a seed range; it
expands into a reproducible sequence of point arrays (the same scenario
always yields bit-identical instances, in any process).  A
:class:`PlanRequest` crosses one or more scenarios with a grid of
``(k, φ)`` cells — the unit of work the sweep executor consumes.  A
:class:`FrontierRequest` instead pairs scenarios with an adaptive φ
search per ``k`` (see :mod:`repro.frontier`).

Both request kinds derive from :class:`RequestBase`, which owns the three
identity-critical behaviours — JSON serialization (:meth:`RequestBase.to_dict`
/ :meth:`RequestBase.from_dict`), the SHA-256 content fingerprint
(:meth:`RequestBase.fingerprint`, the run-store ledger key and the service's
idempotent job id), and backend validation — so a new request kind cannot
drift from the established wire/ledger contract.  The fingerprint scheme is
frozen: refactors must keep every historical fingerprint byte-stable
(regression-tested against ``tests/fixtures/plan_fingerprints.json``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, ClassVar, Iterator, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.experiments.workloads import WORKLOADS, make_workload
from repro.geometry.angles import clamp_angular_budget
from repro.kernels.backend import KNOWN_BACKENDS
from repro.kernels.connectivity import CONNECTIVITY_MODES, validate_mode
from repro.utils.rng import stable_seed

__all__ = [
    "LEDGER_VERSION",
    "WIRE_VERSION",
    "FRONTIER_METRICS",
    "CONNECTIVITY_MODES",
    "Scenario",
    "GridCell",
    "RequestBase",
    "PlanRequest",
    "FrontierRequest",
    "Shard",
    "REQUEST_KINDS",
    "register_request_kind",
    "WireFormatError",
    "UnknownRequestKind",
    "UnsupportedWireVersion",
    "request_from_wire",
]

#: Version mixed into every plan fingerprint (and recorded in plan files);
#: bump only for a deliberate, ledger-breaking format change.  Lives here —
#: next to the fingerprint implementation — and is re-exported by
#: :mod:`repro.store` for compatibility.
LEDGER_VERSION = 1

#: Version of the kind-tagged wire envelope (:meth:`RequestBase.to_wire`).
#: Readers accept every version up to this one; a payload from a *newer*
#: writer fails with :class:`UnsupportedWireVersion` instead of being
#: misparsed.  Deliberately NOT part of the fingerprint — the envelope
#: wraps the spec, it is not the spec.
WIRE_VERSION = 1

#: OrientationMetrics fields a frontier search may bisect on.  Each is
#: (weakly) non-increasing in φ — the bisection invariant — with one
#: documented exception: the k = 1 recorded bound below π carries the
#: measured tour bottleneck (the paper's own row is loose there), which can
#: sit below the π-side pairs bound.  The bisection still maintains its
#: bracket (lo fails, hi meets) and returns a valid crossing.
FRONTIER_METRICS = ("critical_range", "realized_range", "range_bound")

_TWO_PI = 2.0 * math.pi


def _validate_backend(backend: "str | None") -> "str | None":
    """Spec-level backend validation (availability is checked at run time).

    The field is deliberately EXCLUDED from serialization and from
    :func:`repro.store.plan_fingerprint`: backends are bit-exact, so the
    same plan computed on any backend is the same plan — the per-row
    ``backend`` tag in the ledger records provenance instead.
    """
    if backend is None:
        return None
    if backend not in KNOWN_BACKENDS:
        raise InvalidParameterError(
            f"unknown kernel backend {backend!r}; "
            f"choose from {', '.join(KNOWN_BACKENDS)}"
        )
    return backend


@dataclass(frozen=True)
class Scenario:
    """A reproducible ensemble of workload instances.

    Attributes
    ----------
    workload:
        Name of a generator registered in
        :data:`repro.experiments.workloads.WORKLOADS`.
    n:
        Points per instance.
    seeds:
        Number of instances (seed indices ``0 .. seeds-1``).
    tag:
        Namespace mixed into the per-instance seed so distinct experiments
        draw independent instances from the same ``(workload, n)``.
    seed_offset:
        First seed index (lets callers split one logical ensemble into
        disjoint shards).
    """

    workload: str
    n: int
    seeds: int = 1
    tag: str = "engine"
    seed_offset: int = 0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise InvalidParameterError(
                f"unknown workload {self.workload!r}; choose from {sorted(WORKLOADS)}"
            )
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if self.seeds < 1:
            raise InvalidParameterError(f"seeds must be >= 1, got {self.seeds}")
        if self.seed_offset < 0:
            raise InvalidParameterError(
                f"seed_offset must be >= 0, got {self.seed_offset}"
            )

    @property
    def label(self) -> str:
        return f"{self.workload}-n{self.n}"

    def instance_seed(self, index: int) -> int:
        """Stable 63-bit seed of instance ``index`` (process-independent)."""
        return stable_seed(self.tag, self.workload, self.n, self.seed_offset + index)

    def instance(self, index: int) -> np.ndarray:
        """Materialize instance ``index`` as an ``(n, 2)`` float array."""
        if not 0 <= index < self.seeds:
            raise InvalidParameterError(
                f"instance index {index} outside [0, {self.seeds})"
            )
        return make_workload(self.workload, self.n, self.instance_seed(index))

    def instances(self) -> Iterator[np.ndarray]:
        """All instances, in seed order."""
        for i in range(self.seeds):
            yield self.instance(i)


#: Known scenario field names, used to drop unknown keys from serialized
#: scenarios (ledger/wire forward compatibility) instead of letting
#: ``__init__`` raise.
_SCENARIO_FIELDS = ("workload", "n", "seeds", "tag", "seed_offset")


def _scenario_from_dict(s: dict[str, Any]) -> Scenario:
    return Scenario(**{k: v for k, v in s.items() if k in _SCENARIO_FIELDS})


#: The shared validate-and-clamp rule for angular budgets (snap the
#: ``1e-12`` float slop above 2π to exactly 2π, reject anything further):
#: a spec-accepted φ is fingerprinted/ledgered clamped and is never
#: rejected or left unclamped by the planner at probe time.
_clamp_phi = clamp_angular_budget


@dataclass(frozen=True)
class GridCell:
    """One planner configuration: ``k`` antennae with angular-sum budget φ."""

    k: int
    phi: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "phi", _clamp_phi(self.phi))

    @property
    def label(self) -> str:
        """Short display form — NOT an identity: distinct φ closer than
        5e-5 collide.  Anywhere a cell's φ identifies a row (the CLI
        tables), it is rendered at full ``repr`` precision instead (see
        ``_IDENTITY_COLUMNS`` in :mod:`repro.__main__`); fingerprints hash
        the exact float bits (:func:`repro.store.plan_fingerprint`)."""
        return f"k={self.k},phi={self.phi:.4f}"


@dataclass(frozen=True)
class Shard:
    """One of ``count`` disjoint partitions of a plan's instances.

    Instances are assigned round-robin by plan-order slot
    (``slot % count == index``), so the partition is a pure function of the
    :class:`PlanRequest` — every shard of a plan can be computed on a
    different machine and the union of the shards is exactly the plan.
    ``Shard(0, 1)`` is the whole plan.
    """

    index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise InvalidParameterError(
                f"shard count must be >= 1, got {self.count}"
            )
        if not 0 <= self.index < self.count:
            raise InvalidParameterError(
                f"shard index {self.index} outside [0, {self.count})"
            )

    @classmethod
    def parse(cls, text: str) -> "Shard":
        """Parse the CLI spelling ``"i/m"`` (e.g. ``"0/2"``)."""
        i, sep, m = text.partition("/")
        if not sep:
            raise InvalidParameterError(
                f"shard spec must look like 'i/m', got {text!r}"
            )
        try:
            return cls(int(i), int(m))
        except ValueError as exc:
            raise InvalidParameterError(
                f"shard spec must be two integers 'i/m', got {text!r}"
            ) from exc

    @classmethod
    def of(cls, value: "Shard | tuple[int, int] | None") -> "Shard":
        """Normalize ``None`` / ``(i, m)`` / :class:`Shard` to a Shard."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        i, m = value
        return cls(int(i), int(m))

    @property
    def is_whole(self) -> bool:
        return self.count == 1

    @property
    def label(self) -> str:
        return f"{self.index}/{self.count}"

    def owns(self, slot: int) -> bool:
        """Does this shard execute the instance at plan-order ``slot``?"""
        return slot % self.count == self.index


@dataclass(frozen=True)
class RequestBase:
    """Shared shape of an executable request (sweep or frontier).

    Subclasses declare ``KIND`` (the wire/ledger kind tag) and implement
    :meth:`to_dict` / :meth:`from_dict` / :meth:`_fingerprint_spec`;
    scenario handling, backend validation, the fingerprint hash and the
    kind-tagged wire form live here once, so the two request kinds (and any
    future one) share a single identity/serialization contract.
    """

    scenarios: tuple[Scenario, ...]

    #: Wire/ledger kind tag (``"sweep"`` / ``"frontier"``); also the value
    #: :func:`repro.store.plan_kind` reports.
    KIND: ClassVar[str] = ""

    def _init_base(self) -> None:
        """Subclass ``__post_init__`` prologue: normalize shared fields."""
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "backend", _validate_backend(self.backend))
        object.__setattr__(self, "mode", validate_mode(self.mode))
        if not self.scenarios:
            raise InvalidParameterError(
                f"a {type(self).__name__} needs at least one scenario"
            )

    def _init_phi_interval(self) -> None:
        """Clamp ``phi_lo``/``phi_hi`` and check the φ search interval and
        its ``tol`` (frontier and threshold-mode ensemble requests)."""
        object.__setattr__(self, "phi_lo", _clamp_phi(self.phi_lo, "phi_lo"))
        object.__setattr__(self, "phi_hi", _clamp_phi(self.phi_hi, "phi_hi"))
        if not self.phi_lo < self.phi_hi:
            raise InvalidParameterError(
                f"need phi_lo < phi_hi, got [{self.phi_lo}, {self.phi_hi}]"
            )
        if not 0.0 < self.tol < self.phi_hi - self.phi_lo:
            raise InvalidParameterError(
                f"tol must be in (0, phi_hi - phi_lo), got {self.tol}"
            )

    def _init_target(self) -> None:
        """Store a given ``target`` as a float, refusing NaN and ±inf: NaN
        would skip both bisection guards (every comparison is False) and
        fabricate a "located" result at ``phi_hi``."""
        if self.target is not None:
            target = float(self.target)
            if not math.isfinite(target):
                raise InvalidParameterError(f"target must be finite, got {target}")
            object.__setattr__(self, "target", target)

    def _mode_payload(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Append the connectivity mode to a serialized spec — only when it
        is not the default.  Strong-mode specs keep their historical byte
        form, so every pre-existing fingerprint and ledger key is stable;
        symmetric mode is a new key new fingerprints simply include.
        Readers use ``data.get("mode", "strong")`` (forward-compatible)."""
        if self.mode != "strong":
            spec["mode"] = self.mode
        return spec

    def _scenarios_payload(self) -> list[dict[str, Any]]:
        """The scenarios' serialized form (shared by every request kind)."""
        return [
            {
                "workload": s.workload,
                "n": s.n,
                "seeds": s.seeds,
                "tag": s.tag,
                "seed_offset": s.seed_offset,
            }
            for s in self.scenarios
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable spec; round-trips via :meth:`from_dict`.

        The ``backend`` field is deliberately excluded: backends are
        bit-exact, so it is execution advice, not identity (see
        :func:`_validate_backend`).
        """
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RequestBase":
        """Rebuild a request from its :meth:`to_dict` form."""
        raise NotImplementedError

    def _fingerprint_spec(self) -> dict[str, Any]:
        """The dict that is hashed: :meth:`to_dict` with every angle float
        replaced by its ``float.hex`` bit pattern (plus a kind tag where
        needed).  Frozen — any change breaks every recorded ledger key."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """SHA-256 content hash of the spec (the ledger key and job id).

        Angles are hashed via ``float.hex`` so the key depends on the exact
        float64 bit patterns — two specs share a ledger iff their instances
        and cells are bit-identical, the only equality under which reusing
        ledgered results is sound.
        """
        spec = self._fingerprint_spec()
        spec["ledger_version"] = LEDGER_VERSION
        blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf8")).hexdigest()

    def to_wire(self) -> dict[str, Any]:
        """The versioned wire envelope
        (``{"wire_version": 1, "kind": ..., "request": ...}``) — the plan-file
        and service wire shape.  Inverse: :func:`request_from_wire`."""
        return {
            "wire_version": WIRE_VERSION,
            "kind": self.KIND,
            "request": self.to_dict(),
        }

    @property
    def total_instances(self) -> int:
        return sum(s.seeds for s in self.scenarios)

    @property
    def total_slots(self) -> int:
        """Number of ledger slots this request checkpoints.

        One per instance for sweeps and frontiers; request kinds that
        checkpoint at a finer grain (the ensemble layer's per-trial-chunk
        rows) override this.  Shard ownership, resume accounting and
        progress totals are all defined against the slot space.
        """
        return self.total_instances

    def instances(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(scenario_index, instance_index, coords)`` in plan order.

        This is the deterministic enumeration every executor path follows;
        result ordering, shard partitions and ledger slots are defined
        against it.
        """
        for si, scenario in enumerate(self.scenarios):
            for ii in range(scenario.seeds):
                yield si, ii, scenario.instance(ii)


@dataclass(frozen=True)
class PlanRequest(RequestBase):
    """Scenarios × grid: the full batch the executor runs.

    Every instance of every scenario is evaluated at every grid cell; the
    per-instance artifacts (point set, spanning tree, distance matrix) are
    shared across the cells through the :class:`~repro.engine.cache.ArtifactCache`.
    """

    grid: tuple[GridCell, ...] = ()
    compute_critical: bool = True
    #: Connectivity objective every cell is evaluated under (``"strong"``
    #: or ``"symmetric"``).  Unlike ``backend`` this IS identity: symmetric
    #: plans measure a different objective, so the mode participates in
    #: serialization and the fingerprint (conditionally — see
    #: :meth:`RequestBase._mode_payload`).
    mode: str = "strong"
    #: Kernel backend to execute with (``None`` = env var / default).  Not
    #: part of the plan's identity: excluded from serialization and the
    #: fingerprint (see :func:`_validate_backend`).
    backend: "str | None" = None

    KIND: ClassVar[str] = "sweep"

    def __post_init__(self) -> None:
        self._init_base()
        object.__setattr__(self, "grid", tuple(self.grid))
        if not self.grid:
            raise InvalidParameterError("a PlanRequest needs at least one grid cell")

    def to_dict(self) -> dict[str, Any]:
        return self._mode_payload({
            "scenarios": self._scenarios_payload(),
            "grid": [{"k": c.k, "phi": c.phi} for c in self.grid],
            "compute_critical": self.compute_critical,
        })

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PlanRequest":
        return cls(
            scenarios=tuple(_scenario_from_dict(s) for s in data["scenarios"]),
            grid=tuple(GridCell(c["k"], c["phi"]) for c in data["grid"]),
            compute_critical=bool(data["compute_critical"]),
            mode=str(data.get("mode", "strong")),
        )

    def _fingerprint_spec(self) -> dict[str, Any]:
        spec = self.to_dict()
        spec["grid"] = [
            {"k": c["k"], "phi": float(c["phi"]).hex()} for c in spec["grid"]
        ]
        return spec

    @classmethod
    def sweep(
        cls,
        *,
        workloads: Sequence[str],
        sizes: Sequence[int],
        seeds: int,
        ks: Sequence[int],
        phis: Sequence[float],
        tag: str = "sweep",
        compute_critical: bool = True,
        mode: str = "strong",
        backend: "str | None" = None,
    ) -> "PlanRequest":
        """Build the dense cross product (workloads × sizes) × (ks × phis)."""
        scenarios = tuple(
            Scenario(w, int(n), seeds=seeds, tag=tag)
            for w in workloads
            for n in sizes
        )
        grid = tuple(GridCell(int(k), float(p)) for k in ks for p in phis)
        return cls(
            scenarios, grid, compute_critical=compute_critical, mode=mode,
            backend=backend,
        )

    @property
    def total_runs(self) -> int:
        return self.total_instances * len(self.grid)

    def describe(self) -> str:
        cells = ", ".join(c.label for c in self.grid[:4])
        if len(self.grid) > 4:
            cells += f", … ({len(self.grid)} cells)"
        scen = ", ".join(s.label for s in self.scenarios[:4])
        if len(self.scenarios) > 4:
            scen += f", … ({len(self.scenarios)} scenarios)"
        suffix = "" if self.mode == "strong" else f" [{self.mode}]"
        return (
            f"{self.total_instances} instances [{scen}] × grid [{cells}] "
            f"= {self.total_runs} runs{suffix}"
        )


@dataclass(frozen=True)
class FrontierRequest(RequestBase):
    """Scenarios × ks: an adaptive φ-frontier search (see :mod:`repro.frontier`).

    For every instance of every scenario and every ``k`` in ``ks``, the
    frontier solver bisects φ over ``[phi_lo, phi_hi]`` to resolution
    ``tol`` instead of evaluating a dense grid:

    * with a ``target``, it locates the smallest angular sum at which
      ``metric(φ) ≤ target`` (*threshold* mode);
    * without one, it maps the metric-vs-φ staircase — every φ interval on
      which the metric is constant, with each transition bracketed to
      ``tol`` (*staircase* mode).

    ``metric`` names an :class:`~repro.analysis.metrics.OrientationMetrics`
    field (one of :data:`FRONTIER_METRICS`); all are weakly non-increasing
    in φ, which is the bisection invariant.
    """

    ks: tuple[int, ...] = ()
    metric: str = "critical_range"
    target: float | None = None
    phi_lo: float = 0.0
    phi_hi: float = _TWO_PI
    tol: float = 1e-3
    #: Connectivity objective the probes are measured under; identity, like
    #: :attr:`PlanRequest.mode` (conditionally serialized/fingerprinted).
    mode: str = "strong"
    #: Kernel backend to execute with (``None`` = env var / default);
    #: excluded from serialization and the fingerprint like
    #: :attr:`PlanRequest.backend`.
    backend: "str | None" = None

    KIND: ClassVar[str] = "frontier"

    def __post_init__(self) -> None:
        self._init_base()
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if not self.ks:
            raise InvalidParameterError("a FrontierRequest needs at least one k")
        if any(k < 1 for k in self.ks):
            raise InvalidParameterError(f"every k must be >= 1, got {self.ks}")
        if self.metric not in FRONTIER_METRICS:
            raise InvalidParameterError(
                f"unknown frontier metric {self.metric!r}; "
                f"choose from {FRONTIER_METRICS}"
            )
        self._init_phi_interval()
        self._init_target()

    @property
    def search_mode(self) -> str:
        """``"threshold"`` (a target bound is given) or ``"staircase"``.

        Renamed from ``mode`` when requests grew a *connectivity* mode;
        ``mode`` is now always one of :data:`CONNECTIVITY_MODES`.
        """
        return "threshold" if self.target is not None else "staircase"

    @property
    def compute_critical(self) -> bool:
        """Probes measure the critical range only when the metric needs it."""
        return self.metric == "critical_range"

    def to_dict(self) -> dict[str, Any]:
        return self._mode_payload({
            "scenarios": self._scenarios_payload(),
            "ks": list(self.ks),
            "metric": self.metric,
            "target": self.target,
            "phi_lo": self.phi_lo,
            "phi_hi": self.phi_hi,
            "tol": self.tol,
        })

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FrontierRequest":
        return cls(
            scenarios=tuple(_scenario_from_dict(s) for s in data["scenarios"]),
            ks=tuple(int(k) for k in data["ks"]),
            metric=str(data["metric"]),
            target=None if data["target"] is None else float(data["target"]),
            phi_lo=float(data["phi_lo"]),
            phi_hi=float(data["phi_hi"]),
            tol=float(data["tol"]),
            mode=str(data.get("mode", "strong")),
        )

    def _fingerprint_spec(self) -> dict[str, Any]:
        spec = self.to_dict()
        spec["kind"] = "frontier"
        for f in ("phi_lo", "phi_hi", "tol"):
            spec[f] = float(spec[f]).hex()
        if spec["target"] is not None:
            spec["target"] = float(spec["target"]).hex()
        return spec

    def describe(self) -> str:
        scen = ", ".join(s.label for s in self.scenarios[:4])
        if len(self.scenarios) > 4:
            scen += f", … ({len(self.scenarios)} scenarios)"
        goal = (
            f"{self.metric} <= {self.target:g}"
            if self.target is not None
            else f"{self.metric} staircase"
        )
        suffix = "" if self.mode == "strong" else f" [{self.mode}]"
        return (
            f"{self.total_instances} instances [{scen}] × k∈{list(self.ks)}: "
            f"{goal} over phi∈[{self.phi_lo:.4f}, {self.phi_hi:.4f}] "
            f"to tol {self.tol:g}{suffix}"
        )


#: Kind tag -> request class.  The single wire/ledger dispatch table: every
#: request kind (sweep, frontier, ensemble, any future one) is rebuilt
#: through this registry — there is no per-kind if/elif chain anywhere in
#: the wire path.
REQUEST_KINDS: dict[str, type[RequestBase]] = {
    PlanRequest.KIND: PlanRequest,
    FrontierRequest.KIND: FrontierRequest,
}

#: Kinds registered lazily on first use: importing this low-level module
#: must not pull in the subsystems built on top of it, so their request
#: classes self-register when their module loads, and the wire reader
#: imports that module on demand.
_LAZY_KINDS = {"ensemble": "repro.ensemble.spec"}


class WireFormatError(InvalidParameterError):
    """A wire envelope (:meth:`RequestBase.to_wire` form) cannot be read."""


class UnknownRequestKind(WireFormatError):
    """The envelope's ``kind`` tag names no registered request class."""


class UnsupportedWireVersion(WireFormatError):
    """The envelope was written by a newer wire format than this reader."""


def register_request_kind(cls: type[RequestBase]) -> type[RequestBase]:
    """Register ``cls`` in the wire/ledger dispatch table (idempotent).

    Usable as a class decorator by out-of-module request kinds.
    """
    if not cls.KIND:
        raise InvalidParameterError(f"{cls.__name__} declares no KIND tag")
    REQUEST_KINDS[cls.KIND] = cls
    return cls


def request_from_wire(data: dict[str, Any]) -> RequestBase:
    """Rebuild a request from its versioned :meth:`RequestBase.to_wire` envelope.

    Tolerates a missing ``wire_version`` (envelopes written before PR 8 are
    version 1) and a missing ``kind`` (plan files written before frontiers
    existed are sweeps).  An unknown kind raises :class:`UnknownRequestKind`;
    an envelope from a future writer raises :class:`UnsupportedWireVersion` —
    both are :class:`InvalidParameterError` subclasses, so existing error
    mapping (service 400s, CLI exit code 2) applies unchanged.
    """
    version = data.get("wire_version", WIRE_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise WireFormatError(
            f"wire_version must be a positive integer, got {version!r}"
        )
    if version > WIRE_VERSION:
        raise UnsupportedWireVersion(
            f"wire_version {version} is newer than this reader "
            f"(supports <= {WIRE_VERSION}); upgrade to load this payload"
        )
    kind = data.get("kind", PlanRequest.KIND)
    cls = REQUEST_KINDS.get(kind)
    if cls is None and kind in _LAZY_KINDS:
        import importlib

        importlib.import_module(_LAZY_KINDS[kind])
        cls = REQUEST_KINDS.get(kind)
    if cls is None:
        known = sorted(set(REQUEST_KINDS) | set(_LAZY_KINDS))
        raise UnknownRequestKind(
            f"unknown request kind {kind!r}; choose from {known}"
        )
    return cls.from_dict(data["request"])
