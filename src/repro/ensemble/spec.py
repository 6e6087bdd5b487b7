"""Monte-Carlo ensemble requests: perturbation models over a base plan.

An :class:`EnsembleRequest` wraps the deterministic scenario machinery with
a :class:`Perturbation` — random per-sensor orientation rotations, i.i.d.
edge failures (the Monte-Carlo generalization of
:mod:`repro.analysis.robustness`), node knockouts, log-normal range fading —
and a trial budget ``M``.  Two modes mirror the deterministic request kinds:

* **curve** mode (a ``grid`` of :class:`~repro.engine._spec.GridCell`):
  estimate ``P(strongly connected)`` and critical-range quantiles at every
  ``(instance, cell)`` over ``M`` trials — the probabilistic analogue of a
  sweep;
* **threshold** mode (``ks`` + a predicate): bisect φ for the smallest
  angular budget at which ``P(strongly connected) ≥ p_target`` or
  ``quantile_q(metric) ≤ target`` — the probabilistic analogue of a
  frontier, with Wilson-interval sequential early stopping per probe.

Determinism contract: every random draw of trial ``t`` of instance slot
``i`` comes from a counter-based stream keyed by
``(fingerprint, i, t)`` (see :func:`repro.utils.rng.counter_rng` /
:func:`~repro.utils.rng.indexed_uniforms`), so any shard split, resume
order or process count reproduces the serial run bit for bit.  The trial
key deliberately excludes the probe φ: threshold probes at different φ
share common random numbers, which keeps the empirical success curve
monotone in φ far below the sampling noise of independent draws.

The request registers itself in the shared wire/ledger registry on import;
:func:`repro.engine._spec.request_from_wire` imports this module lazily
when it meets an ``"ensemble"`` kind tag, so plan files and service
submissions round-trip with zero changes to ``repro serve`` / ``repro
worker``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.engine._spec import (
    _TWO_PI,
    FRONTIER_METRICS,
    GridCell,
    RequestBase,
    _scenario_from_dict,
    register_request_kind,
)
from repro.errors import InvalidParameterError

__all__ = ["Perturbation", "EnsembleRequest"]


def _probability(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise InvalidParameterError(
            f"{name} must be a probability in [0, 1), got {value}"
        )
    return value


@dataclass(frozen=True)
class Perturbation:
    """The per-trial random deployment model.

    Attributes
    ----------
    rotate:
        Rotate every sensor's whole antenna fan by an independent
        ``U[0, 2π)`` angle — the randomly-oriented deployment of the
        Georgiou et al. line, applied on top of the construction's
        relative antenna geometry.
    edge_fail:
        Probability each *directed* covered link fails independently
        (receiver-side interference/obstruction).
    node_fail:
        Probability each sensor is knocked out; connectivity and critical
        range are judged on the surviving subnetwork (knocking out all but
        ≤ 1 sensors leaves a trivially connected network).
    fade_sigma:
        σ of a per-sensor log-normal transmit-range fade: radii are scaled
        by ``exp(σ·Z)``, ``Z ~ N(0,1)`` (median-1 fading; σ = 0 disables).
    """

    rotate: bool = False
    edge_fail: float = 0.0
    node_fail: float = 0.0
    fade_sigma: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotate", bool(self.rotate))
        object.__setattr__(
            self, "edge_fail", _probability(self.edge_fail, "edge_fail")
        )
        object.__setattr__(
            self, "node_fail", _probability(self.node_fail, "node_fail")
        )
        sigma = float(self.fade_sigma)
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise InvalidParameterError(
                f"fade_sigma must be finite and >= 0, got {sigma}"
            )
        object.__setattr__(self, "fade_sigma", sigma)

    @property
    def is_identity(self) -> bool:
        """No randomness: every trial reproduces the deterministic network."""
        return (
            not self.rotate
            and self.edge_fail == 0.0
            and self.node_fail == 0.0
            and self.fade_sigma == 0.0
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "rotate": self.rotate,
            "edge_fail": self.edge_fail,
            "node_fail": self.node_fail,
            "fade_sigma": self.fade_sigma,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Perturbation":
        return cls(
            rotate=bool(data["rotate"]),
            edge_fail=float(data["edge_fail"]),
            node_fail=float(data["node_fail"]),
            fade_sigma=float(data["fade_sigma"]),
        )

    def label(self) -> str:
        parts = []
        if self.rotate:
            parts.append("rotate")
        if self.edge_fail:
            parts.append(f"edge_fail={self.edge_fail:g}")
        if self.node_fail:
            parts.append(f"node_fail={self.node_fail:g}")
        if self.fade_sigma:
            parts.append(f"fade={self.fade_sigma:g}")
        return "+".join(parts) if parts else "identity"


@register_request_kind
@dataclass(frozen=True)
class EnsembleRequest(RequestBase):
    """Scenarios × perturbation × M trials (curve or threshold mode).

    Exactly one of ``grid`` (curve mode) and ``ks`` (threshold mode) must
    be non-empty; threshold mode requires exactly one of ``p_target``
    (``P(strongly connected) ≥ p_target``) and ``target``
    (``quantile_q(metric) ≤ target``, metric in lmax units).

    Identity: *everything* that can change a ledgered row is part of the
    fingerprint — the perturbation parameters, ``trials``, the checkpoint
    ``chunk`` (it defines the slot layout), ``confidence`` and
    ``early_stop`` (they change which trials a threshold probe runs).
    ``backend`` stays excluded: backends are bit-exact.
    """

    grid: tuple[GridCell, ...] = ()
    ks: tuple[int, ...] = ()
    trials: int = 100
    chunk: int = 25
    perturbation: Perturbation = field(default_factory=Perturbation)
    metric: str = "critical_range"
    p_target: float | None = None
    quantile: float = 0.9
    target: float | None = None
    phi_lo: float = 0.0
    phi_hi: float = _TWO_PI
    tol: float = 1e-3
    confidence: float = 0.95
    early_stop: bool = True
    compute_critical: bool = True
    #: Connectivity objective trials are planned and judged under
    #: (``"strong"`` | ``"symmetric"``); part of the identity, serialized
    #: only when non-default so strong-mode fingerprints stay frozen.
    mode: str = "strong"
    #: Kernel backend to execute with; excluded from serialization and the
    #: fingerprint like :attr:`~repro.engine._spec.PlanRequest.backend`.
    backend: "str | None" = None

    KIND: ClassVar[str] = "ensemble"

    def __post_init__(self) -> None:
        self._init_base()
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if not isinstance(self.perturbation, Perturbation):
            object.__setattr__(
                self, "perturbation", Perturbation.from_dict(self.perturbation)
            )
        if bool(self.grid) == bool(self.ks):
            raise InvalidParameterError(
                "an EnsembleRequest needs exactly one of a (k, phi) grid "
                "(curve mode) or ks (threshold mode)"
            )
        if self.trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {self.trials}")
        if self.chunk < 1:
            raise InvalidParameterError(f"chunk must be >= 1, got {self.chunk}")
        if self.metric not in FRONTIER_METRICS:
            raise InvalidParameterError(
                f"unknown ensemble metric {self.metric!r}; "
                f"choose from {FRONTIER_METRICS}"
            )
        if not 0.0 < float(self.quantile) < 1.0:
            raise InvalidParameterError(
                f"quantile must be in (0, 1), got {self.quantile}"
            )
        object.__setattr__(self, "quantile", float(self.quantile))
        if not 0.0 < float(self.confidence) < 1.0:
            raise InvalidParameterError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        object.__setattr__(self, "confidence", float(self.confidence))
        if self.p_target is not None:
            object.__setattr__(
                self, "p_target", _probability(self.p_target, "p_target")
            )
            if self.p_target == 0.0:
                raise InvalidParameterError("p_target must be > 0")
        self._init_target()
        if self.ks:
            if any(k < 1 for k in self.ks):
                raise InvalidParameterError(f"every k must be >= 1, got {self.ks}")
            if (self.p_target is None) == (self.target is None):
                raise InvalidParameterError(
                    "threshold mode needs exactly one of p_target "
                    "(P(strongly connected) >= p) or target "
                    "(quantile_q(metric) <= target)"
                )
            self._init_phi_interval()
        else:
            if self.p_target is not None or self.target is not None:
                raise InvalidParameterError(
                    "p_target/target are threshold-mode options; curve mode "
                    "(a grid) estimates the full distribution instead"
                )

    # -- derived shape ----------------------------------------------------

    @property
    def objective(self) -> str:
        """``"curve"`` (grid given) or ``"threshold"`` (ks given).

        Renamed from ``mode`` when the connectivity-mode seam landed:
        ``mode`` now names the connectivity objective (strong/symmetric),
        matching the other request kinds.
        """
        return "curve" if self.grid else "threshold"

    @property
    def predicate(self) -> str:
        """Threshold mode's predicate: ``"connectivity"`` or ``"quantile"``."""
        return "connectivity" if self.p_target is not None else "quantile"

    @property
    def threshold_probability(self) -> float:
        """The success probability a threshold probe must clear.

        ``quantile_q(metric) ≤ target`` is exactly
        ``P(metric ≤ target) ≥ q``, so both predicates reduce to a
        Bernoulli success rate against one probability bound.
        """
        return self.p_target if self.p_target is not None else self.quantile

    @property
    def n_chunks(self) -> int:
        """Trial chunks per (instance) in curve mode (the checkpoint grain)."""
        return -(-self.trials // self.chunk)

    def chunk_trials(self, chunk_index: int) -> range:
        """The global trial indices of curve-mode chunk ``chunk_index``."""
        lo = chunk_index * self.chunk
        return range(lo, min(lo + self.chunk, self.trials))

    @property
    def total_slots(self) -> int:
        if self.objective == "curve":
            return self.total_instances * self.n_chunks
        return self.total_instances

    # -- serialization / identity -----------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return self._mode_payload({
            "scenarios": self._scenarios_payload(),
            "grid": [{"k": c.k, "phi": c.phi} for c in self.grid],
            "ks": list(self.ks),
            "trials": self.trials,
            "chunk": self.chunk,
            "perturbation": self.perturbation.to_dict(),
            "metric": self.metric,
            "p_target": self.p_target,
            "quantile": self.quantile,
            "target": self.target,
            "phi_lo": self.phi_lo,
            "phi_hi": self.phi_hi,
            "tol": self.tol,
            "confidence": self.confidence,
            "early_stop": self.early_stop,
            "compute_critical": self.compute_critical,
        })

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EnsembleRequest":
        return cls(
            scenarios=tuple(_scenario_from_dict(s) for s in data["scenarios"]),
            grid=tuple(GridCell(c["k"], c["phi"]) for c in data["grid"]),
            ks=tuple(int(k) for k in data["ks"]),
            trials=int(data["trials"]),
            chunk=int(data["chunk"]),
            perturbation=Perturbation.from_dict(data["perturbation"]),
            metric=str(data["metric"]),
            p_target=None if data["p_target"] is None else float(data["p_target"]),
            quantile=float(data["quantile"]),
            target=None if data["target"] is None else float(data["target"]),
            phi_lo=float(data["phi_lo"]),
            phi_hi=float(data["phi_hi"]),
            tol=float(data["tol"]),
            confidence=float(data["confidence"]),
            early_stop=bool(data["early_stop"]),
            compute_critical=bool(data["compute_critical"]),
            mode=str(data.get("mode", "strong")),
        )

    def _fingerprint_spec(self) -> dict[str, Any]:
        spec = self.to_dict()
        spec["kind"] = "ensemble"
        spec["grid"] = [
            {"k": c["k"], "phi": float(c["phi"]).hex()} for c in spec["grid"]
        ]
        pert = dict(spec["perturbation"])
        for f in ("edge_fail", "node_fail", "fade_sigma"):
            pert[f] = float(pert[f]).hex()
        spec["perturbation"] = pert
        for f in ("phi_lo", "phi_hi", "tol", "quantile", "confidence"):
            spec[f] = float(spec[f]).hex()
        for f in ("p_target", "target"):
            if spec[f] is not None:
                spec[f] = float(spec[f]).hex()
        return spec

    def describe(self) -> str:
        scen = ", ".join(s.label for s in self.scenarios[:4])
        if len(self.scenarios) > 4:
            scen += f", … ({len(self.scenarios)} scenarios)"
        pert = self.perturbation.label()
        suffix = "" if self.mode == "strong" else f" [{self.mode}]"
        if self.objective == "curve":
            cells = ", ".join(c.label for c in self.grid[:4])
            if len(self.grid) > 4:
                cells += f", … ({len(self.grid)} cells)"
            return (
                f"{self.total_instances} instances [{scen}] × grid [{cells}] "
                f"× {self.trials} trials ({pert}){suffix}"
            )
        goal = (
            f"P(connected) >= {self.p_target:g}"
            if self.predicate == "connectivity"
            else f"q{self.quantile:g}({self.metric}) <= {self.target:g}"
        )
        return (
            f"{self.total_instances} instances [{scen}] × k∈{list(self.ks)}: "
            f"{goal} over phi∈[{self.phi_lo:.4f}, {self.phi_hi:.4f}] "
            f"to tol {self.tol:g}, {self.trials} trials ({pert}){suffix}"
        )
