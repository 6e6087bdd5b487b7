"""Per-instance adaptive φ-frontier solver with warm-started probes.

A *probe* evaluates the requested metric at one ``(k, φ)``: dispatch the
Table-1 planner, orient, measure.  Probing is where all the kernel work
lives, so the solver avoids it three ways:

* the instance's PointSet / EMST / polar tables come from the engine's
  :class:`~repro.engine.cache.ArtifactCache` and are shared by every probe;
* exact φ re-probes (bisection endpoints, staircase refinement) are memoised
  per instance;
* probes landing in a dispatch regime whose construction ignores φ
  (:data:`~repro.core.planner.PHI_FREE_ALGORITHMS` — e.g. Theorem 2 aims
  zero-spread antennae along MST edges regardless of the budget) reuse the
  regime's one measured value instead of re-running the planner and
  kernels.

The bisection assumes the metric is weakly non-increasing in φ (more
angular budget never hurts), which holds for every field admitted by
:data:`repro.engine._spec.FRONTIER_METRICS`.  The memo (:class:`ProbeMemo`)
and the bisection (:func:`bisect_threshold`) also serve the ensemble's
probabilistic frontier (:mod:`repro.ensemble.solver`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.analysis.metrics import orientation_metrics
from repro.core.planner import PHI_FREE_ALGORITHMS, choose_dispatch, phi_free_regime
from repro.core.symmetric import orient_for_mode
from repro.engine.cache import ArtifactCache
from repro.engine.executor import instance_artifacts
from repro.engine._spec import FrontierRequest

__all__ = [
    "PHI_FREE_ALGORITHMS",
    "dispatch_regime",
    "FrontierProbe",
    "KFrontier",
    "ProbeMemo",
    "ProbeEngine",
    "bisect_threshold",
    "solve_instance_frontier",
]


def dispatch_regime(k: int, phi: float) -> tuple[str, int]:
    """The planner's dispatch regime at ``(k, φ)``: ``(algorithm, k_used)``.

    Two probes share a regime iff the planner runs the same algorithm with
    the same number of antennae; for
    :data:`~repro.core.planner.PHI_FREE_ALGORITHMS` that makes their
    orientations identical (:func:`~repro.core.planner.phi_free_regime`
    is the memo key built from it).  Delegates to
    :func:`repro.core.planner.choose_dispatch`, the exact dispatch
    :func:`orient_antennae` runs.
    """
    return choose_dispatch(k, phi)


@dataclass(frozen=True)
class FrontierProbe:
    """One metric evaluation at ``(k, φ)`` (``reused`` = no kernel work)."""

    phi: float
    value: float
    algorithm: str
    reused: bool

    def as_list(self) -> list:
        """Compact JSON form (ledger rows hold many probes)."""
        return [self.phi, self.value, self.algorithm, self.reused]

    @classmethod
    def from_list(cls, data: list) -> "FrontierProbe":
        return cls(float(data[0]), float(data[1]), str(data[2]), bool(data[3]))


@dataclass
class KFrontier:
    """The solved frontier of one ``(instance, k)``.

    Threshold mode (``request.target`` set):

    * ``status``: ``"located"`` (φ* bracketed to tol inside the interval),
      ``"below_lo"`` (already met at ``phi_lo``) or ``"unattained"`` (not
      met even at ``phi_hi``);
    * ``phi_star``: smallest probed φ meeting the target (``None`` when
      unattained).  For ``"located"`` the true threshold lies in
      ``(phi_star - tol, phi_star]``.

    Staircase mode: ``status == "mapped"``; ``steps`` lists the constant-
    value plateaus ``{"phi_lo", "phi_hi", "value"}`` in φ order, adjacent
    plateaus separated by a gap of at most tol containing the transition.

    ``probes`` records every evaluation in order; ``reused`` ones cost zero
    kernel work (regime memo or exact-φ memo hits).
    """

    k: int
    status: str
    phi_star: float | None
    value_lo: float
    value_hi: float
    probes: list[FrontierProbe] = field(default_factory=list)
    steps: list[dict[str, float]] = field(default_factory=list)

    @property
    def probe_count(self) -> int:
        return len(self.probes)

    @property
    def reused_count(self) -> int:
        return sum(1 for p in self.probes if p.reused)

    @property
    def evaluated_count(self) -> int:
        """Probes that actually ran the planner and kernels."""
        return self.probe_count - self.reused_count

    def as_dict(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "status": self.status,
            "phi_star": self.phi_star,
            "value_lo": self.value_lo,
            "value_hi": self.value_hi,
            "probes": [p.as_list() for p in self.probes],
            "steps": self.steps,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "KFrontier":
        return cls(
            k=int(data["k"]),
            status=str(data["status"]),
            phi_star=None if data["phi_star"] is None else float(data["phi_star"]),
            value_lo=float(data["value_lo"]),
            value_hi=float(data["value_hi"]),
            probes=[FrontierProbe.from_list(p) for p in data["probes"]],
            steps=[dict(s) for s in data["steps"]],
        )


class ProbeMemo:
    """The exact-φ memo and the φ-free regime memo of one ``(instance, k)``.

    ``memo(φ, evaluate)`` returns the memoised probe, relabelled with
    ``dataclasses.replace(hit, phi=φ, algorithm=…, reused=True)``, when φ
    was probed before or lands in a φ-free dispatch regime
    (:func:`~repro.core.planner.phi_free_regime`) already evaluated;
    otherwise it returns ``evaluate(φ, algorithm)``.  In a φ-free regime
    the orientation is literally the same assignment, so the memoised
    probe is what a fresh evaluation would report, up to the relabelled
    fields.  The regime key ``(algorithm, k_used)`` identifies the
    construction regardless of the caller's k budget, so ``regime_memo``
    may be shared by every k of one instance — e.g. k = 5 and k = 7 clamp
    to identical dispatches.  Symmetric probes have no φ-free regime.

    ``evaluate`` is passed per call rather than stored: a memo holding its
    engine's bound method would form a reference cycle that keeps the
    instance's tables alive until the cyclic garbage collector runs.
    """

    def __init__(self, k: int, mode: str,
                 regime_memo: "dict[tuple[str, int], Any] | None" = None):
        self.k = int(k)
        self.mode = mode
        self._by_phi: dict[float, Any] = {}
        self._by_regime = regime_memo if regime_memo is not None else {}
        self.probes: list = []

    def __call__(self, phi: float, evaluate: Callable[[float, str], Any]):
        phi = float(phi)
        algo, regime = phi_free_regime(self.k, phi, self.mode)
        hit = self._by_phi.get(phi) or self._by_regime.get(regime)
        if hit is not None:
            probe = replace(hit, phi=phi, algorithm=algo, reused=True)
        else:
            probe = evaluate(phi, algo)
            if regime is not None:
                self._by_regime[regime] = probe
        self._by_phi[phi] = probe
        self.probes.append(probe)
        return probe


class ProbeEngine:
    """Warm-started metric evaluator for one ``(instance, k)``.

    Evaluates over the shared per-instance artifacts behind a
    :class:`ProbeMemo`, so every probe returns the value a fresh
    evaluation would: for φ-free regimes every metric field except the
    recorded k budget and φ is unchanged (asserted in
    ``tests/test_frontier``).
    """

    def __init__(self, pointset, tree, tables, k: int, metric: str,
                 compute_critical: bool,
                 regime_memo: "dict[tuple[str, int], FrontierProbe] | None" = None,
                 mode: str = "strong"):
        self._ps = pointset
        self._tree = tree
        self._tables = tables
        self.k = int(k)
        self.metric = metric
        self.compute_critical = compute_critical
        self.mode = mode
        self._memo = ProbeMemo(k, mode, regime_memo)
        self.probes: list[FrontierProbe] = self._memo.probes

    def __call__(self, phi: float) -> FrontierProbe:
        return self._memo(phi, self._evaluate)

    def _evaluate(self, phi: float, algorithm: str) -> FrontierProbe:
        result = orient_for_mode(
            self._ps, self.k, phi, mode=self.mode, tree=self._tree
        )
        m = orientation_metrics(
            result,
            compute_critical=self.compute_critical,
            tables=self._tables,
            mode=self.mode,
        )
        return FrontierProbe(phi, float(getattr(m, self.metric)), algorithm, False)


def bisect_threshold(
    probe: Callable[[float], Any],
    lo: float,
    hi: float,
    tol: float,
    met: Callable[[Any], bool],
) -> tuple[str, float | None, Any, Any]:
    """Bisect for the smallest φ whose probe is ``met``.

    Invariant: ``lo`` fails, ``hi`` meets.  Returns ``(status, phi_star,
    probe at lo, probe at hi)`` with status ``"below_lo"`` (met at ``lo``),
    ``"unattained"`` (not met at ``hi``) or ``"located"``.
    """
    p_lo = probe(lo)
    if met(p_lo):
        return "below_lo", lo, p_lo, p_lo
    p_hi = probe(hi)
    if not met(p_hi):
        return "unattained", None, p_lo, p_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # tol below float resolution of the interval
            break
        if met(probe(mid)):
            hi = mid
        else:
            lo = mid
    return "located", hi, p_lo, p_hi


def _solve_staircase(
    probe: Callable[[float], FrontierProbe],
    lo: float,
    hi: float,
    tol: float,
) -> tuple[list[dict[str, float]], float, float]:
    """Map the metric's plateaus over ``[lo, hi]``.

    Recursively splits every interval whose endpoint values differ until it
    is narrower than ``tol`` — the cost adapts to the number of distinct
    levels (an all-flat curve costs 2 probes; each transition costs
    ``O(log((hi-lo)/tol))``).  Intervals where the metric varies
    *continuously* (the φ-dependent regimes) degrade to tol-dense sampling,
    which is exactly the dense grid's cost — adaptivity never does worse.
    """
    p_lo, p_hi = probe(lo), probe(hi)
    samples: dict[float, float] = {lo: p_lo.value, hi: p_hi.value}
    stack = [(lo, p_lo.value, hi, p_hi.value)]
    while stack:
        a, va, b, vb = stack.pop()
        if b - a <= tol or va == vb:
            continue
        mid = 0.5 * (a + b)
        if not a < mid < b:
            continue
        vm = probe(mid).value
        samples[mid] = vm
        # Right half pushed first so the left half is refined first (the
        # evaluation order — and with it the ledgered probe list — is
        # deterministic).
        stack.append((mid, vm, b, vb))
        stack.append((a, va, mid, vm))
    steps: list[dict[str, float]] = []
    for phi in sorted(samples):
        value = samples[phi]
        if steps and steps[-1]["value"] == value:
            steps[-1]["phi_hi"] = phi
        else:
            steps.append({"phi_lo": phi, "phi_hi": phi, "value": value})
    return steps, p_lo.value, p_hi.value


def solve_instance_frontier(
    coords: np.ndarray,
    request: FrontierRequest,
    *,
    cache: ArtifactCache | None = None,
) -> tuple[list[KFrontier], dict[str, float]]:
    """Solve the frontier of one instance at every ``k`` of the request.

    Returns one :class:`KFrontier` per ``k`` (in request order) and the
    instance-level facts (same schema as the sweep executor's
    :class:`~repro.engine.executor.InstanceReport` fields).
    """
    cache = cache if cache is not None else ArtifactCache()
    ps, tree, tables, facts = instance_artifacts(cache, coords)
    frontiers: list[KFrontier] = []
    regime_memo: dict[tuple[str, int], FrontierProbe] = {}  # shared across the ks
    for k in request.ks:
        engine = ProbeEngine(
            ps, tree, tables, k, request.metric, request.compute_critical,
            regime_memo=regime_memo, mode=request.mode,
        )
        if request.search_mode == "threshold":
            target = request.target
            assert target is not None
            status, phi_star, p_lo, p_hi = bisect_threshold(
                engine, request.phi_lo, request.phi_hi, request.tol,
                lambda p: p.value <= target,
            )
            v_lo, v_hi = p_lo.value, p_hi.value
            steps: list[dict[str, float]] = []
        else:
            steps, v_lo, v_hi = _solve_staircase(
                engine, request.phi_lo, request.phi_hi, request.tol
            )
            status, phi_star = "mapped", None
        frontiers.append(
            KFrontier(
                k=int(k),
                status=status,
                phi_star=phi_star,
                value_lo=v_lo,
                value_hi=v_hi,
                probes=engine.probes,
                steps=steps,
            )
        )
    return frontiers, facts
