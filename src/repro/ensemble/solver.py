"""Probabilistic φ-frontier solver: bisection over Monte-Carlo predicates.

The deterministic :mod:`repro.frontier._solver` bisects on
``metric(φ) ≤ target``; this module bisects on an *estimated probability*:

* ``connectivity`` predicate — smallest φ with
  ``P(strongly connected) ≥ p_target``;
* ``quantile`` predicate — smallest φ with
  ``quantile_q(metric) ≤ target``, which is exactly
  ``P(metric ≤ target) ≥ q`` — both predicates reduce to a Bernoulli
  success rate against one probability bound.

A probe runs trials in chunks and stops early once the Wilson score
interval clears the bound from either side (``lo > p`` → met, ``hi < p``
→ not met); at budget exhaustion the point estimate decides.  Saved
trials are accounted in the ``ensemble_trials_saved`` kernel counter —
the number CI asserts the sequential win on, instead of wall-clock.

Probes at different φ share *common random numbers* (trial seeds exclude
φ, see :mod:`repro.ensemble.trials`), so the empirical success curve
inherits the true curve's monotonicity in φ far below the noise floor of
independent sampling.  The :func:`monotonicity_audit` still checks it:
any probe pair whose Wilson intervals order the wrong way (lower φ's lo
above higher φ's hi) is reported as a violation — a bisection-soundness
alarm, not a silent assumption.

The deterministic solver's memo and bisection
(:class:`~repro.frontier._solver.ProbeMemo`,
:func:`~repro.frontier._solver.bisect_threshold`) serve here too:
exact-φ re-probes and φ-free dispatch regimes
(:func:`repro.core.planner.phi_free_regime`) are memoised, and a φ-free
regime yields the identical orientation, hence the identical trial
outcomes, at zero kernel and zero trial cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.symmetric import orient_for_mode
from repro.engine.cache import ArtifactCache
from repro.engine.executor import instance_artifacts
from repro.frontier._solver import ProbeMemo, bisect_threshold
from repro.kernels.instrument import COUNTERS
from repro.ensemble.trials import measure_trials

__all__ = [
    "z_value",
    "wilson_interval",
    "EnsembleProbe",
    "KEnsembleFrontier",
    "EnsembleProbeEngine",
    "monotonicity_audit",
    "solve_instance_ensemble",
]


def z_value(confidence: float) -> float:
    """Two-sided standard-normal critical value for ``confidence``."""
    from scipy.special import ndtri  # lazy: keeps it off `import repro`

    return float(ndtri(0.5 * (1.0 + float(confidence))))


def wilson_interval(
    successes: int, trials: int, confidence: float
) -> tuple[float, float]:
    """Wilson score interval for a Bernoulli rate (robust near 0 and 1)."""
    if trials <= 0:
        return 0.0, 1.0
    z = z_value(confidence)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class EnsembleProbe:
    """One sequential Bernoulli estimate at ``(k, φ)``.

    ``met`` is the probe's decision against the request's probability
    bound; ``trials_used < budget`` iff the Wilson interval decided early
    (``reused`` probes inherit their numbers from a memo at zero cost).
    """

    phi: float
    successes: int
    trials_used: int
    budget: int
    met: bool
    algorithm: str
    reused: bool

    @property
    def p_hat(self) -> float:
        return self.successes / self.trials_used if self.trials_used else 0.0

    def interval(self, confidence: float) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials_used, confidence)

    def as_list(self) -> list:
        """Compact JSON form (ledger rows hold many probes)."""
        return [
            self.phi, self.successes, self.trials_used, self.budget,
            self.met, self.algorithm, self.reused,
        ]

    @classmethod
    def from_list(cls, data: list) -> "EnsembleProbe":
        return cls(
            float(data[0]), int(data[1]), int(data[2]), int(data[3]),
            bool(data[4]), str(data[5]), bool(data[6]),
        )


@dataclass
class KEnsembleFrontier:
    """The solved probabilistic frontier of one ``(instance, k)``.

    ``status`` follows the deterministic solver: ``"located"`` (φ*
    bracketed to tol), ``"below_lo"`` (bound already met at ``phi_lo``),
    ``"unattained"`` (not met at ``phi_hi``).  ``audit`` lists Wilson
    monotonicity violations across the probes (see
    :func:`monotonicity_audit`); ``trials_saved`` counts budgeted trials
    the sequential early stopping never ran.
    """

    k: int
    status: str
    phi_star: float | None
    p_lo: float
    p_hi: float
    probes: list[EnsembleProbe] = field(default_factory=list)
    audit: list[dict[str, float]] = field(default_factory=list)
    trials_used: int = 0
    trials_saved: int = 0

    @property
    def probe_count(self) -> int:
        return len(self.probes)

    @property
    def reused_count(self) -> int:
        return sum(1 for p in self.probes if p.reused)

    @property
    def evaluated_count(self) -> int:
        return self.probe_count - self.reused_count

    def as_dict(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "status": self.status,
            "phi_star": self.phi_star,
            "p_lo": self.p_lo,
            "p_hi": self.p_hi,
            "probes": [p.as_list() for p in self.probes],
            "audit": self.audit,
            "trials_used": self.trials_used,
            "trials_saved": self.trials_saved,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "KEnsembleFrontier":
        return cls(
            k=int(data["k"]),
            status=str(data["status"]),
            phi_star=None if data["phi_star"] is None else float(data["phi_star"]),
            p_lo=float(data["p_lo"]),
            p_hi=float(data["p_hi"]),
            probes=[EnsembleProbe.from_list(p) for p in data["probes"]],
            audit=[dict(v) for v in data["audit"]],
            trials_used=int(data["trials_used"]),
            trials_saved=int(data["trials_saved"]),
        )


class EnsembleProbeEngine:
    """Sequential Bernoulli prober for one ``(instance, k)``.

    Probes go through the deterministic solver's
    :class:`~repro.frontier._solver.ProbeMemo`: an exact-φ memo plus a
    regime memo shared across the instance's ks.  The regime memo is sound
    for trial outcomes, not just metric values: a φ-free regime produces
    the identical orientation, and trial draws never depend on φ, so the
    whole success sequence — and with it the sequential decision — is
    identical.
    """

    def __init__(self, ps, tree, tables, k: int, request, key: str,
                 instance_slot: int, cache: ArtifactCache,
                 regime_memo: "dict[tuple[str, int], EnsembleProbe] | None" = None):
        self._ps = ps
        self._tree = tree
        self._tables = tables
        self._cache = cache
        self.k = int(k)
        self.request = request
        self.key = key
        self.instance_slot = int(instance_slot)
        self._memo = ProbeMemo(k, request.mode, regime_memo)
        self.probes: list[EnsembleProbe] = self._memo.probes
        self.trials_used = 0
        self.trials_saved = 0

    def _successes(self, result, trial_indices) -> np.ndarray:
        """Per-trial success indicators for the request's predicate."""
        request = self.request
        if request.predicate == "connectivity":
            m = measure_trials(
                self._ps, self._tables, result, request.perturbation,
                self.key, self.instance_slot, trial_indices,
                cache=self._cache, want_connectivity=True,
                mode=request.mode,
            )
            return m.connected
        metric = request.metric
        m = measure_trials(
            self._ps, self._tables, result, request.perturbation,
            self.key, self.instance_slot, trial_indices,
            cache=self._cache,
            want_connectivity=False,
            want_critical=metric == "critical_range",
            want_realized=metric == "realized_range",
            mode=request.mode,
        )
        if metric == "critical_range":
            values = m.critical
        elif metric == "realized_range":
            values = m.realized
        else:  # range_bound: analytic, identical for every trial
            values = np.full(len(list(trial_indices)), float(result.range_bound))
        return values <= request.target

    def _sequential(self, result) -> tuple[int, int, bool]:
        """Run trials in chunks until the Wilson interval decides.

        Returns ``(successes, trials_used, met)``.
        """
        request = self.request
        bound = request.threshold_probability
        budget = request.trials
        successes = used = 0
        while used < budget:
            take = min(request.chunk, budget - used)
            s = self._successes(result, range(used, used + take))
            successes += int(np.count_nonzero(s))
            used += take
            if request.early_stop and used < budget:
                lo, hi = wilson_interval(successes, used, request.confidence)
                if lo > bound:
                    return successes, used, True
                if hi < bound:
                    return successes, used, False
        return successes, used, successes / used >= bound

    def __call__(self, phi: float) -> EnsembleProbe:
        return self._memo(phi, self._evaluate)

    def _evaluate(self, phi: float, algorithm: str) -> EnsembleProbe:
        result = orient_for_mode(
            self._ps, self.k, phi, mode=self.request.mode, tree=self._tree,
        )
        successes, used, met = self._sequential(result)
        saved = self.request.trials - used
        self.trials_used += used
        self.trials_saved += saved
        COUNTERS.ensemble_trials_saved += saved
        return EnsembleProbe(
            phi, successes, used, self.request.trials, met, algorithm, False
        )


def monotonicity_audit(
    probes: list[EnsembleProbe], confidence: float
) -> list[dict[str, float]]:
    """Wilson-overlap check of ``P(success)`` being nondecreasing in φ.

    A violation is a probe pair ``φ_i < φ_j`` whose intervals are
    disjoint the wrong way around: the *lower* φ's Wilson lower bound
    exceeds the *higher* φ's upper bound.  With common random numbers
    across probes this should essentially never fire; when it does, the
    bisection's bracketing invariant is unsound for this instance and the
    ledgered frontier carries the evidence.
    """
    unique: dict[float, EnsembleProbe] = {}
    for p in probes:
        unique.setdefault(p.phi, p)
    ordered = [unique[phi] for phi in sorted(unique)]
    violations: list[dict[str, float]] = []
    for i, low in enumerate(ordered):
        lo_i, _ = low.interval(confidence)
        for high in ordered[i + 1:]:
            _, hi_j = high.interval(confidence)
            if lo_i > hi_j:
                violations.append(
                    {
                        "phi_low": low.phi,
                        "phi_high": high.phi,
                        "lower_bound_low_phi": lo_i,
                        "upper_bound_high_phi": hi_j,
                    }
                )
    return violations


def solve_instance_ensemble(
    coords: np.ndarray,
    request,
    key: str,
    instance_slot: int,
    *,
    cache: ArtifactCache | None = None,
) -> tuple[list[KEnsembleFrontier], dict[str, float]]:
    """Solve the probabilistic frontier of one instance at every ``k``.

    Returns one :class:`KEnsembleFrontier` per ``k`` (in request order)
    and the instance facts — the ensemble twin of
    :func:`repro.frontier._solver.solve_instance_frontier`.
    """
    cache = cache if cache is not None else ArtifactCache()
    ps, tree, tables, facts = instance_artifacts(cache, coords)
    frontiers: list[KEnsembleFrontier] = []
    regime_memo: dict[tuple[str, int], EnsembleProbe] = {}  # shared across ks
    for k in request.ks:
        engine = EnsembleProbeEngine(
            ps, tree, tables, k, request, key, instance_slot, cache,
            regime_memo=regime_memo,
        )
        status, phi_star, p_lo, p_hi = bisect_threshold(
            engine, request.phi_lo, request.phi_hi, request.tol,
            lambda p: p.met,
        )
        frontiers.append(
            KEnsembleFrontier(
                k=int(k),
                status=status,
                phi_star=phi_star,
                p_lo=p_lo.p_hat,
                p_hi=p_hi.p_hat,
                probes=engine.probes,
                audit=monotonicity_audit(engine.probes, request.confidence),
                trials_used=engine.trials_used,
                trials_saved=engine.trials_saved,
            )
        )
    return frontiers, facts
