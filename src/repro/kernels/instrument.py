"""Process-wide instrumentation counters for the kernel layer.

Wall-clock benchmarks are meaningless on the single-core CI container, so
the kernel layer counts *work* instead: graph constructions, connectivity
probes, trig evaluations, coverage-kernel invocations.  Perf-regression
tests assert on these counters (e.g. ``critical_range`` must perform zero
per-probe :class:`~repro.graph.digraph.DiGraph` builds), and benchmarks
report them alongside timings.

This module is imported by the lowest layers (``repro.graph.digraph``
increments ``graph_builds``), so it must not import anything from
``repro`` itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

__all__ = [
    "KernelCounters",
    "kernel_counters",
    "reset_kernel_counters",
    "recording",
]


@dataclass
class KernelCounters:
    """Monotonic work counters incremented by the vectorized kernels.

    Attributes
    ----------
    graph_builds:
        :class:`~repro.graph.digraph.DiGraph` constructions (CSR build +
        edge dedup each time) — the allocation the rebuild-free critical
        search eliminates.
    connectivity_probes:
        Strong-connectivity yes/no checks (any backend).
    scipy_scc_calls:
        Probes answered by ``scipy.sparse.csgraph.connected_components``.
    trig_evals:
        ``arctan2`` element evaluations (each is one entry of a polar-angle
        table) — repeated trig on identical source geometry shows up here.
    polar_builds:
        ``(n, n)`` polar table constructions (:func:`polar_tables`).
    coverage_calls:
        Batched coverage-kernel invocations (one per coverage matrix).
    sector_evals:
        Sector-point containment tests evaluated inside the batched kernel
        (``antennae x points``; the same work the old per-antenna Python
        loop did one row at a time).
    critical_searches:
        Rebuild-free critical-range searches performed.  A packed search
        over a whole chunk of instances counts as *one* launch.
    packed_polar_builds:
        Packed ``(M, n_max, n_max)`` polar-table constructions
        (:func:`repro.kernels.batch.packed_polar_tables`) — one per chunk
        of instances, regardless of the chunk size.
    batched_instances:
        Instances folded into packed polar builds (the ``M`` summed over
        every ``packed_polar_builds`` launch).
    sparse_polar_builds:
        Radius-bounded :class:`repro.kernels.sparse.SparsePolarTables`
        constructions.  Each build also adds its directed candidate-pair
        count to ``trig_evals`` (the *actual* ``arctan2`` work — the
        20×+ reduction over the dense ``n²`` is the sparse path's win).
    rcut_widenings:
        Geometric ``r_cut`` widenings performed by the sparse exactness
        loop: a sparse critical-range probe whose result could not be
        certified against the candidate cutoff rebuilt the tables at a
        doubled cutoff instead of returning a silently-wrong value.
    ensemble_trials:
        Monte-Carlo trials actually evaluated by the ensemble layer
        (:mod:`repro.ensemble`), across every probe and grid cell.
    ensemble_trials_saved:
        Trials a sequential early-stopped ensemble probe did *not* run:
        the budgeted trial count minus the trials evaluated before the
        Wilson interval cleared the probe's threshold.  The counter CI
        asserts the early-stopping win on, instead of wall-clock.
    """

    graph_builds: int = 0
    connectivity_probes: int = 0
    scipy_scc_calls: int = 0
    trig_evals: int = 0
    polar_builds: int = 0
    coverage_calls: int = 0
    sector_evals: int = 0
    critical_searches: int = 0
    packed_polar_builds: int = 0
    batched_instances: int = 0
    sparse_polar_builds: int = 0
    rcut_widenings: int = 0
    ensemble_trials: int = 0
    ensemble_trials_saved: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "KernelCounters":
        return KernelCounters(**self.as_dict())

    def delta_since(self, earlier: "KernelCounters") -> "KernelCounters":
        """Counter increments between ``earlier`` and this snapshot."""
        return KernelCounters(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def merge(self, other: "KernelCounters") -> None:
        """Fold another counter set into this one (parallel workers)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


#: The process-wide counter instance every kernel increments.
COUNTERS = KernelCounters()


def kernel_counters() -> KernelCounters:
    """The live process-wide counters (monotonic; see :func:`recording`)."""
    return COUNTERS


def reset_kernel_counters() -> None:
    """Zero the process-wide counters (test isolation)."""
    for f in fields(KernelCounters):
        setattr(COUNTERS, f.name, 0)


@contextmanager
def recording() -> Iterator[KernelCounters]:
    """Context manager measuring counter deltas over its body.

    >>> with recording() as rec:
    ...     pass  # run kernels
    >>> rec.graph_builds  # increments during the body only
    0
    """
    before = COUNTERS.copy()
    rec = KernelCounters()
    try:
        yield rec
    finally:
        after = COUNTERS.delta_since(before)
        for f in fields(KernelCounters):
            setattr(rec, f.name, getattr(after, f.name))
