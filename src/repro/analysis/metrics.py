"""One-stop summary metrics for an orientation result.

Aggregates the quantities every experiment reports: range bound vs realized
vs critical, spread usage, antenna counts, and graph size — so benchmark
drivers stay declarative.

Two entry points: :func:`orientation_metrics` measures a single result as
one unperturbed trial of the candidate-pair loop every Monte-Carlo chunk
runs (:func:`repro.ensemble.trials.measure_columns`), on either route;
:func:`batched_orientation_metrics` measures a whole chunk of dense-routed
instances' results through the packed multi-instance kernels — one kernel
launch per measurement for the chunk, bit-identical values.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from repro.core.result import OrientationResult
from repro.kernels.backend import active_backend
from repro.kernels.batch import (
    BatchedInstances,
    PackedPolarTables,
    packed_connected,
    packed_coverage,
    packed_critical,
)
from repro.kernels.geometry import PolarTables, polar_tables
from repro.kernels.instrument import recording
from repro.kernels.sparse import SparsePolarTables

__all__ = [
    "OrientationMetrics",
    "orientation_metrics",
    "batched_orientation_metrics",
]


@dataclass
class OrientationMetrics:
    """Flat record of an orientation's measured properties.

    ``mode`` names the connectivity objective the measurement was taken
    under: ``strongly_connected`` holds connectivity under that mode (mutual
    undirected connectivity when ``mode == "symmetric"``) and
    ``critical_range`` is that mode's critical radius.  ``edges`` is always
    the *directed* transmission-edge count, mode-independent.
    """

    algorithm: str
    n: int
    k: int
    phi: float
    range_bound: float
    realized_range: float
    critical_range: float
    max_spread_sum: float
    antennas_max: int
    antennas_total: int
    edges: int
    strongly_connected: bool
    mode: str = "strong"

    def as_dict(self) -> dict:
        d = asdict(self)
        # Strong-mode dicts predate the mode seam; omitting the default keeps
        # every previously written ledger metric payload byte-identical.
        if d.get("mode") == "strong":
            del d["mode"]
        return d

    def identical(self, other: "OrientationMetrics") -> bool:
        """Bitwise field equality, except NaN == NaN (skipped critical ranges).

        The engine's determinism guarantee (parallel == serial) is stated in
        terms of this predicate: dataclass ``==`` is unusable whenever
        ``compute_critical=False`` leaves NaN critical ranges.  Compares the
        full field set (``asdict``), including ``mode`` even when the
        serialized form omits its default.
        """
        for name, a in asdict(self).items():
            b = getattr(other, name)
            if a != b and not (a != a and b != b):  # NaN-tolerant
                return False
        return True

    def bound_satisfied(self, tol: float = 1e-7) -> bool:
        """Is the measured critical range within the proven bound?"""
        return self.critical_range <= self.range_bound * (1.0 + tol) + 1e-12


def orientation_metrics(
    result: OrientationResult,
    *,
    compute_critical: bool = True,
    tables: PolarTables | SparsePolarTables | None = None,
    mode: str = "strong",
) -> OrientationMetrics:
    """Measure ``result``; ranges are reported in lmax units.

    The result is measured as one unperturbed trial of
    :func:`repro.ensemble.trials.measure_columns`, the loop every
    Monte-Carlo chunk runs, over the instance's candidate pairs.
    ``tables`` is the instance's shared geometry (from the engine's
    :class:`~repro.engine.cache.ArtifactCache`) and only decides where
    those pairs come from: dense :class:`PolarTables` yield them with no
    kd-tree and no trig; :class:`SparsePolarTables` are the kd-tree
    artifact.  Without ``tables`` the active backend's ``use_sparse`` rule
    picks the route: dense tables are built here, kd-tree candidates by
    the loop, at the cutoff the radii require.  Either way the values are
    the dense ``n²`` computation's, bit for bit, by the loop's
    certificates.  ``mode`` selects the connectivity objective the
    connectivity flag and critical range are measured under.
    """
    from repro.ensemble.trials import measure_columns  # lazy: avoids cycle

    backend = active_backend()
    ps = result.points
    if tables is None and not backend.use_sparse(len(ps)):
        tables = polar_tables(ps.coords)
    with recording() as rec:
        cover, connected, critical = measure_columns(
            ps, tables, *result.assignment.flattened(), lmax=result.lmax,
            want_critical=compute_critical, mode=mode,
        )
    if compute_critical:
        critical = float(critical[0])
        if result.lmax > 0:
            critical /= result.lmax
        result.stats["critical_range_kernels"] = {
            "backend": backend.name,
            "sparse": not isinstance(tables, PolarTables),
            **rec.as_dict(),
        }
    else:
        critical = float("nan")
    counts = result.assignment.counts()
    return OrientationMetrics(
        algorithm=result.algorithm,
        n=len(ps),
        k=result.k,
        phi=result.phi,
        range_bound=result.range_bound,
        realized_range=result.realized_range_normalized(),
        critical_range=critical,
        max_spread_sum=result.max_spread_sum(),
        antennas_max=int(counts.max()) if len(counts) else 0,
        antennas_total=int(counts.sum()),
        edges=int(np.count_nonzero(cover)),
        strongly_connected=bool(connected[0]),
        mode=mode,
    )


def batched_orientation_metrics(
    results: Sequence[OrientationResult],
    batch: BatchedInstances,
    tables: PackedPolarTables,
    *,
    compute_critical: bool = True,
    eps: float = 1e-9,
    mode: str = "strong",
) -> list[OrientationMetrics]:
    """Measure one grid cell's results for a whole chunk of instances.

    ``results[m]`` must be the orientation of instance ``m`` of ``batch``
    (same coords, same order); ``tables`` is the chunk's packed polar
    geometry (from :meth:`~repro.engine.cache.ArtifactCache.packed_polar`).
    Instead of per-instance kernel launches this issues *one* packed
    coverage + one packed connectivity call (plus one more coverage and
    one packed search when ``compute_critical``) for the entire chunk —
    the counter win ``execute_plan`` banks on — and returns values
    bit-identical to :func:`orientation_metrics` per instance.
    """
    backend = active_backend()
    m = len(results)
    if m != batch.m:
        raise ValueError(f"{m} results for a batch of {batch.m} instances")
    if m == 0:
        return []

    inst_parts, idx_parts, start_parts, spread_parts, radius_parts = (
        [], [], [], [], []
    )
    for i, result in enumerate(results):
        idx, start, spread, radius = result.assignment.flattened()
        inst_parts.append(np.full(idx.shape[0], i, dtype=np.int64))
        idx_parts.append(idx)
        start_parts.append(start)
        spread_parts.append(spread)
        radius_parts.append(radius)
    inst_idx = np.concatenate(inst_parts)
    sensor_idx = np.concatenate(idx_parts)
    start = np.concatenate(start_parts)
    spread = np.concatenate(spread_parts)
    radius = np.concatenate(radius_parts)

    cover = packed_coverage(
        tables, inst_idx, sensor_idx, start, spread, radius, eps=eps
    )
    connected = packed_connected(cover, batch.counts, mode=mode)
    edges = cover.reshape(m, -1).sum(axis=1)

    if compute_critical:
        cover_ang = packed_coverage(
            tables, inst_idx, sensor_idx, start, spread, radius,
            eps=eps, ignore_radius=True,
        )
        critical_abs = packed_critical(tables, cover_ang, eps=eps, mode=mode)

    out = []
    for i, result in enumerate(results):
        if compute_critical:
            cr = float(critical_abs[i])
            critical = cr / result.lmax if result.lmax > 0 else cr
            result.stats["critical_range_kernels"] = {
                "backend": backend.name,
                "batched": True,
            }
        else:
            critical = float("nan")
        counts = result.assignment.counts()
        out.append(
            OrientationMetrics(
                algorithm=result.algorithm,
                n=len(result.points),
                k=result.k,
                phi=result.phi,
                range_bound=result.range_bound,
                realized_range=result.realized_range_normalized(),
                critical_range=critical,
                max_spread_sum=result.max_spread_sum(),
                antennas_max=int(counts.max()) if len(counts) else 0,
                antennas_total=int(counts.sum()),
                edges=int(edges[i]),
                strongly_connected=bool(connected[i]),
                mode=mode,
            )
        )
    return out
