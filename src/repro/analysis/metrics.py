"""One-stop summary metrics for an orientation result.

Aggregates the quantities every experiment reports: range bound vs realized
vs critical, spread usage, antenna counts, and graph size — so benchmark
drivers stay declarative.

Two entry points: :func:`orientation_metrics` measures a single result as
one unperturbed trial of the candidate-pair loop every Monte-Carlo chunk
runs (:func:`repro.ensemble.trials.measure_columns`), on either route;
:func:`batched_orientation_metrics` measures a whole chunk of dense-routed
instances' results with the same kernels over the chunk's stacked
candidate pairs (:mod:`repro.kernels.batch`) — one kernel launch per
measurement for the chunk, and the same certificates, so the values are
the per-instance ones bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from repro.core.result import OrientationResult
from repro.kernels.backend import active_backend
from repro.kernels.batch import (
    PackedCandidates,
    PackedPolarTables,
    stacked_connected,
    stacked_critical,
)
from repro.kernels.geometry import PolarTables, polar_tables
from repro.kernels.instrument import recording
from repro.kernels.sparse import (
    SparsePolarTables,
    certified_cutoff,
    required_cutoff,
    trial_coverage,
)

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
    tables: PackedPolarTables,
    candidates: PackedCandidates,
    *,
    compute_critical: bool = True,
    eps: float = 1e-9,
    mode: str = "strong",
) -> list[OrientationMetrics]:
    """Measure one grid cell's results for a whole chunk of instances.

    ``results[m]`` must be the orientation of instance ``m`` of the chunk
    whose packed polar geometry ``tables`` is (from
    :meth:`~repro.engine.cache.ArtifactCache.packed_polar`), and
    ``candidates`` its stacked candidate pairs
    (:func:`~repro.kernels.batch.packed_candidates`), which every grid
    cell of the chunk shares.  The chunk is measured with one coverage
    launch per mask, one connectivity launch and one critical-range
    launch, over the concatenated antenna columns.

    Each instance then passes the certificates
    :func:`~repro.ensemble.trials.measure_columns` applies: its cutoff
    covers its largest antenna radius (so the radius mask is complete),
    and its critical range is ``0``, certified by
    :func:`~repro.kernels.sparse.certified_cutoff`, or an ``inf`` proved by
    a cut-off sensor (:func:`~repro.ensemble.trials.unperturbed_cut_off`)
    — unless the cutoff holds every pair of the instance, where every
    answer is exact.  An instance that fails is measured again by
    ``measure_columns`` on a :class:`PolarTables` view of its packed
    block, which widens the cutoff.  The values therefore equal
    :func:`orientation_metrics`' per instance, bit for bit.
    """
    # Lazy: avoids an import cycle.
    from repro.ensemble.trials import measure_columns, unperturbed_cut_off

    backend = active_backend()
    m = len(results)
    if m != tables.m:
        raise ValueError(f"{m} results for a chunk of {tables.m} instances")
    if m == 0:
        return []
    pairs, base = candidates.pairs, candidates.base

    columns = [result.assignment.flattened() for result in results]
    sensor_idx, start, spread, radius = (np.concatenate(col) for col in zip(*columns))
    # Each instance's sensors are its union vertices base[i]:base[i + 1].
    sensor_idx = sensor_idx + np.repeat(base[:-1], [c[0].shape[0] for c in columns])
    cover, cover_ang = trial_coverage(
        pairs, sensor_idx, start, spread, radius, eps=eps,
        angular_mask=compute_critical,
    )
    cover = cover[0]
    connected = stacked_connected(candidates, cover, mode=mode)
    # Instance i's pairs are pairs.indptr[base[i]] up to pairs.indptr[base[i + 1]].
    covered = np.concatenate([np.zeros(1, np.int64), np.cumsum(cover)])
    edges = np.diff(covered[pairs.indptr[base]])
    critical_abs = np.zeros(m)  # without critical ranges: 0.0, nothing to certify
    if compute_critical:
        critical_abs = stacked_critical(candidates, cover_ang[0], eps=eps, mode=mode)

    for i, result in enumerate(results):
        r_cut, radii = float(candidates.r_cut[i]), columns[i][3]
        need = required_cutoff(float(radii.max()), eps) if radii.size else 0.0
        value = float(critical_abs[i])
        if need <= r_cut and (value == 0.0 or certified_cutoff(value, 1.0, eps) <= r_cut):
            continue
        n = len(result.points)
        view = PolarTables(tables.dist[i, :n, :n], tables.ang[i, :n, :n])
        if required_cutoff(float(view.dist.max()), eps) <= r_cut:
            continue  # every pair is a candidate: exact as measured
        if need <= r_cut and np.isinf(value):
            lo, hi = pairs.indptr[base[i]], pairs.indptr[base[i + 1]]
            e = lo + np.flatnonzero(cover_ang[0, lo:hi])
            if unperturbed_cut_off(
                result.points.coords, view, *columns[i][:3],
                pairs.src[e] - base[i], pairs.indices[e] - base[i], eps=eps,
            ):
                continue  # a cut-off sensor proves the inf
        own_cover, own_connected, own_critical = measure_columns(
            result.points, view, *columns[i], lmax=result.lmax,
            want_critical=compute_critical, eps=eps, mode=mode,
        )
        edges[i] = np.count_nonzero(own_cover)
        connected[i] = own_connected[0]
        if compute_critical:
            critical_abs[i] = own_critical[0]

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
