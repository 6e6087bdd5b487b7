"""The replaced dense ensemble trial path, kept verbatim as an oracle.

``_measure_dense`` broadcast the instance's ``(n, n)`` polar tables into a
trials-as-instances packed chunk and ran the packed dense kernels on all
``n²`` pairs of every trial.  :mod:`repro.ensemble.trials` now measures
every backend through one candidate-pair path;
``tests/test_ensemble_oracles.py`` compares it with this code.
"""

from __future__ import annotations

import numpy as np

from repro.ensemble.trials import (
    TrialMeasurements,
    _realized_ranges,
    draw_trials,
)
from repro.kernels.batch import PackedPolarTables
from repro.kernels.instrument import COUNTERS
from repro.utils.rng import indexed_uniforms
from tests.kernels_reference import packed_connected, packed_coverage, packed_critical

_TWO_PI = 2.0 * np.pi


def _edge_fail_keep(seed: np.uint64, ids: np.ndarray, edge_fail: float) -> np.ndarray:
    """Survival mask of the directed pair ids for one trial."""
    return indexed_uniforms(seed, ids) >= edge_fail


def _alive_permutation(alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, counts)`` compacting each trial's alive sensors to the front.

    A stable argsort of ``~alive`` keeps alive sensors in index order, so
    the compacted block is a relabeling the packed connectivity/critical
    kernels (which assume vertices ``0..counts-1``) can consume directly.
    """
    perm = np.argsort(~alive, axis=1, kind="stable")
    counts = alive.sum(axis=1).astype(np.int64)
    return perm, counts


def measure_trials_reference(
    ps,
    tables,
    result,
    pert,
    key: str,
    instance_slot: int,
    trial_indices,
    *,
    cache=None,
    want_connectivity: bool = True,
    want_critical: bool = False,
    want_realized: bool = False,
    eps: float = 1e-9,
    mode: str = "strong",
) -> TrialMeasurements:
    """The replaced ``measure_trials`` on dense ``PolarTables`` (no sparse
    branch); same arguments and outputs."""
    trial_list = [int(t) for t in trial_indices]
    count = len(trial_list)
    n = len(ps)
    COUNTERS.ensemble_trials += count
    draws = draw_trials(key, instance_slot, trial_list, n, pert)
    realized = _realized_ranges(result, draws, count) if want_realized else None
    if count == 0 or not (want_connectivity or want_critical):
        empty = np.zeros(count, dtype=bool) if want_connectivity else None
        crit = np.zeros(count) if want_critical else None
        return TrialMeasurements(empty, crit, realized)

    sensor_idx, start, spread, radius = result.assignment.flattened()
    if draws.rotation is not None:
        start_t = np.mod(start[None, :] + draws.rotation[:, sensor_idx], _TWO_PI)
    else:
        start_t = np.broadcast_to(start, (count, start.shape[0]))
    if draws.fade is not None:
        radius_t = radius[None, :] * draws.fade[:, sensor_idx]
    else:
        radius_t = np.broadcast_to(radius, (count, radius.shape[0]))

    connected, critical = _measure_dense(
        tables, pert, draws, sensor_idx, start_t, spread, radius_t,
        want_connectivity=want_connectivity, want_critical=want_critical,
        eps=eps, mode=mode,
    )
    if critical is not None and result.lmax > 0:
        critical = critical / result.lmax
    return TrialMeasurements(connected, critical, realized)


def _measure_dense(
    tables, pert, draws, sensor_idx, start_t, spread, radius_t,
    *, want_connectivity, want_critical, eps, mode="strong",
):
    count, n = start_t.shape[0], tables.dist.shape[0]
    antennae = sensor_idx.shape[0]
    # Zero-copy trials-as-instances packing: every "instance" of the packed
    # chunk is a broadcast view of the same cached tables.
    packed = PackedPolarTables(
        np.broadcast_to(tables.dist, (count, n, n)),
        np.broadcast_to(tables.ang, (count, n, n)),
        np.full(count, n, dtype=np.int64),
    )
    inst_idx = np.repeat(np.arange(count, dtype=np.int64), antennae)
    sensor_f = np.tile(sensor_idx, count)
    spread_f = np.tile(spread, count)
    start_f = np.ascontiguousarray(start_t).ravel()
    radius_f = np.ascontiguousarray(radius_t).ravel()

    cover = packed_coverage(
        packed, inst_idx, sensor_f, start_f, spread_f, radius_f, eps=eps
    )
    cover_ang = None
    if want_critical:
        cover_ang = packed_coverage(
            packed, inst_idx, sensor_f, start_f, spread_f, radius_f,
            eps=eps, ignore_radius=True,
        )
    if pert.edge_fail > 0.0:
        ids = np.arange(n, dtype=np.uint64)[:, None] * np.uint64(n) + np.arange(
            n, dtype=np.uint64
        )
        for j in range(count):
            keep = _edge_fail_keep(draws.edge_seeds[j], ids, pert.edge_fail)
            cover[j] &= keep
            if cover_ang is not None:
                cover_ang[j] &= keep
    if draws.alive is not None:
        pair_alive = draws.alive[:, :, None] & draws.alive[:, None, :]
        cover &= pair_alive
        if cover_ang is not None:
            cover_ang &= pair_alive

    if draws.alive is not None:
        perm, counts = _alive_permutation(draws.alive)
        ti = np.arange(count)[:, None, None]
        rows = perm[:, :, None]
        cols = perm[:, None, :]
        cover = cover[ti, rows, cols]
        if cover_ang is not None:
            cover_ang = cover_ang[ti, rows, cols]
    else:
        counts = packed.counts

    connected = packed_connected(cover, counts, mode=mode) if want_connectivity else None
    critical = None
    if want_critical:
        if draws.fade is not None:
            dist_eff = tables.dist[None, :, :] / draws.fade[:, :, None]
            if mode == "symmetric":
                # A symmetric link needs BOTH directions under the radius;
                # fading makes the two effective distances differ, so the
                # pair is judged at the worse one.  Without fading the
                # matrix is already symmetric and this branch never runs.
                dist_eff = np.maximum(dist_eff, dist_eff.swapaxes(1, 2))
        else:
            dist_eff = np.broadcast_to(tables.dist, (count, n, n))
        if draws.alive is not None:
            dist_eff = dist_eff[
                np.arange(count)[:, None, None], perm[:, :, None], perm[:, None, :]
            ]
        eff = PackedPolarTables(dist_eff, dist_eff, counts)
        critical = packed_critical(eff, cover_ang, eps=eps, mode=mode)
    return connected, critical
