"""Batched Monte-Carlo trial measurement over cached candidate pairs.

A trial never rebuilds geometry: it is a *mask and rescale* of the
instance's cached candidate pairs, the directed point pairs within a
cutoff held as one CSR :class:`~repro.kernels.sparse.SparsePolarTables`.
:func:`measure_columns` is the one measurement loop: :func:`measure_trials`
runs it on a chunk of perturbed trials, and
:func:`~repro.analysis.metrics.orientation_metrics` on one unperturbed
trial.  Every backend measures through the same path:

* **Candidate pairs.**  Under ``sparse``/``auto`` routing the instance
  artifact already is that CSR, at
  :func:`~repro.kernels.sparse.default_instance_cutoff`.  Under dense
  routing the CSR at the same cutoff is derived from the cached dense
  :class:`~repro.kernels.geometry.PolarTables`
  (:func:`~repro.kernels.sparse.dense_candidate_tables`): each pair keeps
  its exact float values, and no kd-tree is built.  A wider table comes
  through the :class:`~repro.engine.cache.ArtifactCache`, on a doubling
  ladder of cutoffs, only when a chunk's faded radii or a trial's
  certificate needs it.  A deterministic measurement passes no cache:
  its wider tables stay outside the counted cache entries, so the cache
  deltas a sweep or frontier ledgers are those of its instance artifacts.
* **Hoisting.**  Rotation decides whether the angular test varies per
  trial; fading decides whether the radius test does.
  :func:`~repro.kernels.sparse.trial_coverage` evaluates the
  trial-invariant factor once per chunk and the other only on the
  (antenna, edge) entries that pass it, with the dense kernel's
  elementwise expressions.
* **One launch per chunk** for each kernel: one coverage launch per mask,
  one block-diagonal union connectivity launch
  (:func:`~repro.kernels.sparse.trial_connected`) and one critical-range
  launch (:func:`~repro.kernels.sparse.trial_critical`).
* **Exactness.**  The radius mask is complete once the cutoff covers the
  largest faded radius (an infinite radius forces the complete cutoff),
  so connectivity is exact in one pass.  A finite critical range is
  certified when every pair its accepting probe can use lies under the
  cutoff.  An ``inf`` one is certified when some alive vertex has no
  surviving angularly-covered out-edge to (or in-edge from) any other
  point, at any distance, after node and edge failures: that vertex is
  cut off at every radius, in symmetric mode too.  Only the trials still
  uncertified are re-measured on a wider cutoff (counted in
  ``rcut_widenings``), up to the complete cutoff where every answer is
  exact.  Every result therefore equals the dense ``n²`` computation bit
  for bit.

Randomness is drawn from counter-based streams keyed by
``(run key, instance slot, trial index)`` — see :func:`draw_trials` — and
edge failures from the random-access table
:func:`repro.utils.rng.indexed_uniforms` keyed by the directed pair id
``u·n + v``.  Only covered candidate pairs are ever evaluated, yet every
pair's draw is the one a full ``n²`` evaluation would see, so backend
routing, sharding, resume order and cutoff widening never change a trial's
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.angles import angle_of
from repro.geometry.points import PointSet
from repro.kernels.connectivity import validate_mode
from repro.kernels.geometry import PolarTables
from repro.kernels.instrument import COUNTERS
from repro.kernels.sparse import (
    _EDGE_BLOCK_ELEMS,
    SparsePolarTables,
    _angular_ok,
    certified_cutoff,
    complete_cutoff,
    default_instance_cutoff,
    dense_candidate_tables,
    required_cutoff,
    sparse_polar_tables,
    trial_connected,
    trial_coverage,
    trial_critical,
)
from repro.utils.rng import counter_rng, indexed_uniforms, stable_seed

__all__ = [
    "TrialDraws",
    "TrialMeasurements",
    "draw_trials",
    "measure_trials",
    "measure_columns",
    "unperturbed_cut_off",
]

_TWO_PI = 2.0 * np.pi


@dataclass
class TrialDraws:
    """The random state of a chunk of trials (``None`` = perturbation off).

    Shapes are ``(T, n)`` over trials × sensors.  ``edge_seeds`` holds one
    :func:`~repro.utils.rng.indexed_uniforms` seed per trial; the failure
    draw of directed pair ``(u, v)`` lives at index ``u·n + v`` of that
    trial's virtual table, independent of which pairs ever get evaluated.
    """

    rotation: np.ndarray | None
    fade: np.ndarray | None
    alive: np.ndarray | None
    edge_seeds: np.ndarray


def draw_trials(key: str, instance_slot: int, trial_indices, n: int, pert) -> TrialDraws:
    """Materialize the perturbation draws of the given global trial indices.

    Per trial, the draw order within the stream
    ``counter_rng(key, slot, trial)`` is fixed: rotation uniforms (n), fade
    normals (n), knockout uniforms (n) — each drawn only when its
    perturbation is active, which is deterministic because the
    perturbation is part of the fingerprinted request identity.
    """
    trial_indices = [int(t) for t in trial_indices]
    count = len(trial_indices)
    rotation = np.zeros((count, n)) if pert.rotate else None
    fade = np.ones((count, n)) if pert.fade_sigma > 0.0 else None
    alive = np.ones((count, n), dtype=bool) if pert.node_fail > 0.0 else None
    edge_seeds = np.zeros(count, dtype=np.uint64)
    for j, t in enumerate(trial_indices):
        rng = counter_rng(key, int(instance_slot), t)
        if rotation is not None:
            rotation[j] = rng.uniform(0.0, _TWO_PI, n)
        if fade is not None:
            fade[j] = np.exp(pert.fade_sigma * rng.standard_normal(n))
        if alive is not None:
            alive[j] = rng.uniform(size=n) >= pert.node_fail
        edge_seeds[j] = np.uint64(stable_seed(key, int(instance_slot), t, "edges"))
    return TrialDraws(rotation, fade, alive, edge_seeds)


@dataclass
class TrialMeasurements:
    """Per-trial observables of one chunk (``None`` = not requested).

    ``critical`` and ``realized`` are in lmax units — the same
    normalization :class:`~repro.analysis.metrics.OrientationMetrics`
    reports and :class:`~repro.engine._spec.FrontierRequest` targets use,
    so ensemble quantile targets are directly comparable to deterministic
    frontier targets.  ``critical`` is ``inf`` when a trial's surviving
    network is deficient at every radius.
    """

    connected: np.ndarray | None
    critical: np.ndarray | None
    realized: np.ndarray | None


def _edge_fail_keep(seed: np.uint64, ids: np.ndarray, edge_fail: float) -> np.ndarray:
    """Survival mask of the directed pair ids for one trial."""
    return indexed_uniforms(seed, ids) >= edge_fail


def _realized_ranges(result, draws: TrialDraws, count: int) -> np.ndarray:
    """Per-trial realized range (lmax units): the nominal uniform radius at
    which every intended edge works despite the fading — knockouts and edge
    failures do not change what the construction *intended* to build."""
    edges = result.intended_edges
    if edges.size == 0 or count == 0:
        return np.zeros(count)
    c = result.points.coords
    diff = c[edges[:, 0]] - c[edges[:, 1]]
    d = np.hypot(diff[:, 0], diff[:, 1])
    if draws.fade is not None:
        required = (d[None, :] / draws.fade[:, edges[:, 0]]).max(axis=1)
    else:
        required = np.full(count, float(d.max()))
    if result.lmax > 0:
        required = required / result.lmax
    return required


def measure_trials(
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
    """Measure one chunk of trials of one oriented instance.

    ``tables`` is the instance's cached dense :class:`PolarTables` or
    sparse :class:`SparsePolarTables` (whichever
    :func:`~repro.engine.executor.instance_artifacts` returned); ``result``
    is the deterministic :class:`~repro.core.result.OrientationResult` the
    perturbation is applied to.  ``cache`` keeps the candidate tables and
    their widenings across chunks; without one they are built per call.
    ``mode`` selects the per-trial connectivity objective; under
    ``"symmetric"`` a link works only when both directions survive the
    perturbation, so fading (which skews the two directions' effective
    distances apart) is judged at the pair's *worse* direction.
    """
    trial_list = [int(t) for t in trial_indices]
    count = len(trial_list)
    COUNTERS.ensemble_trials += count
    draws = draw_trials(key, instance_slot, trial_list, len(ps), pert)
    realized = _realized_ranges(result, draws, count) if want_realized else None
    if count == 0 or not (want_connectivity or want_critical):
        empty = np.zeros(count, dtype=bool) if want_connectivity else None
        crit = np.zeros(count) if want_critical else None
        return TrialMeasurements(empty, crit, realized)

    _, connected, critical = measure_columns(
        ps, tables, *result.assignment.flattened(), lmax=result.lmax,
        draws=draws, edge_fail=pert.edge_fail, cache=cache,
        want_connectivity=want_connectivity, want_critical=want_critical,
        eps=eps, mode=mode,
    )
    if critical is not None and result.lmax > 0:
        critical = critical / result.lmax
    return TrialMeasurements(connected, critical, realized)


def measure_columns(
    points,
    tables,
    sensor_idx: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    radius: np.ndarray,
    *,
    lmax: float = 0.0,
    draws: TrialDraws | None = None,
    edge_fail: float = 0.0,
    cache=None,
    want_connectivity: bool = True,
    want_critical: bool = True,
    eps: float = 1e-9,
    mode: str = "strong",
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Measure one antenna set under a chunk of trial draws: the one loop.

    ``points`` is the instance (a :class:`~repro.geometry.points.PointSet`
    or raw ``(n, 2)`` coordinates) and the columns are its antennae's
    :meth:`~repro.antenna.model.AntennaAssignment.flattened` columns.
    ``draws`` perturbs them per trial; ``None`` is one unperturbed trial,
    which is how :func:`~repro.analysis.metrics.orientation_metrics`
    measures a deterministic result.  The candidate pairs come from
    ``tables``, the only difference between routes: derived from dense
    :class:`PolarTables`, starting at
    :func:`~repro.kernels.sparse.default_instance_cutoff` of ``lmax``; or
    a kd-tree artifact (:class:`SparsePolarTables`), starting at its own
    cutoff and rebuilt wider when needed; or, with ``tables=None``, kd-tree
    tables built here, starting at the cutoff the radii require.

    Returns ``(cover, connected, critical)`` per trial: the ``(T, m)``
    radius mask over the candidate pairs (its row sums are the directed
    transmission-edge counts), connectivity under ``mode``, and the
    absolute critical range; ``None`` where not wanted.
    """
    validate_mode(mode)
    coords = points.coords if isinstance(points, PointSet) else np.asarray(points, float)
    n = coords.shape[0]
    if tables is not None and tables.n != n:
        raise ValueError(f"tables are for n={tables.n}, point set has n={n}")
    if draws is None:
        draws = TrialDraws(None, None, None, np.zeros(1, dtype=np.uint64))
    count = draws.edge_seeds.shape[0]
    if draws.rotation is not None:
        start = np.mod(start[None, :] + draws.rotation[:, sensor_idx], _TWO_PI)
    if draws.fade is not None:
        radius = radius[None, :] * draws.fade[:, sensor_idx]
    if draws.alive is None:
        counts, relabel = np.full(count, n, dtype=np.int64), None
    else:
        counts = draws.alive.sum(axis=1).astype(np.int64)
        relabel = np.cumsum(draws.alive, axis=1) - 1
    chunk = _Chunk(points, coords, tables, cache, draws, edge_fail, sensor_idx,
                   start, spread, radius, eps)

    cap = complete_cutoff(coords, eps)
    if isinstance(tables, SparsePolarTables):
        base = tables.r_cut
    elif tables is None:
        base = 0.0  # nothing built yet: start where the radii need
    else:
        base = default_instance_cutoff(lmax, eps)
    if not np.isfinite(radius).all():
        # An unbounded antenna covers arbitrarily distant points in its
        # wedge: only the complete candidate set reproduces its edges.
        need = cap
    else:
        need = required_cutoff(float(radius.max()), eps) if radius.size else 0.0
    cand = chunk.candidates(_rung(base, need, cap))

    rows = np.arange(count)
    cover, cover_ang = chunk.masks(cand, rows, radius_mask=want_connectivity,
                                   angular_mask=want_critical)
    connected = None
    if want_connectivity:
        connected = trial_connected(cand, cover, counts, relabel, mode=mode)
    critical = None
    if want_critical:
        critical = np.empty(count)
        while True:
            values = trial_critical(
                cand, cover_ang, counts[rows],
                None if relabel is None else relabel[rows],
                None if draws.fade is None else draws.fade[rows],
                mode=mode, eps=eps,
            )
            critical[rows] = values
            reach = chunk.uncertified(cand, cover_ang, rows, values, cap)
            rows = rows[reach > 0.0]
            if rows.size == 0:
                break
            COUNTERS.rcut_widenings += 1
            cand = chunk.candidates(_rung(cand.r_cut, float(reach.max()), cap))
            _, cover_ang = chunk.masks(cand, rows, radius_mask=False,
                                       angular_mask=True)
    return cover, connected, critical


def unperturbed_cut_off(
    coords: np.ndarray,
    tables: PolarTables,
    sensor_idx: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    eps: float = 1e-9,
) -> bool:
    """The ``inf`` certificate :func:`measure_columns` applies, for one
    unperturbed antenna set on dense ``tables``.

    ``src → dst`` are the edges of its angular mask over candidate pairs.
    True when some vertex is cut off at every radius, so an ``inf``
    critical range measured on those pairs is exact.
    """
    draws = TrialDraws(None, None, None, np.zeros(1, dtype=np.uint64))
    chunk = _Chunk(None, coords, tables, None, draws, 0.0, sensor_idx, start,
                   spread, None, eps)
    return chunk._cut_off(src, dst, 0)


def _rung(r_cut: float, need: float, cap: float) -> float:
    """The cutoff to fetch: ``r_cut`` doubled until it covers ``need``,
    at most ``cap``.  Doubling keeps an instance to a few cached cutoffs,
    however many chunks and threshold probes ask; from no cutoff at all
    the ladder starts at ``need``."""
    need = min(need, cap)
    if need <= r_cut:
        return r_cut
    if r_cut <= 0.0:
        return need
    while r_cut < need:
        r_cut *= 2.0
    return min(r_cut, cap)


@dataclass
class _Chunk:
    """One chunk's antenna columns, draws and instance artifacts.

    ``start``/``radius`` are ``(a,)`` when every trial shares them, else
    ``(T, a)``.  ``ps`` is the instance as the caller named it (the
    cache's key), ``coords`` its coordinate array.
    """

    ps: object
    coords: np.ndarray
    tables: object
    cache: object
    draws: TrialDraws
    edge_fail: float
    sensor_idx: np.ndarray
    start: np.ndarray
    spread: np.ndarray
    radius: np.ndarray
    eps: float

    def candidates(self, r_cut: float) -> SparsePolarTables:
        """The instance's candidate pairs within ``r_cut``, through the cache."""
        tables, cache = self.tables, self.cache
        if isinstance(tables, PolarTables):
            if cache is None:
                return dense_candidate_tables(tables, r_cut)
            return cache.dense_candidates(self.ps, tables, r_cut)
        if tables is not None and r_cut <= tables.r_cut:
            return tables
        if cache is None:
            return sparse_polar_tables(self.coords, r_cut)
        return cache.sparse_polar(self.ps, r_cut)

    def masks(self, cand, rows, *, radius_mask: bool, angular_mask: bool):
        """Surviving covered-edge masks ``(cover, cover_ang)`` of trials ``rows``."""
        cover, cover_ang = trial_coverage(
            cand, self.sensor_idx,
            self.start[rows] if self.start.ndim == 2 else self.start,
            self.spread,
            self.radius[rows] if self.radius.ndim == 2 else self.radius,
            trials=rows.shape[0], eps=self.eps,
            radius_mask=radius_mask, angular_mask=angular_mask,
        )
        # The radius mask is a subset of the angular one: draw the
        # failures once, on the larger mask.
        self._fail(cand, cover if cover_ang is None else cover_ang, rows)
        if cover is not None and cover_ang is not None:
            cover &= cover_ang
        return cover, cover_ang

    def _fail(self, cand, mask, rows) -> None:
        """AND node and edge survival into ``mask`` (one row per trial of
        ``rows``), drawing only on its covered entries, in blocks of
        ``_EDGE_BLOCK_ELEMS``."""
        alive, n, m = self.draws.alive, cand.n, cand.m
        if (alive is None and self.edge_fail <= 0.0) or m == 0:
            return
        flat = mask.reshape(-1)
        for lo in range(0, flat.shape[0], _EDGE_BLOCK_ELEMS):
            f = lo + np.flatnonzero(flat[lo : lo + _EDGE_BLOCK_ELEMS])
            j, e = np.divmod(f, m)
            t = rows[j]
            src, dst = cand.src[e], cand.indices[e]
            keep = np.ones(f.shape[0], dtype=bool)
            if alive is not None:
                keep = alive[t, src] & alive[t, dst]
            if self.edge_fail > 0.0:
                ids = src.astype(np.uint64) * np.uint64(n) + dst.astype(np.uint64)
                keep &= _edge_fail_keep(self.draws.edge_seeds[t], ids, self.edge_fail)
            flat[f[~keep]] = False

    def uncertified(self, cand, cover_ang, rows, values, cap) -> np.ndarray:
        """Per trial, the cutoff its critical range still needs (0 = certified)."""
        need = np.zeros(rows.shape[0])
        if cand.r_cut >= cap:
            return need
        fade = self.draws.fade
        for j, t in enumerate(rows):
            value = float(values[j])
            if value == 0.0:
                continue
            if np.isfinite(value):
                scale = 1.0 if fade is None else float(fade[t].max())
                reach = certified_cutoff(value, scale, self.eps)
                if reach > cand.r_cut:
                    need[j] = reach
            else:
                e = np.flatnonzero(cover_ang[j])
                if not self._cut_off(cand.src[e], cand.indices[e], t):
                    need[j] = 2.0 * cand.r_cut if cand.r_cut > 0.0 else cap
        return need

    def _cut_off(self, src, dst, t) -> bool:
        """Is some alive vertex without any surviving angularly-covered
        out-edge to, or in-edge from, any other point at any distance?

        Such a vertex is cut off at every radius, so the trial's ``inf`` is
        exact, in symmetric mode too.  Candidates are the alive vertices
        with no surviving out- (in-) edge among ``src → dst``, the edges of
        the trial's angular mask at the cutoff; each is then tested against
        every point with the coverage kernel's expressions and the trial's
        failure draws.
        """
        n, alive = self.coords.shape[0], self.draws.alive
        for inward, ends in ((False, src), (True, dst)):
            lonely = np.bincount(ends, minlength=n) == 0
            if alive is not None:
                lonely &= alive[t]
            for w in np.flatnonzero(lonely):
                if not self._links(int(w), inward, t):
                    return True
        return False

    def _links(self, w: int, inward: bool, t) -> bool:
        """Does ``w`` keep a surviving angularly-covered link out to (or,
        ``inward``, in from) any other point?"""
        n, eps = self.coords.shape[0], self.eps
        if inward:  # every antenna, aimed at w
            ants = np.arange(self.sensor_idx.shape[0])
            src, dst = self.sensor_idx, np.full(ants.shape[0], w)
        else:  # w's antennas, aimed at every point
            own = np.flatnonzero(self.sensor_idx == w)
            ants = np.repeat(own, n)
            src, dst = np.full(ants.shape[0], w), np.tile(np.arange(n), own.shape[0])
        if isinstance(self.tables, PolarTables):
            dist, ang = self.tables.dist[src, dst], self.tables.ang[src, dst]
        else:
            off = self.coords[dst] - self.coords[src]
            dist, ang = np.hypot(off[:, 0], off[:, 1]), angle_of(off)
            COUNTERS.trig_evals += int(src.shape[0])
        start = self.start[t] if self.start.ndim == 2 else self.start
        spread = self.spread[ants]
        hit = _angular_ok(ang, start[ants], spread, spread >= _TWO_PI - eps, eps)
        hit &= dist > 0.0
        if self.draws.alive is not None:
            hit &= self.draws.alive[t, src] & self.draws.alive[t, dst]
        e = np.flatnonzero(hit)
        if e.shape[0] and self.edge_fail > 0.0:
            ids = src[e].astype(np.uint64) * np.uint64(n) + dst[e].astype(np.uint64)
            e = e[_edge_fail_keep(self.draws.edge_seeds[t], ids, self.edge_fail)]
        return e.shape[0] > 0
