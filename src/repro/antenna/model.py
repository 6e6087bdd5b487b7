"""Per-sensor antenna assignments.

An :class:`AntennaAssignment` maps each sensor index to the
:class:`~repro.geometry.sectors.Sector` beams mounted on it.  It is the
common output format of every orientation algorithm in :mod:`repro.core`,
and the input to :func:`repro.antenna.coverage.transmission_graph`.

The beams are stored as four columns — sensor, start, spread, radius —
grouped by sensor, each sensor's beams in the order they were emitted.
Array-native constructions build the columns directly with
:meth:`AntennaAssignment.from_columns`; :meth:`~AntennaAssignment.add`
stays for the per-vertex builders.  ``flattened()``, ``counts()`` and
``spread_sums()`` read the columns; ``Sector`` objects are made only for
indexing and iteration.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.angles import TWO_PI, normalize_angle
from repro.geometry.sectors import Sector

__all__ = ["AntennaAssignment"]


def _check_columns(
    n: int, sensor: np.ndarray, spread: np.ndarray, radius: np.ndarray
) -> None:
    """:class:`Sector`'s and :meth:`AntennaAssignment.add`'s checks, per row.

    The first offending row (emission order) raises the error its own
    ``Sector(...)`` construction or ``add`` call would have raised.
    """
    bad_spread = ~(np.isfinite(spread) & (spread >= 0.0) & (spread <= TWO_PI + 1e-12))
    bad_radius = radius < 0
    bad_sensor = (sensor < 0) | (sensor >= n)
    bad = bad_spread | bad_radius | bad_sensor
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if bad_spread[i]:
        raise InvalidParameterError(
            f"sector spread must be in [0, 2*pi], got {float(spread[i])}"
        )
    if bad_radius[i]:
        raise InvalidParameterError(f"sector radius must be >= 0, got {float(radius[i])}")
    raise InvalidParameterError(f"sensor {int(sensor[i])} out of range (n={n})")


class AntennaAssignment:
    """Sectors per sensor, for ``n`` sensors indexed ``0..n-1``."""

    def __init__(self, n: int, sectors: Sequence[Sequence[Sector]] | None = None):
        if n < 0:
            raise InvalidParameterError(f"sensor count must be >= 0, got {n}")
        self.n = int(n)
        self._sensor = np.empty(0, dtype=np.int64)
        self._start = np.empty(0, dtype=float)
        self._spread = np.empty(0, dtype=float)
        self._radius = np.empty(0, dtype=float)
        self._offsets: np.ndarray | None = None
        # Beams mounted by ``add`` and not yet merged into the columns.
        self._pending: defaultdict[int, list[Sector]] = defaultdict(list)
        if sectors is not None:
            if len(sectors) != self.n:
                raise InvalidParameterError(
                    f"expected {self.n} sector lists, got {len(sectors)}"
                )
            for i, lst in enumerate(sectors):
                for s in lst:
                    self.add(i, s)

    # -- construction --------------------------------------------------------------
    @classmethod
    def from_columns(cls, n: int, sensor, start, spread, radius) -> "AntennaAssignment":
        """Build from per-antenna columns given in emission order.

        Equivalent to ``add(sensor[i], Sector(start[i], spread[i],
        radius[i]))`` for every row ``i`` in turn — the same checks, errors
        and normalisation — without making the ``Sector`` objects.
        ``start``, ``spread`` and ``radius`` broadcast against ``sensor``.
        """
        out = cls(n)
        sensor = np.asarray(sensor, dtype=np.int64).reshape(-1)
        m = sensor.size
        start, spread, radius = (
            np.broadcast_to(np.asarray(col, dtype=float), (m,))
            for col in (start, spread, radius)
        )
        _check_columns(out.n, sensor, spread, radius)
        if m > 1 and np.any(sensor[1:] < sensor[:-1]):
            order = np.argsort(sensor, kind="stable")
            sensor, start, spread, radius = (
                col[order] for col in (sensor, start, spread, radius)
            )
        out._sensor = sensor.copy()
        out._start = np.asarray(normalize_angle(start), dtype=float).reshape(m)
        out._spread = np.minimum(spread, TWO_PI)
        out._radius = radius.copy()
        return out

    def add(self, sensor: int, sector: Sector) -> None:
        """Mount ``sector`` on ``sensor``."""
        if not 0 <= sensor < self.n:
            raise InvalidParameterError(f"sensor {sensor} out of range (n={self.n})")
        if not isinstance(sector, Sector):
            raise InvalidParameterError(f"expected a Sector, got {type(sector).__name__}")
        self._pending[int(sensor)].append(sector)

    def extend(self, sensor: int, sectors: Iterable[Sector]) -> None:
        for s in sectors:
            self.add(sensor, s)

    def _merge_pending(self) -> None:
        """Append the ``add``-ed beams to the columns, keeping them grouped."""
        if not self._pending:
            return
        sensors = sorted(self._pending)
        beams = [s for i in sensors for s in self._pending[i]]
        counts = [len(self._pending[i]) for i in sensors]
        self._pending.clear()
        sensor = np.concatenate(
            [self._sensor, np.repeat(np.asarray(sensors, dtype=np.int64), counts)]
        )
        order = np.argsort(sensor, kind="stable")
        self._sensor = sensor[order]
        self._start, self._spread, self._radius = (
            np.concatenate(
                [old, np.fromiter((getattr(s, f) for s in beams), float, len(beams))]
            )[order]
            for old, f in (
                (self._start, "start"), (self._spread, "spread"), (self._radius, "radius")
            )
        )
        self._offsets = None

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        self._merge_pending()
        return self._sensor, self._start, self._spread, self._radius

    def _row_offsets(self) -> np.ndarray:
        """``(n + 1,)`` row offsets of each sensor's beams in the columns."""
        if self._offsets is None:
            self._offsets = np.concatenate(
                [[0], np.cumsum(np.bincount(self._sensor, minlength=self.n))]
            ).astype(np.int64)
        return self._offsets

    # -- access -----------------------------------------------------------------
    def __getitem__(self, sensor: int) -> list[Sector]:
        sensor = range(self.n)[sensor]
        out = list(self._pending.get(sensor, ()))
        if self._sensor.size:
            lo, hi = self._row_offsets()[sensor : sensor + 2].tolist()
            out[:0] = map(
                Sector,
                self._start[lo:hi].tolist(),
                self._spread[lo:hi].tolist(),
                self._radius[lo:hi].tolist(),
            )
        return out

    def __iter__(self) -> Iterator[tuple[int, Sector]]:
        sensor, start, spread, radius = self._columns()
        for i, a, b, r in zip(
            sensor.tolist(), start.tolist(), spread.tolist(), radius.tolist()
        ):
            yield i, Sector(a, b, r)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"AntennaAssignment(n={self.n}, antennae={self.total_antennae()}, "
            f"max_per_node={int(self.counts().max()) if self.n else 0})"
        )

    def counts(self) -> np.ndarray:
        """Number of antennae per sensor."""
        self._merge_pending()
        return np.diff(self._row_offsets())

    def total_antennae(self) -> int:
        return int(self._columns()[0].size)

    def spread_sums(self) -> np.ndarray:
        """Sum of sector spreads per sensor (the paper's per-node angle sum).

        Each sensor's spreads are added one at a time in emission order,
        as ``sum(s.spread for s in assignment[i])`` would.
        """
        spread = self._columns()[2]
        first = self._row_offsets()[:-1]
        counts = self.counts()
        sums = np.zeros(self.n, dtype=float)
        for r in range(int(counts.max()) if self.n else 0):
            has = np.flatnonzero(counts > r)
            sums[has] += spread[first[has] + r]
        return sums

    def max_spread_sum(self) -> float:
        sums = self.spread_sums()
        return float(sums.max()) if sums.size else 0.0

    def max_radius(self) -> float:
        radius = self._columns()[3]
        return float(radius.max()) if radius.size else 0.0

    # -- transforms -----------------------------------------------------------------
    def with_uniform_radius(self, radius: float) -> "AntennaAssignment":
        """Copy with every sector's radius replaced by ``radius``."""
        sensor, start, spread, _ = self._columns()
        return AntennaAssignment.from_columns(self.n, sensor, start, spread, radius)

    def flattened(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(sensor_idx, start, spread, radius)`` flat arrays over all antennae."""
        return tuple(col.copy() for col in self._columns())  # type: ignore[return-value]
