"""Circular-sector model of a directional antenna beam.

A :class:`Sector` is the closed region swept counterclockwise from direction
``start`` through ``start + spread``, restricted to radius ``radius``, with
apex at some point (the apex is *not* stored here — the antenna model in
:mod:`repro.antenna.model` binds sectors to sensor indices; a bare Sector is
apex-relative).

Spread 0 is a single ray (the paper's "antennae of angle 0"): it covers
exactly the points lying on the ray within range, up to epsilon tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.angles import (
    TWO_PI,
    angle_of,
    bisector,
    ccw_angle,
    in_ccw_interval,
    normalize_angle,
)

__all__ = [
    "Sector",
    "sectors_cover",
    "sector_between",
    "sector_toward",
    "radius_tolerance",
    "DEFAULT_ANGLE_EPS",
]

#: Absolute angular tolerance (radians) for boundary-inclusive coverage.
DEFAULT_ANGLE_EPS = 1e-9


def radius_tolerance(radius, eps: float = DEFAULT_ANGLE_EPS):
    """The distance tolerance used by every radius-inclusion test.

    Scales with the radius (``eps * max(1, r)``) so coverage is robust at
    any instance scale; an infinite radius contributes no scaling.  This is
    the single source of truth shared by :meth:`Sector.covers_offsets`, the
    batched coverage kernel and the critical-range search — their ``eps``
    semantics must agree or the measured critical range would not be the
    radius at which coverage switches on.  Vectorized over ``radius``.
    """
    r = np.asarray(radius, dtype=float)
    out = eps * np.maximum(1.0, np.where(np.isfinite(r), r, 1.0))
    return float(out) if np.ndim(radius) == 0 else out


@dataclass(frozen=True)
class Sector:
    """A closed circular sector: ccw from ``start`` spanning ``spread``.

    Attributes
    ----------
    start:
        Direction (radians) of the clockwise-most boundary ray.
    spread:
        Angular width in ``[0, 2π]``.  ``spread == 2π`` is omnidirectional.
    radius:
        Maximum reach; ``inf`` means unbounded (useful for pure angular
        containment tests).
    """

    start: float
    spread: float
    radius: float = np.inf

    def __post_init__(self) -> None:
        if not np.isfinite(self.spread) or not (0.0 <= self.spread <= TWO_PI + 1e-12):
            raise InvalidParameterError(f"sector spread must be in [0, 2*pi], got {self.spread}")
        if self.radius < 0:
            raise InvalidParameterError(f"sector radius must be >= 0, got {self.radius}")
        object.__setattr__(self, "start", float(normalize_angle(self.start)))
        object.__setattr__(self, "spread", float(min(self.spread, TWO_PI)))

    # -- derived geometry ------------------------------------------------------
    @property
    def end(self) -> float:
        """Direction of the counterclockwise-most boundary ray."""
        return float(normalize_angle(self.start + self.spread))

    @property
    def orientation(self) -> float:
        """Bisector direction (the antenna's "boresight")."""
        return bisector(self.start, self.spread)

    # -- queries ------------------------------------------------------------------
    def contains_direction(self, theta, *, eps: float = DEFAULT_ANGLE_EPS):
        """Angular containment test; vectorized over ``theta``."""
        return in_ccw_interval(theta, self.start, self.spread, eps=eps)

    def covers_offsets(
        self, offsets: np.ndarray, *, eps: float = DEFAULT_ANGLE_EPS
    ) -> np.ndarray:
        """Which apex-relative 2-D ``offsets`` does the sector cover?

        The apex itself (offset ``(0, 0)``) is *not* covered: a sensor never
        has an edge to itself.  Distance tolerance scales with the radius so
        the test is robust at any instance scale.
        """
        return sectors_cover(self.start, self.spread, self.radius, offsets, eps=eps)

    def covers_point(self, apex, point, *, eps: float = DEFAULT_ANGLE_EPS) -> bool:
        """Does a sector with the given ``apex`` cover ``point``?"""
        off = np.asarray(point, dtype=float) - np.asarray(apex, dtype=float)
        return bool(self.covers_offsets(off[None, :], eps=eps)[0])

    def with_radius(self, radius: float) -> "Sector":
        """Copy of this sector with a different radius."""
        return Sector(self.start, self.spread, radius)

    def rotated(self, delta: float) -> "Sector":
        """Copy rotated ccw by ``delta`` radians."""
        return Sector(self.start + delta, self.spread, self.radius)


def sectors_cover(
    start, spread, radius, offsets, *, eps: float = DEFAULT_ANGLE_EPS
) -> np.ndarray:
    """Does sector ``i`` cover apex-relative offset ``offsets[i]``?

    The test of :meth:`Sector.covers_offsets`, vectorized over the sectors
    too: ``start``, ``spread`` and ``radius`` are columns (or scalars)
    broadcast against the offsets' leading shape.  The apex itself is never
    covered; the angular test is :func:`in_ccw_interval`'s, boundary
    inclusive, with every sector of spread ``>= 2π − eps`` omnidirectional.
    """
    off = np.asarray(offsets, dtype=float)
    dist = np.hypot(off[..., 0], off[..., 1])
    within = dist <= radius + radius_tolerance(radius, eps)
    rel = ccw_angle(start, angle_of(off))
    ang = (spread >= TWO_PI - eps) | (rel <= spread + eps) | (rel >= TWO_PI - eps)
    return within & (dist > 0.0) & ang


def sector_between(
    apex, point_a, point_b, *, radius: float = np.inf, pad: float = 0.0
) -> Sector:
    """Smallest sector at ``apex`` sweeping ccw from ray→``point_a`` to ray→``point_b``.

    This is the construction used throughout Theorem 3's proof: "one antenna
    covers the sector between rays ``~ua`` and ``~ub``".  Both boundary rays
    (hence both points, if within radius) are covered.  ``pad`` widens the
    sector symmetrically by ``pad/2`` per side for numerical headroom.
    """
    apex = np.asarray(apex, dtype=float)
    a = angle_of(np.asarray(point_a, dtype=float) - apex)
    b = angle_of(np.asarray(point_b, dtype=float) - apex)
    sweep = float(ccw_angle(a, b))
    if pad:
        return Sector(a - pad / 2.0, min(sweep + pad, TWO_PI), radius)
    return Sector(a, sweep, radius)


def sector_toward(apex, point, *, spread: float = 0.0, radius: float = np.inf) -> Sector:
    """Sector centred on the ray from ``apex`` to ``point``.

    With the default ``spread=0`` this is the paper's angle-0 antenna aimed
    at a specific sensor.
    """
    apex = np.asarray(apex, dtype=float)
    direction = angle_of(np.asarray(point, dtype=float) - apex)
    return Sector(direction - spread / 2.0, spread, radius)
