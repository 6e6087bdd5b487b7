"""Content-addressed cache for per-instance geometric artifacts.

Planning one instance at several ``(k, φ)`` cells repeats the same expensive
preprocessing: validating the :class:`PointSet`, building the degree-≤5
Euclidean MST, the dense pairwise-distance matrix, and the kernel layer's
``(n, n)`` polar angle/distance tables (the trig every coverage matrix and
critical-range search reads from).  :class:`ArtifactCache` keys all of them
on a SHA-256 hash of the raw coordinate bytes, so every cell of a sweep
after the first is a cache hit — one EMST build and one trig pass per
instance, regardless of grid size.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.points import PointSet, pairwise_distances
from repro.kernels import backend as kernel_backend
from repro.kernels.batch import BatchedInstances, PackedPolarTables
from repro.kernels.geometry import PolarTables, polar_tables
from repro.kernels.sparse import (
    SparsePolarTables,
    dense_candidate_tables,
    sparse_polar_tables,
)
from repro.spanning.emst import SpanningTree, euclidean_mst

__all__ = ["content_hash", "CacheStats", "ArtifactCache"]


def content_hash(coords) -> str:
    """SHA-256 of an ``(n, 2)`` coordinate array's shape and exact bytes.

    Hashes the float64 bit patterns (no rounding): two arrays share a key
    iff they are bit-identical, which is the only equality under which
    reusing a spanning tree is sound.
    """
    arr = coords.coords if isinstance(coords, PointSet) else np.asarray(coords, float)
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    h = hashlib.sha256()
    h.update(str(arr.shape).encode("ascii"))
    h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss and build counters (builds ≤ misses: artifacts are lazy)."""

    hits: int = 0
    misses: int = 0
    pointset_builds: int = 0
    tree_builds: int = 0
    distance_builds: int = 0
    polar_builds: int = 0
    sparse_polar_builds: int = 0
    evictions: int = 0

    def merge(self, other: "CacheStats") -> None:
        """Fold another cache's counters into this one (parallel workers)."""
        self.hits += other.hits
        self.misses += other.misses
        self.pointset_builds += other.pointset_builds
        self.tree_builds += other.tree_builds
        self.distance_builds += other.distance_builds
        self.polar_builds += other.polar_builds
        self.sparse_polar_builds += other.sparse_polar_builds
        self.evictions += other.evictions

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "pointset_builds": self.pointset_builds,
            "tree_builds": self.tree_builds,
            "distance_builds": self.distance_builds,
            "polar_builds": self.polar_builds,
            "sparse_polar_builds": self.sparse_polar_builds,
            "evictions": self.evictions,
        }

    _FIELDS = (
        "hits", "misses", "pointset_builds", "tree_builds",
        "distance_builds", "polar_builds", "sparse_polar_builds",
        "evictions",
    )

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        """Rebuild stats from :meth:`as_dict` output, tolerantly.

        Unknown keys (counters added by a future version whose ledger we
        are replaying) are ignored instead of raising ``TypeError`` —
        part of the ledger forward-compatibility contract.
        """
        return cls(**{k: int(data[k]) for k in cls._FIELDS if k in data})


@dataclass
class _Entry:
    pointset: PointSet
    tree: SpanningTree | None = None
    distances: np.ndarray | None = None
    polar: PolarTables | None = None
    #: Radius-bounded candidate tables, keyed by their cutoff: a sweep's
    #: grid cells share one default-cutoff artifact, while the widening
    #: loop's larger rebuilds coexist without clobbering it.
    sparse: dict[float, SparsePolarTables] = field(default_factory=dict)
    #: The same CSR derived from ``polar`` (dense-routed ensemble trials),
    #: keyed by cutoff.
    candidates: dict[float, SparsePolarTables] = field(default_factory=dict)


@dataclass
class ArtifactCache:
    """LRU cache of per-instance artifacts, keyed by coordinate content hash.

    Parameters
    ----------
    maxsize:
        Maximum number of *instances* kept (None = unbounded).  A sweep
        touching instances in plan order only ever needs one live entry per
        concurrently-processed instance, so small bounds are safe.
    """

    maxsize: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: "OrderedDict[str, _Entry]" = field(default_factory=OrderedDict, repr=False)

    def __len__(self) -> int:
        return len(self._entries)

    def _entry(self, coords) -> _Entry:
        key = content_hash(coords)
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.stats.misses += 1
        if isinstance(coords, PointSet):
            ps = coords
        else:
            ps = PointSet(coords)
            self.stats.pointset_builds += 1
        entry = _Entry(pointset=ps)
        self._entries[key] = entry
        if self.maxsize is not None and len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry

    def pointset(self, coords) -> PointSet:
        """The validated :class:`PointSet` for ``coords`` (built once)."""
        return self._entry(coords).pointset

    def tree(self, coords) -> SpanningTree:
        """The degree-≤5 Euclidean MST for ``coords`` (built once)."""
        entry = self._entry(coords)
        if entry.tree is None:
            entry.tree = euclidean_mst(entry.pointset)
            self.stats.tree_builds += 1
        return entry.tree

    def distances(self, coords) -> np.ndarray:
        """The dense ``(n, n)`` pairwise-distance matrix (built once)."""
        entry = self._entry(coords)
        if entry.distances is None:
            entry.distances = pairwise_distances(entry.pointset.coords)
            self.stats.distance_builds += 1
        return entry.distances

    def polar(self, coords) -> PolarTables:
        """The kernel layer's ``(n, n)`` polar angle/distance tables (built once).

        Shared by every coverage matrix and critical-range search on the
        instance — one trig pass per instance per sweep.
        """
        entry = self._entry(coords)
        if entry.polar is None:
            entry.polar = polar_tables(entry.pointset.coords)
            self.stats.polar_builds += 1
        return entry.polar

    def sparse_polar(self, coords, r_cut: float) -> SparsePolarTables:
        """Radius-bounded CSR candidate tables at cutoff ``r_cut`` (built once).

        The sparse analogue of :meth:`polar` for large instances: one
        kd-tree query + one trig pass per (instance, cutoff), shared by
        every grid cell whose certification needs at most ``r_cut``.
        """
        entry = self._entry(coords)
        key = float(r_cut)
        tables = entry.sparse.get(key)
        if tables is None:
            tables = sparse_polar_tables(entry.pointset.coords, key)
            entry.sparse[key] = tables
            self.stats.sparse_polar_builds += 1
        return tables

    def dense_candidates(
        self, coords, tables: PolarTables, r_cut: float
    ) -> SparsePolarTables:
        """``tables``' pairs within ``r_cut`` as candidate CSR (kept per cutoff).

        The dense-routed ensemble trials' candidate pairs
        (:func:`~repro.kernels.sparse.dense_candidate_tables`).  Derived
        without a kd-tree or trig, so, like packed tables, they are not
        tracked in :class:`CacheStats`: a dense ensemble's ledgered cache
        deltas stay those of the artifacts it builds.  Kept on the
        instance's entry when ``coords`` has one.
        """
        entry = self._entries.get(content_hash(coords))
        key = float(r_cut)
        cached = None if entry is None else entry.candidates.get(key)
        if cached is None:
            cached = dense_candidate_tables(tables, key)
            if entry is not None:
                entry.candidates[key] = cached
        return cached

    def packed_polar(self, batch: BatchedInstances) -> PackedPolarTables:
        """Packed polar tables for a whole chunk, built for the caller alone.

        Chunk-scoped: no later chunk reuses them, so the cache keeps no
        reference and they are freed as soon as the caller's sub-batch
        drops them.  Deliberately NOT tracked in :class:`CacheStats`
        either: chunk boundaries depend on job count and resume state, and
        folding chunk builds into the per-instance stat deltas would make
        ledgered totals depend on how a run was chunked — breaking the
        restart-invariance guarantee (a resumed run reports the same stats
        as an uninterrupted one).  Their accounting lives in the kernel
        counters instead (``packed_polar_builds``, ``batched_instances``),
        which are launch-level by design.
        """
        # Called through the module attribute perfbench/tracing.py wraps.
        return kernel_backend.packed_polar_tables(batch)

    def clear(self) -> None:
        self._entries.clear()
