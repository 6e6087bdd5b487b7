"""Vectorized measurement kernels shared by every layer above geometry.

The three kernels every experiment funnels through — sector coverage,
connectivity, and the measured critical range — live here as pure array
programs over shared per-instance geometry.  Every measurement runs them
over candidate pairs (:mod:`repro.kernels.sparse`), derived from the
dense tables or from a kd-tree:

* :mod:`repro.kernels.geometry` — :class:`PolarTables`, the ``(n, n)``
  per-source angle/distance tables computed once per point set (cacheable
  via :class:`repro.engine.cache.ArtifactCache`);
* :mod:`repro.kernels.coverage` — :func:`batched_coverage`, all ``k·n``
  sectors evaluated against the tables in one pass, for the ``(n, n)``
  coverage matrix (validation, interference);
* :mod:`repro.kernels.connectivity` — CSR strong and symmetric
  connectivity (``scipy.sparse.csgraph``) on raw arrays, no graph
  objects;
* :mod:`repro.kernels.critical` — the rebuild-free bottleneck-radius
  bisection over a once-sorted edge list;
* :mod:`repro.kernels.batch` — a whole chunk of instances (each with its
  own polar tables) as one block-diagonal stack of candidate pairs,
  measured per Python-level launch;
* :mod:`repro.kernels.sparse` — :class:`SparsePolarTables`, the CSR
  radius-bounded candidate geometry, and the trial kernels every
  measurement runs on it (the certified loop around them is
  :func:`repro.ensemble.trials.measure_columns`), which scale instances
  to n = 10⁵ without the ``(n, n)`` tables;
* :mod:`repro.kernels.backend` — the ``numpy``, ``sparse`` and ``auto``
  routing names, selected by ``REPRO_BACKEND``, a request flag, or
  ``--backend``: each only decides (:meth:`KernelBackend.use_sparse`)
  whether an instance is measured dense or sparse;
* :mod:`repro.kernels.instrument` — process-wide work counters (graph
  builds, connectivity probes, trig evaluations) that perf-regression
  tests assert on instead of wall-clock.

Every kernel exists once; the connectivity objective is a ``mode``
argument (``"strong"`` or ``"symmetric"``).  The replaced loop kernels
are kept verbatim as bit-exactness oracles in ``tests/kernels_reference.py``.

Layering: ``repro.kernels`` imports only :mod:`repro.geometry` (and
numpy/scipy); :mod:`repro.graph`, :mod:`repro.antenna` and everything
above import the kernels, never the other way around.
"""

from repro.kernels.backend import (
    KNOWN_BACKENDS,
    BackendUnavailable,
    KernelBackend,
    active_backend,
    resolve_backend,
    use_backend,
)
from repro.kernels.batch import packed_polar_tables
from repro.kernels.connectivity import (
    strongly_connected_csr,
    strongly_connected_edges,
)
from repro.kernels.coverage import batched_coverage
from repro.kernels.geometry import PolarTables, polar_tables
from repro.kernels.instrument import (
    KernelCounters,
    kernel_counters,
    recording,
    reset_kernel_counters,
)
from repro.kernels.sparse import (
    SparsePolarTables,
    bbox_diameter_bound,
    complete_cutoff,
    default_instance_cutoff,
    required_cutoff,
    sparse_polar_tables,
)

__all__ = [
    "KNOWN_BACKENDS",
    "BackendUnavailable",
    "KernelBackend",
    "KernelCounters",
    "PolarTables",
    "SparsePolarTables",
    "active_backend",
    "batched_coverage",
    "bbox_diameter_bound",
    "complete_cutoff",
    "default_instance_cutoff",
    "kernel_counters",
    "packed_polar_tables",
    "polar_tables",
    "recording",
    "required_cutoff",
    "reset_kernel_counters",
    "resolve_backend",
    "sparse_polar_tables",
    "strongly_connected_csr",
    "strongly_connected_edges",
    "use_backend",
]
