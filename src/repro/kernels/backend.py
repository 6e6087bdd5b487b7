"""Kernel backends: the routing names measurement runs under.

There is one implementation of every kernel (coverage, connectivity,
critical-range search, and their candidate-pair forms, per trial or
stacked over a chunk of instances); call sites import those functions
directly.  A backend is only a *routing rule*:
:meth:`KernelBackend.use_sparse` decides whether an ``n``-point instance
is measured through the radius-bounded sparse path
(:mod:`repro.kernels.sparse`) or through the dense ``(n, n)`` tables.  Its
``name`` is recorded in ledger rows as provenance.

* ``numpy`` — always dense;
* ``sparse`` — sparse for every instance with ``n >= 2``;
* ``auto`` — sparse from :func:`sparse_auto_threshold` points up
  (``REPRO_SPARSE_AUTO_N``, default 4096 — roughly where the dense tables
  stop fitting in cache and their O(n²) build dominates).

Selection precedence (first match wins):

1. an explicit name handed to :func:`use_backend` / :func:`resolve_backend`
   (the CLI ``--backend`` flag and the engine executors land here);
2. the ``backend`` field on a :class:`~repro.engine._spec.PlanRequest` /
   ``FrontierRequest`` (the executor resolves it and wraps execution in
   :func:`use_backend`);
3. the ``REPRO_BACKEND`` environment variable;
4. the default ``numpy`` backend.

Exactness contract: both routes are bit-exact against the replaced loop
kernels kept as oracles in ``tests/kernels_reference.py``, so ledgers
written under one name are valid resume/merge material for any other —
the per-row ``backend`` tag records provenance, not meaning.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Protocol

from repro.errors import ReproError
# The packed table build is looked up here at call time
# (``ArtifactCache.packed_polar``), where perfbench/tracing.py wraps it.
from repro.kernels.batch import packed_polar_tables  # noqa: F401

__all__ = [
    "KNOWN_BACKENDS",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "SPARSE_AUTO_ENV_VAR",
    "DEFAULT_SPARSE_AUTO_N",
    "BackendUnavailable",
    "KernelBackend",
    "NumpyBackend",
    "SparseBackend",
    "AutoBackend",
    "active_backend",
    "resolve_backend",
    "sparse_auto_threshold",
    "use_backend",
]

DEFAULT_BACKEND = "numpy"
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Environment variable overriding the ``auto`` rule's instance-size
#: threshold; instances with at least this many points take the sparse
#: radius-bounded path under the ``auto`` backend.
SPARSE_AUTO_ENV_VAR = "REPRO_SPARSE_AUTO_N"
DEFAULT_SPARSE_AUTO_N = 4096


def sparse_auto_threshold() -> int:
    """The instance size at which the ``auto`` backend goes sparse."""
    raw = os.environ.get(SPARSE_AUTO_ENV_VAR)
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return DEFAULT_SPARSE_AUTO_N


class BackendUnavailable(ReproError):
    """The requested kernel backend name is unknown."""


class KernelBackend(Protocol):
    """A routing name and its dense-or-sparse rule."""

    name: str

    def use_sparse(self, n: int) -> bool:
        """Should an ``n``-point instance take the radius-bounded sparse
        path (:mod:`repro.kernels.sparse`) instead of dense tables?"""
        ...


class NumpyBackend:
    """Every instance through the dense tables."""

    name = "numpy"

    def use_sparse(self, n: int) -> bool:
        return False


class SparseBackend:
    """Every instance with ``n >= 2`` through the sparse candidate pairs."""

    name = "sparse"

    def use_sparse(self, n: int) -> bool:
        return n >= 2


class AutoBackend:
    """Dense below :func:`sparse_auto_threshold` points, sparse above.

    The threshold is read per call, so ``REPRO_SPARSE_AUTO_N`` can steer
    an already-resolved backend (tests pin it; sweeps mixing instance
    sizes get dense speed on small ones and sparse memory on large ones
    within the same run).
    """

    name = "auto"

    def use_sparse(self, n: int) -> bool:
        return n >= sparse_auto_threshold()


_BACKENDS: dict[str, KernelBackend] = {
    b.name: b for b in (NumpyBackend(), SparseBackend(), AutoBackend())
}
KNOWN_BACKENDS = tuple(_BACKENDS)

#: Override stack pushed by :func:`use_backend`; top wins over the env var.
_override: list[KernelBackend] = []


def resolve_backend(name: str | None = None) -> KernelBackend:
    """The backend named ``name``.

    ``None`` falls back to ``$REPRO_BACKEND`` and then to the default
    numpy backend.  Raises :class:`BackendUnavailable` for unknown names.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    backend = _BACKENDS.get(name)
    if backend is None:
        raise BackendUnavailable(
            f"unknown kernel backend {name!r}; known backends: "
            f"{', '.join(KNOWN_BACKENDS)}"
        )
    return backend


def active_backend() -> KernelBackend:
    """The backend measurement routes under right now.

    The innermost :func:`use_backend` override wins; otherwise the env
    var / default resolution of :func:`resolve_backend` applies per call.
    """
    if _override:
        return _override[-1]
    return resolve_backend(None)


@contextmanager
def use_backend(backend: str | KernelBackend | None) -> Iterator[KernelBackend]:
    """Pin :func:`active_backend` to ``backend`` within the ``with`` body.

    Accepts a backend name, an already-resolved backend, or ``None``
    (resolve env/default now and pin that — useful to freeze the choice
    for a whole run even if the environment changes midway).
    """
    if isinstance(backend, str) or backend is None:
        backend = resolve_backend(backend)
    _override.append(backend)
    try:
        yield backend
    finally:
        _override.pop()
