"""Deterministic random-number-generator helpers.

Every stochastic entry point in the library accepts a ``seed`` argument that
may be ``None``, an ``int`` or an already-constructed
:class:`numpy.random.Generator`.  Centralizing the coercion here keeps
experiments reproducible: the same seed always yields the same instance, and
independent sub-streams are derived with :func:`spawn_rngs` rather than by
ad-hoc integer arithmetic on seeds.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = [
    "RngLike",
    "as_rng",
    "spawn_rngs",
    "stable_seed",
    "counter_rng",
    "indexed_uniforms",
]


def as_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh nondeterministic generator; an ``int`` or
    ``SeedSequence`` yields a deterministic one; a ``Generator`` is returned
    unchanged (shared mutable state, which is what callers passing a
    generator want).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from one seed.

    Uses :class:`numpy.random.SeedSequence` spawning, the supported way to
    get parallel streams (see the NumPy parallel-random docs).
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of rngs: {n}")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a child sequence from the generator's own bit stream.
        ss = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def stable_seed(*parts: Union[int, str, float]) -> int:
    """Hash heterogeneous experiment parameters into a stable 63-bit seed.

    Unlike ``hash()``, this is stable across processes (no PYTHONHASHSEED
    dependence), so experiment grids keyed by ``(name, n, k, phi)`` always
    map to the same instances.
    """
    import hashlib

    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def counter_rng(*parts: Union[int, str, float]) -> np.random.Generator:
    """A counter-based generator keyed by a path of parameters.

    Philox is a counter-mode bit generator: the stream is a pure function
    of its key, so two ``counter_rng`` calls with the same path yield
    bit-identical draws in any process, in any order, regardless of what
    other streams were consumed in between.  This is the primitive behind
    the ensemble layer's per-trial determinism contract and the
    order-independent failure sampling in :mod:`repro.analysis.robustness`:
    key a stream by *what it is for* — ``(seed, f, trial)`` — never by
    position in a shared sequential stream.
    """
    return np.random.Generator(np.random.Philox(key=stable_seed(*parts)))


_U64 = np.uint64
_MIX_1 = _U64(0x9E3779B97F4A7C15)
_MIX_2 = _U64(0xBF58476D1CE4E5B9)
_MIX_3 = _U64(0x94D049BB133111EB)
#: 2⁻⁵³ — maps the top 53 bits of a mixed word onto [0, 1).
_INV_2_53 = float(2.0 ** -53)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over a uint64 array."""
    x = (x + _MIX_1) & ~_U64(0)
    x = (x ^ (x >> _U64(30))) * _MIX_2
    x = (x ^ (x >> _U64(27))) * _MIX_3
    return x ^ (x >> _U64(31))


def indexed_uniforms(seed: int, index) -> np.ndarray:
    """Uniform [0, 1) draws addressed by *index*, not by stream position.

    ``indexed_uniforms(seed, i)`` is a pure function of ``(seed, i)`` —
    random access into a virtual table of uniforms.  Unlike a sequential
    generator, evaluating any subset of indices, in any order, in any
    process yields the same values: this is what makes Monte-Carlo edge
    failures identical between the dense path (which evaluates all ``n²``
    pair indices) and the sparse path (which evaluates only the candidate
    pairs), and between a serial run and any shard/resume split.

    The generator is the splitmix64 finalizer keyed by ``seed`` — a full
    avalanche mix whose output passes the usual empirical batteries; for
    failure masks and fading draws its quality is far beyond need.
    ``seed`` may also be a uint64 array broadcasting against ``index``:
    each element then reads its own seed's table.
    """
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _splitmix64(np.asarray(_U64(np.uint64(seed)), dtype=np.uint64))
        z = _splitmix64(idx ^ base)
    return (z >> _U64(11)).astype(np.float64) * _INV_2_53

