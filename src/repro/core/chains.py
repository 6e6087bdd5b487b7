"""Star chain partitions — the combinatorial core of Theorems 5 and 6.

Both theorems orient zero-spread antennae along a rooted MST so that every
vertex ``u`` reaches its ``d`` children through at most ``k−1`` outgoing
edges: the children are partitioned into at most ``k−1`` *chains*
``h → c → c' → …``; ``u`` aims one antenna at each chain head, every chain
member aims one antenna at its successor, and each chain tail aims one at
``u``.  Each child therefore spends exactly one antenna on the gadget and
keeps ``k−1`` for its own children, which is the induction invariant
("the out-degree of the root never exceeds ``k−1``").

The paper argues suitable chains exist via angles between children (gaps
≤ 2π/3 give edges ≤ √3·lmax for k=3; gaps ≤ π/2 give ≤ √2·lmax for k=4).
We implement:

* :func:`best_chain_partition` — exact minimax search over all ordered
  partitions (d ≤ 5, ≤ a few thousand candidates), used by the algorithms;
* :func:`arc_chains` — the paper's "split at big gaps" heuristic, kept for
  the Figure-5/6 benches and the ablation (it can be forced above budget by
  adversarial gap patterns that the 2+2 split handles; see
  :func:`repro.experiments.fig56_chains.adversarial_gap_star`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from repro.errors import InvalidParameterError
from repro.geometry.angles import ccw_gaps

__all__ = ["ChainPartition", "best_chain_partition", "arc_chains"]


@dataclass
class ChainPartition:
    """An ordered partition of child indices into chains.

    ``chains`` lists each chain head-first; ``max_edge`` is the longest
    consecutive-pair distance within any chain (0 if all chains are
    singletons).
    """

    chains: list[list[int]]
    max_edge: float

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    def edges(self) -> list[tuple[int, int]]:
        """All (predecessor, successor) pairs along the chains."""
        out = []
        for ch in self.chains:
            out.extend(zip(ch[:-1], ch[1:]))
        return out


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered sum of ``parts`` positives."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def best_chain_partition(dist: np.ndarray, max_chains: int) -> ChainPartition:
    """Exact minimax chain partition of ``d`` children into ≤ ``max_chains``.

    ``dist`` is the ``(d, d)`` symmetric distance matrix among the children.
    Exhaustive over permutations × compositions — intended for ``d ≤ 5``
    (Euclidean MSTs of max degree 5 never need more).
    """
    dist = np.asarray(dist, dtype=float)
    d = dist.shape[0]
    if d == 0:
        return ChainPartition([], 0.0)
    if max_chains < 1:
        raise InvalidParameterError(f"max_chains must be >= 1, got {max_chains}")
    if d > 7:
        raise InvalidParameterError(
            f"exact chain search is exponential; got {d} children (max 7)"
        )
    if d <= max_chains:
        return ChainPartition([[i] for i in range(d)], 0.0)

    best: ChainPartition | None = None
    n_parts = max_chains  # fewer chains than budget never helps the minimax
    for perm in permutations(range(d)):
        # Skip mirror duplicates: fix the first element's chain orientation
        # by requiring perm[0] < perm[-1] when the whole perm is one chain.
        for comp in _compositions(d, n_parts):
            cost = 0.0
            idx = 0
            ok = True
            for size in comp:
                chain = perm[idx : idx + size]
                for a, b in zip(chain[:-1], chain[1:]):
                    e = float(dist[a, b])
                    if e > cost:
                        cost = e
                        if best is not None and cost >= best.max_edge:
                            ok = False
                            break
                if not ok:
                    break
                idx += size
            if not ok:
                continue
            if best is None or cost < best.max_edge:
                chains = []
                idx = 0
                for size in comp:
                    chains.append(list(perm[idx : idx + size]))
                    idx += size
                best = ChainPartition(chains, cost)
                if best.max_edge == 0.0:
                    return best
    assert best is not None
    return best


def arc_chains(angles: np.ndarray, gap_threshold: float) -> list[list[int]]:
    """The paper's construction: chains are ccw runs between "big" gaps.

    ``angles`` are the children's directions from the parent; gaps larger
    than ``gap_threshold`` split the circular order into runs.  Returns the
    chains as lists of *input indices*, heads first (ccw order within each
    run).  If no gap exceeds the threshold, all children form one chain.
    """
    a = np.asarray(angles, dtype=float)
    d = a.size
    if d == 0:
        return []
    order, gaps = ccw_gaps(a)
    big = [i for i in range(d) if gaps[i] > gap_threshold]
    if not big:
        return [list(order)] if d > 1 else [[int(order[0])]]
    big_set = set(big)
    chains: list[list[int]] = []
    for gi in big:
        # A run starts just after the big gap and ends at the first child
        # whose *following* gap is also big.
        chain: list[int] = []
        j = (gi + 1) % d
        while True:
            chain.append(int(order[j]))
            if j in big_set:
                break
            j = (j + 1) % d
        chains.append(chain)
    return chains
