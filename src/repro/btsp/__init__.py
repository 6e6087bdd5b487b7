"""Bottleneck travelling-salesman substrate (reference [14] of the paper).

With a single zero-spread antenna per sensor, a strongly connected
orientation is exactly a directed Hamiltonian cycle, and minimizing the
range is the Euclidean bottleneck TSP.  This package provides an exact
solver for small instances, heuristics with a certified lower bound for
larger ones, and tree-square utilities backing the paper's "range ≤ 2" row
(and our demonstration that the row is loose for k = 1: every Hamiltonian
cycle on the spider of :func:`repro.experiments.workloads.spider_points`
has an edge longer than 2·lmax; ``benchmarks/bench_btsp.py`` asserts it).
"""

from repro.btsp.exact import held_karp_bottleneck
from repro.btsp.heuristic import (
    TourResult,
    nearest_neighbor_tour,
    two_opt_bottleneck,
    best_tour,
    bottleneck_lower_bound,
)
from repro.btsp.square import (
    tree_square_edges,
    is_caterpillar,
    caterpillar_square_tour,
)

__all__ = [
    "held_karp_bottleneck",
    "TourResult",
    "nearest_neighbor_tour",
    "two_opt_bottleneck",
    "best_tour",
    "bottleneck_lower_bound",
    "tree_square_edges",
    "is_caterpillar",
    "caterpillar_square_tour",
]
