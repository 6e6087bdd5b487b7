"""Input parameters of each workload and what its layer metrics should move.

Stdlib only: ``run.py --describe`` prints this without importing
``repro``.  ``BENCHMARK.json`` is the one record of the workload names and
reasons, of the gated end-to-end metrics and their units, and of the
per-layer metric names; ``run.py`` reads them from there.  What its schema
cannot hold lives here: the input parameters, the end-to-end metrics that
are printed but not gated, the layer-to-end-to-end map, the prototype
profile the first baseline is compared with, and known hazards.
``workloads.py`` builds every request from :data:`PARAMS`.
"""

from __future__ import annotations

import copy
import math

PI = math.pi

#: End-to-end metrics a workload prints beside the gated ones, with units.
#: They are not gated: ``fail_ratio`` is 0 on a correct run and the two
#: quality figures are deterministic, equal on every run of a seed.
EXTRA_UNITS = {
    "fail_ratio": "ratio",
    "frontier_s": "s",
    "ensemble_s": "s",
    "range_ratio_mean": "lmax",
    "phi_threshold_mean": "rad",
}

#: Input parameters of every workload.  Grid cells are ``(k, phi)``;
#: ``per_base`` is the number of instances drawn from each base generator.
PARAMS = {
    "sweep-table1": {
        "bases": ("uniform", "clustered"),
        "n": 512,
        "per_base": 1,
        "mode": "strong",
        "backend": "numpy",
        "grid": (
            (1, 0.0), (1, 2 * PI / 3), (1, PI), (1, 8 * PI / 5), (2, 0.0),
            (2, 2 * PI / 3), (2, PI), (3, 0.0), (4, 0.0), (5, 0.0),
        ),
    },
    "sweep-sparse-20k": {
        "bases": ("uniform",),
        "n": 20000,
        "per_base": 1,
        "backend": "sparse",
        "strong": ((1, PI), (2, PI), (3, 0.0), (5, 0.0)),
        "symmetric": ((2, 2 * PI), (3, PI), (5, 0.0)),
    },
    "service-probes": {
        "bases": ("uniform", "clustered"),
        "poll_s": 0.02,
        "frontier": {
            "n": 128, "per_base": 4, "ks": (2, 3),
            "metric": "critical_range", "target": 1.0,
            "phi_lo": 0.0, "phi_hi": 2 * PI, "tol": 1e-6,
        },
        "ensemble-threshold": {
            "n": 128, "per_base": 2, "ks": (2,), "p_target": 0.45,
            "edge_fail": 0.005, "fade_sigma": 0.02,
            "phi_lo": 0.0, "phi_hi": 0.8 * PI, "tol": 1e-3,
            "trials": 200, "chunk": 25,
        },
        "ensemble-curve": {
            "n": 96, "per_base": 2, "grid": ((1, 2 * PI), (2, PI)),
            "rotate": True, "trials": 100, "chunk": 25,
        },
    },
}

#: Instance size of the untimed warm-up run before the timed passes: the
#: same requests on smaller instances, so imports and code paths are warm
#: without spending a whole pass.
WARMUP_N = {"sweep-table1": 64, "sweep-sparse-20k": 2000, "service-probes": 32}


def warmup_params(name: str) -> dict:
    """:data:`PARAMS` of ``name`` with every instance size set to :data:`WARMUP_N`."""
    params = copy.deepcopy(PARAMS[name])
    for part in (params, *(v for v in params.values() if isinstance(v, dict))):
        if "n" in part:
            part["n"] = WARMUP_N[name]
    return params


#: Per workload: the extra end-to-end metrics it prints, the requests each
#: latency metric sums (``latencies``), and which per-layer metric should
#: move which end-to-end metric.
WORKLOADS = {
    "sweep-table1": {
        "extra": ["fail_ratio", "range_ratio_mean"],
        "moves": {
            "core.construct.k1-tour_s": ["wall_s", "cells_per_s"],
            "btsp.best_tour_s": ["wall_s"],
            "btsp.best_tour_calls": ["wall_s"],
            "engine.cache.tables_s": ["cells_per_s"],
            "analysis.measure_s": ["cells_per_s"],
            "kernels.*": ["analysis.measure_s"],
            "store.append_s": ["wall_s"],
            "store.replay_s": ["wall_s"],
        },
    },
    "sweep-sparse-20k": {
        "extra": ["fail_ratio", "range_ratio_mean"],
        "moves": {
            "core.construct.k1-pairs_s": ["wall_s"],
            "core.construct.theorem*_s": ["wall_s"],
            "core.construct.bounded-angle-mst_s": ["wall_s"],
            "engine.cache.tree_s": ["wall_s", "peak_rss_mb"],
            "engine.cache.tables_s": ["wall_s", "peak_rss_mb"],
            "analysis.measure_s": ["cells_per_s"],
            "kernels.*": ["analysis.measure_s"],
        },
    },
    "service-probes": {
        "extra": ["fail_ratio", "frontier_s", "ensemble_s", "phi_threshold_mean"],
        "latencies": {
            "frontier_s": ["frontier"],
            "ensemble_s": ["ensemble-threshold", "ensemble-curve"],
        },
        "moves": {
            "frontier.solve_s": ["frontier_s"],
            "frontier.probes": ["frontier_s"],
            "frontier.reused_ratio": ["frontier_s"],
            "ensemble.measure_trials_s": ["ensemble_s"],
            "kernels.*": ["ensemble_s"],
            "store.append_s": ["ensemble_s"],
            "service.*": ["frontier_s", "ensemble_s"],
        },
    },
}

#: The profile a throwaway prototype measured before this benchmark existed
#: (2-core container), for comparison with the first baseline.
PROTOTYPE_PROFILE = {
    "sweep-table1": "18-20 s per request; ~2/3 in k1-tour construction, "
                    "~1/4 in packed dense measurement",
    "sweep-sparse-20k": "5-6 s per request; construction ~2-3x "
                        "measurement; peak ~180 MB",
    "service-probes": "frontier 0.4 s, ensemble curve 6.5 s",
}

#: Cases deliberately not benchmarked, pending a source fix.
HAZARDS = [
    "symmetric (k=1, phi=pi) at n=2e4 on the sparse backend was OOM-killed "
    "at 8 GB: the infeasible fallback's infinite range_bound forces the "
    "complete cutoff, storing O(n^2) candidate pairs. The sparse workload's "
    "feasibility guard refuses such a cell by name.",
]


def describe(why: dict[str, str]) -> dict:
    """The whole record, JSON-ready; ``why`` is each workload's reason."""
    return {
        name: {"why": why[name], **meta, "inputs": PARAMS[name],
               "warmup_n": WARMUP_N[name], "prototype": PROTOTYPE_PROFILE[name]}
        for name, meta in WORKLOADS.items()
    } | {"hazards": HAZARDS}
