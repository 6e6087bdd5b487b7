"""Benchmark-suite configuration.

Every benchmark both times its driver (pytest-benchmark) and asserts the
paper-reproduction claims, so `pytest benchmarks/ --benchmark-only` is a
correctness gate as well as a performance report.  Run with ``-s`` to see
the reproduced tables.
"""

from __future__ import annotations


def run_once(benchmark, fn, **kwargs):
    """Run an experiment driver exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
