"""Benchmark X6 — ablations of the design choices (:mod:`repro.experiments.ablations`)."""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.experiments.ablations import run_ablations


def test_ablations(benchmark):
    rec = run_once(benchmark, run_ablations)
    print()
    print(rec.to_ascii())
    rows = {(row[0], row[1]): row for row in rec.rows}
    # The exact star cover never uses more spread than the paper's window.
    opt = rows[("theorem2 star cover", "optimal")][3]
    lem = rows[("theorem2 star cover", "lemma1")][3]
    assert opt <= lem + 1e-9
    # Part 1 exists because it beats part 2 at phi = pi.
    p1 = rows[("theorem3 at phi=pi", "part 1 (2sin(2pi/9))")][3]
    p2 = rows[("theorem3 at phi=pi", "part 2 forced (sqrt 2)")][3]
    assert p1 < p2
    # Degree repair actually fires on the hexagonal lattice.
    assert rows[("degree repair (hex lattice)", "off")][3] >= 6
    assert rows[("degree repair (hex lattice)", "on")][3] <= 5
