"""Smoke tests: every experiment driver runs and reports sane rows.

Full-size runs live in benchmarks/; here we use reduced parameters so the
whole suite stays fast while still executing every driver end to end.
"""

import numpy as np
import pytest

from repro.experiments.ablations import run_ablations
from repro.experiments.btsp_experiment import run_btsp
from repro.experiments.fig1_lemma1 import random_mst_star_angles, run_fig1
from repro.experiments.fig2_facts import run_fig2
from repro.experiments.fig34_theorem3 import run_fig4, theorem3_case_census
from repro.experiments.fig56_chains import adversarial_gap_star, run_fig5, run_fig6
from repro.experiments.interference_experiment import run_interference
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.robustness_experiment import run_robustness
from repro.experiments.scaling import run_scaling
from repro.experiments.table1 import representative_phis, run_table1
from repro.experiments.tradeoff import crossover_phi, k2_bound_curve, run_tradeoff
from repro.core.bounds import table1_rows


class TestTable1Driver:
    def test_reduced_run_all_rows_pass(self):
        rec = run_table1(sizes=(16,), seeds=1, workloads=("uniform",))
        assert len(rec.rows) >= 12
        # Columns: ..., connected, bound_ok
        for row in rec.rows:
            assert row[-2] is True or row[-2] == "yes" or row[-2] == True  # noqa: E712
            assert row[-1] is True or row[-1] == True  # noqa: E712

    def test_representative_phis_inside_rows(self):
        for row in table1_rows():
            for phi in representative_phis(row):
                assert phi >= row.phi_lo - 1e-12
                if np.isfinite(row.phi_hi):
                    assert phi <= row.phi_hi + 1e-12


class TestFigureDrivers:
    def test_fig1(self):
        rec = run_fig1(random_trials=20)
        assert all(row[4] for row in rec.rows)  # necessity tight
        assert all(row[6] for row in rec.rows)  # sufficiency ok

    def test_fig1_sampler_matches_rejection_sampler(self):
        """The direct draw has the distribution of F1's former rejection
        sampler (uniform directions, redrawn until every gap is >= pi/3)."""
        from scipy.stats import ks_2samp

        def rejection(d, rng):
            while True:
                ang = np.sort(rng.uniform(0, 2 * np.pi, d))
                gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
                if gaps.min() >= np.pi / 3:
                    return ang

        def features(stars):
            gaps = np.diff(
                np.concatenate([stars, stars[:, :1] + 2 * np.pi], axis=1), axis=1
            )
            return gaps.min(axis=1), gaps.max(axis=1), stars[:, 0]

        d, draws = 3, 2000
        rng_direct, rng_rejection = np.random.default_rng(3), np.random.default_rng(4)
        direct = np.array([random_mst_star_angles(d, rng_direct) for _ in range(draws)])
        rejected = np.array([rejection(d, rng_rejection) for _ in range(draws)])
        assert np.all(np.diff(direct, axis=1) >= 0)
        assert np.all((direct >= 0) & (direct < 2 * np.pi))
        min_gap, _, _ = features(direct)
        assert min_gap.min() >= np.pi / 3 - 1e-12
        for ours, theirs in zip(features(direct), features(rejected)):
            assert ks_2samp(ours, theirs).pvalue > 0.01

    def test_fig2(self):
        rec = run_fig2(sizes=(24,), seeds=1, workloads=("uniform",))
        assert all(row[4] for row in rec.rows)  # pi/3 holds everywhere

    def test_fig3_census(self):
        cases, worst, ok = theorem3_case_census(np.pi, 1, trials=6)
        assert ok
        assert worst <= 2 * np.sin(2 * np.pi / 9) + 1e-9
        assert cases["root"] == 6

    def test_fig4(self):
        rec = run_fig4(phis=(0.75 * np.pi,), trials=6)
        assert all(row[3] for row in rec.rows)

    def test_fig5_and_6(self):
        rec5 = run_fig5()
        rec6 = run_fig6()
        assert rec5.rows and rec6.rows
        assert any("adversarial" in n for n in rec5.notes)

    def test_adversarial_star_valid_pointset(self):
        pts = adversarial_gap_star()
        assert pts.shape == (5, 2)


class TestExtensionDrivers:
    def test_tradeoff(self):
        rec = run_tradeoff(n=24, seeds=1, phis=(0.0, np.pi))
        assert len(rec.rows) == 2

    def test_crossovers(self):
        assert crossover_phi(2.0) == 0.0
        assert crossover_phi(np.sqrt(3)) == pytest.approx(2 * np.pi / 3)
        assert crossover_phi(np.sqrt(2)) == pytest.approx(np.pi)
        assert crossover_phi(1.0) == pytest.approx(6 * np.pi / 5)
        assert crossover_phi(0.5) == np.inf

    def test_crossover_meets_target_in_its_regime(self):
        """The bound at the returned phi is within the target, and targets
        the part-2 regime starts below get its first angle, 2pi/3."""
        targets = np.linspace(1.0, 2.0, 401)[:-1]
        targets = np.sort(np.append(targets, [np.sqrt(2.0), np.sqrt(3.0), 1.75, 1.9]))
        phis = np.asarray([crossover_phi(t) for t in targets])
        assert np.all(k2_bound_curve(phis) <= targets * (1.0 + 1e-12))
        assert np.all(phis[targets >= np.sqrt(3.0)] == 2 * np.pi / 3)
        assert np.all(phis[targets < np.sqrt(3.0)] > 2 * np.pi / 3)
        assert np.all(np.diff(phis) <= 0.0)

    def test_bound_curve_monotone(self):
        phis = np.linspace(0, 1.9 * np.pi, 40)
        curve = k2_bound_curve(phis)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_btsp(self):
        rec = run_btsp(seeds=1)
        spider = [r for r in rec.rows if "spider" in r[0]]
        assert spider and spider[0][-1] is False  # exceeds 2 lmax

    def test_robustness(self):
        rec = run_robustness(n=16, trials=5)
        assert all(row[1] >= 1 for row in rec.rows)

    def test_interference(self):
        rec = run_interference(n=32, seeds=1)
        # Zero-spread configurations always reduce mean interference vs omni;
        # wide-spread long-range rows (k=1) may legitimately increase it.
        zero_spread = [row for row in rec.rows if "phi=0" in row[0]]
        assert zero_spread
        for row in zero_spread:
            assert row[4] >= 1.0

    def test_scaling(self):
        rec = run_scaling(sizes=(32, 64))
        assert len(rec.rows) == 2

    def test_ablations(self):
        rec = run_ablations()
        variants = {row[0] for row in rec.rows}
        assert "theorem3 at phi=pi" in variants
        assert "degree repair (hex lattice)" in variants


class TestRegistry:
    def test_all_ids_registered(self):
        assert set(EXPERIMENTS) == {
            "T1", "F1", "F2", "F3", "F4", "F5", "F6",
            "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8",
        }

    def test_run_experiment_unknown(self):
        with pytest.raises(KeyError):
            run_experiment("Z9")
