"""Harness tests: substreams, determinism, worker independence, sweeps."""

import math

import numpy as np
import pytest

from seqselect.core import DomainError, generate_instance
from seqselect.montecarlo import (
    CellStats,
    ExperimentSpec,
    clamp_workers,
    cutoff_csv_rows,
    cutoff_curves,
    heatmap_csv_rows,
    regret_heatmap,
    run_cell,
    trial_seed,
)
from seqselect.policies import run_cutoff


class TestRunCell:
    def test_bit_identical_reruns(self):
        a = run_cell(30, 3, 8, 0.5, 1, "csm", 200, 42)
        b = run_cell(30, 3, 8, 0.5, 1, "csm", 200, 42)
        assert a == b

    def test_single_trial_composes_with_direct_run(self):
        stats = run_cell(25, 3, 6, 0.5, 1, "csm", 1, 7)
        inst_ss, _ = trial_seed((7,), 0).spawn(2)
        direct = run_cutoff(generate_instance(25, 3, 0.5, 1, inst_ss), 6)
        assert stats.mean_regret == direct.regret
        assert stats.mean_hires == direct.hires
        assert stats.failure_rate == direct.failures

    def test_worker_count_independence(self):
        a = run_cell(30, 3, 8, 0.5, 1, "csm", 120, 5, workers=1)
        b = run_cell(30, 3, 8, 0.5, 1, "csm", 120, 5, workers=3)
        assert a == b

    def test_rand_policy_deterministic(self):
        a = run_cell(20, 2, 0, 0.5, 0, "rand", 80, 9)
        b = run_cell(20, 2, 0, 0.5, 0, "rand", 80, 9)
        assert a == b

    def test_acsm_policy_runs(self):
        st = run_cell(40, 4, 10, 0.5, 4, "acsm", 50, 3)
        assert isinstance(st, CellStats)
        assert st.mean_hires == 4.0  # r = b forces a full refill

    def test_stderr_scaling(self):
        small = run_cell(30, 3, 8, 0.5, 3, "csm", 400, 1)
        big = run_cell(30, 3, 8, 0.5, 3, "csm", 1600, 1)
        ratio = small.stderr / big.stderr
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_regret_nonnegative_and_sometimes_zero(self):
        st = run_cell(20, 2, 5, 0.5, 0, "csm", 300, 11)
        assert st.mean_regret >= 0
        # with a small budget and no resignations, perfect rounds happen
        zero_hits = 0
        for i in range(300):
            inst_ss, _ = trial_seed((11,), i).spawn(2)
            if run_cutoff(generate_instance(20, 2, 0.5, 0, inst_ss), 5).regret == 0:
                zero_hits += 1
        assert zero_hits > 0
        assert st.mean_regret == pytest.approx(st.mean_regret)


class TestExperimentSpec:
    def test_r_rule(self):
        spec = ExperimentSpec(n=50, b_values=(5, 20), c_values=(0, 10), q=0.5, r_rule=0.5)
        assert spec.r_for(5) == 2 and spec.r_for(20) == 10
        spec_abs = ExperimentSpec(n=50, b_values=(5,), c_values=(0,), q=0.5, r_rule=3)
        assert spec_abs.r_for(5) == 3

    def test_r_rule_integer_types(self):
        def spec(rule):
            return ExperimentSpec(n=50, b_values=(5,), c_values=(0,), q=0.5, r_rule=rule)

        # numpy integers are counts, not fractions
        assert spec(np.int64(2)).r_for(5) == 2
        assert type(spec(np.int64(2)).r_for(5)) is int
        # bools are fractions: True is all of b, False none
        assert spec(True).r_for(5) == 5 and type(spec(True).r_for(5)) is int
        assert spec(False).r_for(5) == 0
        assert spec(np.float64(0.4)).r_for(5) == 2

    def test_fraction_outside_unit_interval(self):
        for rule in (1.5, -0.1, float("nan")):
            with pytest.raises(DomainError):
                ExperimentSpec(n=50, b_values=(5,), c_values=(0,), q=0.5, r_rule=rule)

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentSpec(n=50, b_values=(), c_values=(0,), q=0.5, r_rule=0)
        with pytest.raises(DomainError):
            ExperimentSpec(n=50, b_values=(5,), c_values=(0,), q=0.5, r_rule=0, trials=0)


class TestClampWorkers:
    def test_within_processor_count(self):
        assert clamp_workers(1, 8) == 1
        assert clamp_workers(3, 8) == 3

    def test_clamped_to_processor_count(self):
        assert clamp_workers(8, 8) == 8
        assert clamp_workers(10**6, 8) == 8
        assert clamp_workers(4, None) == 1  # unknown processor count

    def test_below_one_rejected(self):
        for workers in (0, -3):
            with pytest.raises(DomainError):
                clamp_workers(workers, 8)


class TestHeatmap:
    def test_grid_and_paths(self):
        spec = ExperimentSpec(
            n=20, b_values=(2, 4), c_values=tuple(range(0, 21, 5)), q=0.5,
            r_rule=0, trials=60, master_seed=3,
        )
        result = regret_heatmap(spec)
        assert set(result.cells) == {(b, c) for b in (2, 4) for c in range(0, 21, 5)}
        for b in (2, 4):
            assert result.sim_path[b] in range(0, 21, 5)
            assert isinstance(result.analytic_path[b], int)
        again = regret_heatmap(spec)
        assert again.cells == result.cells

    def test_csv_rows_format(self):
        spec = ExperimentSpec(
            n=10, b_values=(2,), c_values=(0, 5), q=0.5, r_rule=0, trials=20, master_seed=0,
        )
        rows = list(heatmap_csv_rows(regret_heatmap(spec)))
        assert rows[0] == "b,c,mean_regret,stderr,mean_hires,failure_rate,trials"
        assert len(rows) == 3
        parts = rows[1].split(",")
        assert len(parts) == 7 and parts[0] == "2"


class TestCutoffCurves:
    def test_rows_structure(self):
        rows = cutoff_curves(
            n=20, r_rule=0, q_list=(0.5,), b_values=(2,), c_values=tuple(range(0, 21, 4)),
            trials=40, master_seed=1,
        )
        assert len(rows) == 1
        q, b, cs, ca = rows[0]
        assert (q, b) == (0.5, 2)
        csv = list(cutoff_csv_rows(rows))
        assert csv[0] == "q,b,c_star_sim,c_star_analytic"
        assert csv[1].startswith("0.500000,2,")
