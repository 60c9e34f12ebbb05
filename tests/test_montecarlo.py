"""Harness tests: substreams, determinism, worker independence, sweeps."""

from functools import cached_property

import numpy as np
import pytest

from seqselect.core import DomainError, RoundBatch, generate_instance
from seqselect.montecarlo import (
    CHUNK,
    CellStats,
    ExperimentSpec,
    clamp_workers,
    regret_heatmap,
    run_cell,
    trial_stream,
)
from seqselect.policies import VARIANTS, policy_spec
from tests.scalar_engine import run_cutoff, run_policy


def per_trial_cell(n, b, c, q, r, policy, trials, seed):
    """run_cell's statistics from one scalar round per trial, on the
    documented streams trial_stream(seed, i, 0) and trial_stream(seed, i, 1)."""
    spec = policy_spec(policy, n, b, [r], [q], c)
    rows = []
    for i in range(trials):
        inst_ss, policy_ss = trial_stream((seed,), i, 0), trial_stream((seed,), i, 1)
        out = run_policy(generate_instance(n, b, q, r, inst_ss), spec, rand_seed=policy_ss)
        rows.append((out.regret, out.hires, out.failures))
    data = np.array(rows)
    regrets = data[:, 0].astype(float)
    return CellStats(
        mean_regret=float(regrets.mean()),
        stderr=float(regrets.std(ddof=1) / np.sqrt(trials)),
        mean_hires=float(data[:, 1].mean()),
        failure_rate=float(data[:, 2].sum() / trials),
        trials=trials,
    )


class TestRunCell:
    def test_bit_identical_reruns(self):
        a = run_cell(30, 3, 8, 0.5, 1, "csm", 200, 42)
        b = run_cell(30, 3, 8, 0.5, 1, "csm", 200, 42)
        assert a == b

    def test_single_trial_composes_with_direct_run(self):
        stats = run_cell(25, 3, 6, 0.5, 1, "csm", 1, 7)
        inst_ss = trial_stream((7,), 0, 0)
        direct = run_cutoff(generate_instance(25, 3, 0.5, 1, inst_ss), 6)
        assert stats.mean_regret == direct.regret
        assert stats.mean_hires == direct.hires
        assert stats.failure_rate == direct.failures

    def test_ranks_each_chunk_once(self, monkeypatch):
        calls = []
        rank = RoundBatch.ranks.func
        counted = cached_property(lambda batch: calls.append(len(batch)) or rank(batch))
        counted.__set_name__(RoundBatch, "ranks")
        monkeypatch.setattr(RoundBatch, "ranks", counted)
        for policy in VARIANTS:
            calls.clear()
            run_cell(20, 3, 5, 0.5, 1, policy, CHUNK + 7, 3, workers=1)
            assert calls == [CHUNK, 7], policy

    @pytest.mark.parametrize("policy", VARIANTS)
    def test_chunked_cell_is_the_per_trial_cell(self, policy):
        # CHUNK + 3 trials run as two batches, the second of 3 trials
        args = (20, 3, 5, 0.6, 1, policy, CHUNK + 3, 8)
        assert run_cell(*args) == per_trial_cell(*args)

    def test_worker_count_independence(self):
        # CHUNK + 3 trials are two batches, so workers=3 starts a pool
        a = run_cell(30, 3, 8, 0.5, 1, "csm", CHUNK + 3, 5, workers=1)
        b = run_cell(30, 3, 8, 0.5, 1, "csm", CHUNK + 3, 5, workers=3)
        assert a == b

    def test_worker_count_independence_across_chunks(self):
        a = run_cell(20, 3, 5, 0.5, 1, "rand", CHUNK + 3, 6, workers=1)
        b = run_cell(20, 3, 5, 0.5, 1, "rand", CHUNK + 3, 6, workers=3)
        assert a == b

    def test_direct_streams_are_the_spawned_children(self):
        for cell_seed in ((7,), (0, 5, 40), (2**40, 3)):
            for i in (0, 1, 513, 10**6):
                children = np.random.SeedSequence([*cell_seed, i]).spawn(2)
                for child, spawned in enumerate(children):
                    direct = trial_stream(cell_seed, i, child)
                    assert np.array_equal(direct.generate_state(8), spawned.generate_state(8))

    def test_rejects_bad_counts_and_seeds(self):
        for trials, seed in ((0, 1), (-3, 1), (5, -1), (5, (2, -1))):
            with pytest.raises(DomainError):
                run_cell(20, 3, 5, 0.5, 1, "csm", trials, seed)

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
            inst_ss = trial_stream((11,), i, 0)
            if run_cutoff(generate_instance(20, 2, 0.5, 0, inst_ss), 5).regret == 0:
                zero_hits += 1
        assert zero_hits > 0
        assert st.mean_regret == pytest.approx(st.mean_regret)


class TestExperimentSpec:
    def test_one_r_per_b(self):
        for b_values, r_values in (((5, 20), (1,)), ((5,), (1, 2)), ((5,), ())):
            with pytest.raises(DomainError, match="one r per b"):
                ExperimentSpec(n=50, b_values=b_values, c_values=(0,), q=0.5, r_values=r_values)
        spec = ExperimentSpec(n=50, b_values=(5, 20), c_values=(0,), q=0.5, r_values=(1, 2))
        assert spec.r_values == (1, 2)

    def test_cutoffs_outside_range(self):
        for c_values in ((0, -3), (6, 7), (5, 6)):
            with pytest.raises(DomainError):
                ExperimentSpec(n=5, b_values=(2,), c_values=c_values, q=0.5, r_values=(0,))
        ExperimentSpec(n=5, b_values=(2,), c_values=(0, 5), q=0.5, r_values=(0,))

    def test_cutoff_policies_only(self):
        for policy in ("mean", "rand"):
            with pytest.raises(DomainError, match="cutoff policy"):
                ExperimentSpec(n=20, b_values=(2,), c_values=(0, 5), q=0.5, r_values=(0,),
                               policy=policy)
        for policy in ("csm", "acsm"):
            ExperimentSpec(n=20, b_values=(2,), c_values=(0, 5), q=0.5, r_values=(0,),
                           policy=policy)

    def test_quality_checked_when_built(self):
        with pytest.raises(DomainError) as err:
            ExperimentSpec(n=10, b_values=(2,), c_values=(0,), q=1.5, r_values=(0,))
        assert str(err.value) == "need 0 < q < 1, got q=1.5"

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentSpec(n=50, b_values=(), c_values=(0,), q=0.5, r_values=())
        with pytest.raises(DomainError):
            ExperimentSpec(n=50, b_values=(5,), c_values=(0,), q=0.5, r_values=(0,), trials=0)


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
            r_values=(0, 0), trials=60, master_seed=3,
        )
        result = regret_heatmap(spec)
        assert set(result.cells) == {(b, c) for b in (2, 4) for c in range(0, 21, 5)}
        for b in (2, 4):
            assert result.sim_path[b] in range(0, 21, 5)
            assert isinstance(result.analytic_path[b], int)
        again = regret_heatmap(spec)
        assert again.cells == result.cells

    def test_each_b_runs_at_its_own_r(self):
        spec = ExperimentSpec(
            n=12, b_values=(2, 4), c_values=(0, 6), q=0.5, r_values=(1, 3), trials=10,
            master_seed=2,
        )
        result = regret_heatmap(spec)
        for b, r in ((2, 1), (4, 3)):
            for c in (0, 6):
                assert result.cells[(b, c)] == run_cell(12, b, c, 0.5, r, "csm", 10, (2, b, c))


class TestExperimentSpecB:
    def test_b_outside_range(self):
        # every (b, r) pair is a setting, checked by the one rule of core
        for b_values, r_values in (((0,), (0,)), ((-3,), (0,)), ((2, 11), (0, 0)),
                                   ((5, 2), (3, 3))):
            with pytest.raises(DomainError, match=r"need 0 <= r <= b <= n and b >= 1"):
                ExperimentSpec(
                    n=10, b_values=b_values, c_values=(0, 5), q=0.5, r_values=r_values
                )

    def test_repeated_b_or_c(self):
        for b_values, c_values in (((3, 3), (0, 6)), ((3,), (0, 6, 6))):
            with pytest.raises(DomainError, match="must not repeat"):
                ExperimentSpec(
                    n=12, b_values=b_values, c_values=c_values, q=0.5,
                    r_values=(0,) * len(b_values),
                )
