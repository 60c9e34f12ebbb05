"""Closed-form machinery tests: formulas, solver anchors, translation, mu-hat."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from seqselect.analytics import (
    AnalyticParams,
    _poisson_pmf,
    _recursion,
    _regret_scans,
    analyze_setting,
    cutoff_table,
    expected_available_rank,
    expected_max_hires,
    expected_offline,
    gamma0,
    mu_hat_curve,
    mu_hat_rows,
    optimal_cutoff,
    threshold_curve,
    translate_cutoff,
)
from seqselect.core import ContractError, DomainError, Instance, sample_rounds
from seqselect.policies import PolicySpec, run_policy_batch
from tests import analytic_reference
from tests.scalar_engine import _learning_phase, run_cutoff


class TestGamma0:
    def test_medium_quality_matches_order_statistic(self):
        assert gamma0(0.5, 100, 5) == pytest.approx(530 / 6)
        assert gamma0(0.5, 100, 5) == pytest.approx(5 * 106 / 6)

    def test_perfect_quality(self):
        assert gamma0(1.0, 100, 5) == pytest.approx(10 / 6)

    def test_single_pair_enumeration(self):
        # one referent among two items: rank is 1 or 2 with equal probability
        assert gamma0(0.5, 1, 1) == pytest.approx(1.5)


class TestExpectedAvailableRank:
    def test_collapses_to_gamma0(self):
        g0 = gamma0(0.5, 100, 5)
        assert expected_available_rank(5, 0.5, 100, 5, 0) == pytest.approx(g0)

    def test_best_available_no_resignations(self):
        assert expected_available_rank(1, 0.5, 100, 5, 0) == pytest.approx(530 / 30)

    def test_single_survivor(self):
        # r = b - 1: the lone survivor is a uniformly random referent
        g0 = gamma0(0.5, 100, 5)
        assert expected_available_rank(1, 0.5, 100, 5, 4) == pytest.approx(g0 * 6 / 10)
        # Monte Carlo: pick b uniform ranks, keep one at random
        rng = np.random.default_rng(8)
        vals = [
            rng.choice(rng.choice(105, size=5, replace=False) + 1)
            for _ in range(20000)
        ]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - g0 * 6 / 10) < 4 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            expected_available_rank(0, 0.5, 100, 5, 0)
        with pytest.raises(DomainError):
            expected_available_rank(3, 0.5, 100, 5, 3)

    def test_elementwise_over_q_and_r(self):
        q, r = np.array([0.3, 0.5, 0.81]), np.array([0, 4, 2])
        one = [expected_available_rank(1, qt, 100, 5, rt)
               for qt, rt in zip(q.tolist(), r.tolist())]
        assert expected_available_rank(1, q, 100, 5, r).tolist() == one
        # one entry out of range fails the whole call
        with pytest.raises(DomainError):
            expected_available_rank(1, q, 100, 5, np.array([0, 5, 2]))


class TestExpectedOffline:
    def test_no_resignations(self):
        assert expected_offline(100, 5, 0, 0.5) == pytest.approx(15.0)

    def test_full_resignations_value(self):
        g0 = 530 / 6
        expect = 15 + 125 * (g0 + 5) / (2 * g0 * g0)
        assert expected_offline(100, 5, 5, 0.5) == pytest.approx(expect)
        assert expected_offline(100, 5, 5, 0.5) == pytest.approx(15.75, abs=0.01)

    def test_against_simulated_oracle(self):
        rng = np.random.default_rng(12)
        for b, r in [(5, 0), (5, 5), (20, 10)]:
            # the rounds of 20,000 one-seed calls on rng, stacked
            vals = sample_rounds(100, b, 0.5, r, [rng] * 20000).offline_optimum().astype(float)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - expected_offline(100, b, r, 0.5)) < 3 * se + 1e-9


class TestGFn:
    # the reference's g past the branch rule's steps: P(Poisson(lam) < count)
    @staticmethod
    def g(count, lam):
        return analytic_reference.g(count, 100, lam)

    def test_poisson_zero_mass(self):
        assert self.g(1, 0.0) == 1.0
        assert self.g(5, 0.0) == 1.0

    def test_single_term(self):
        assert self.g(1, 2.0) == pytest.approx(math.exp(-2.0))

    def test_series_value(self):
        assert self.g(3, 2.0) == pytest.approx(5 * math.exp(-2.0))

    def test_nonpositive_count(self):
        assert self.g(0, 1.0) == 0.0
        assert self.g(-2.5, 1.0) == 0.0

    def test_monotonicity(self):
        lams = np.linspace(0, 6, 25)
        vals = [self.g(3.0, l) for l in lams]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
        counts = np.linspace(0.5, 8, 25)
        vals = [self.g(x, 2.0) for x in counts]
        assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestThresholdCurve:
    def test_recursion_checks_its_intensity_once_per_pass(self):
        # a nan quality makes every p_j nan; the pass ends in ContractError
        with pytest.raises(ContractError, match="intensity"):
            _recursion(100, 5, 0, float("nan"), np.array([10, 20]))

    def test_gamma_at_full_cutoff(self):
        curve = threshold_curve(AnalyticParams(n=60, b=4, r=0, q=0.5, c=60))
        assert curve.gamma == pytest.approx(4.0)

    def test_gamma_formula_value(self):
        curve = threshold_curve(AnalyticParams(n=100, b=5, r=0, q=0.5, c=38))
        assert curve.gamma == pytest.approx(525 / 43)

    def test_gamma_rank_against_simulation(self):
        # E[rank of the b-th best of refset plus c candidates] ~ gamma
        rng = np.random.default_rng(3)
        n, b, c = 100, 5, 38
        ranks = sample_rounds(n, b, 0.5, 0, [rng] * 4000).ranks
        # the joint rank of the b-th best of the referents and first c candidates
        vals = np.partition(ranks[:, : b + c], b - 1, axis=1)[:, b - 1]
        assert abs(vals.mean() - 525 / 43) < 0.6  # approximation, loose guard

    def test_curve_shape_invariants(self):
        for (n, b, r, c) in [(80, 5, 0, 20), (80, 5, 5, 20), (60, 10, 3, 12)]:
            curve = threshold_curve(AnalyticParams(n=n, b=b, r=r, q=0.5, c=c))
            g_b = curve.g_b[c + 1 :]
            lam = curve.lam[c:]
            assert all(0.0 <= g <= 1.0 for g in g_b)
            assert all(x >= y - 1e-12 for x, y in zip(g_b, g_b[1:]))
            assert all(y >= x - 1e-12 for x, y in zip(lam, lam[1:]))
            assert all(g >= 1.0 for g in curve.gamma_j[c + 1 :])
            assert 0.0 <= curve.e_hires <= b

    def test_e_hires_nonincreasing_in_c_over_bulk(self):
        # the backward-induction threshold approximation misbehaves for the
        # first few cutoffs; the trend holds from c = 5 on
        prev = None
        for c in range(5, 101):
            e = threshold_curve(AnalyticParams(n=100, b=5, r=0, q=0.5, c=c)).e_hires
            if prev is not None:
                assert e <= prev + 1e-9
            prev = e

    def test_empty_selection_phase(self):
        curve = threshold_curve(AnalyticParams(n=50, b=5, r=0, q=0.5, c=50))
        assert curve.e_hires == 0.0
        assert curve.candidate_term == 0.0
        assert curve.expected_regret() == pytest.approx(
            curve.referent_term - curve.e_offline
        )


class TestExpectedMaxHires:
    def test_full_resignation_is_exactly_b(self):
        curve = threshold_curve(AnalyticParams(n=100, b=5, r=5, q=0.5, c=28))
        assert expected_max_hires(curve) == pytest.approx(5.0, abs=1e-9)

    def test_no_resignation_truncated_mean(self):
        from scipy.stats import poisson

        curve = threshold_curve(AnalyticParams(n=100, b=5, r=0, q=0.5, c=40))
        lam = curve.lam_n
        ks = np.arange(5)
        expect = (ks * poisson.pmf(ks, lam)).sum() + 5 * (1 - poisson.pmf(ks, lam).sum())
        assert expected_max_hires(curve) == pytest.approx(expect)

    @pytest.mark.xfail(
        reason="at (100, 5, 2), c = 39, the Poisson count at a fixed rate gives"
        " 4.720 against 4.385 simulated (103 standard errors); it omits the"
        " spread of the learned threshold, 1 - y_b ~ Beta(b, c + 1): the"
        " beta-binomial count alone, ignoring the switch, gives 4.396",
        strict=False,
    )
    def test_three_sigma_against_simulation(self):
        n, b, r = 100, 5, 2
        c = optimal_cutoff(n, b, r)[0]
        curve = threshold_curve(AnalyticParams(n=n, b=b, r=r, q=0.5, c=c))
        rng = np.random.default_rng(10)
        # the rounds of 100,000 one-seed calls on rng, 1,000 at a time
        batches = (sample_rounds(n, b, 0.5, r, [rng] * 1000) for _ in range(100))
        hires = np.concatenate([run_policy_batch(batch, PolicySpec("csm", cutoff=c))[0][:, 1]
                                for batch in batches]).astype(float)
        se = hires.std(ddof=1) / math.sqrt(len(hires))
        assert abs(hires.mean() - expected_max_hires(curve)) < 3 * se


class TestOptimalCutoff:
    def test_reference_anchors(self):
        # source cutoffs of the worked examples: (31, 15, 0) -> 9 in the
        # published quality-0.8 translation (31 -> 9 -> 22), (48, 5, 0) -> 19
        # and (48, 5, 5) -> 14 behind c* = 38 and 28 at q = 0.75.  The first
        # two hold through CUTOFF_CORRECTION; the third is the raw argmin of
        # the r = b curve.  Simulated optima: 9, 16 and 13.
        assert optimal_cutoff(31, 15, 0)[0] == 9
        assert optimal_cutoff(48, 5, 0)[0] == 19
        assert optimal_cutoff(48, 5, 5)[0] == 14

    def test_scale_invariance_of_argmin(self):
        vals = np.array(_regret_scans([(40, 4, 1)])[0])
        assert np.argmin(vals) == np.argmin(2.7 * vals)

    def test_memoized_and_deterministic(self):
        assert optimal_cutoff(31, 15, 0) == optimal_cutoff(31, 15, 0)


class TestRegretScan:
    # SHA-256 of the float64 bytes of _regret_scans([(n, b, r)])[0][: n - r + 1],
    # recorded from the per-cutoff scan before the array pass replaced it: the
    # 24 settings of the analytic-table benchmark, two anchors, (100, 5, 2)
    # and (1000, 50, 0).  Columns c > n - r are left out, since the policy
    # runs them as n - r.
    PINS = {
        (100, 5, 0): "34bd094edca02fc1717cd841fb5f61a1d2f7e58a5c32734092ae39094a63e5f4",
        (100, 5, 5): "ef82cbd71a0370c35d17cfaf730d10f9537475e98702f7a732ac9b97e9222b31",
        (100, 20, 0): "ee43150a3108f3190dc23942767d6a39d5bae32ffc457d544e0fb44bc3c2098b",
        (100, 20, 5): "0ae644c05f8ae8ef91ac6ae5f00f568c13f0e34d90ec3ee9c1b690bca5c9b529",
        (100, 50, 0): "fe3546d676b7953554a87c6171ca0a7a81b23a1b0f467aca2e53c2ab6ca5edac",
        (100, 50, 5): "2ee3c119879d2db1c5a95bdeabd923b345521823f18419e05d5db634c6503a3f",
        (200, 5, 0): "f3437e0af3bc89ba0a38c229b1267cb36f31600b56d380722b5294fe619cbb79",
        (200, 5, 5): "f822656b6fec8d45728977f4946f274d9216415c9c5b28111b643a2dd75ef07d",
        (200, 20, 0): "c7447d31a46ab542295196bf90ed0117c11c6313cbaaf9691e84831836449322",
        (200, 20, 5): "7d939eabb5cf789b3eadeaa30a63bf3792b535fc020aceeb19eddb685813ad55",
        (200, 50, 0): "0c7eea3fdef3c84efcbf9986fd3735ae90f9d5f4c382606e377d1a0b0189d446",
        (200, 50, 5): "84cc2a070f0069b31db5aa0f0537f8edfe61912b1167f4f94892d457375ba2af",
        (300, 5, 0): "ab024eae5c6cc3f01e98c169afeac22b1d26f10f153130d98aef1069369a21ea",
        (300, 5, 5): "cab71934384fdccbcf8cd7ecfe43da4e5d6b4ef9e2968bd9e362d4a090b48853",
        (300, 20, 0): "78b627ede5b7a8413b14fb72a25aa7dfb0836a1961e47cbd3f7f38cab289cc84",
        (300, 20, 5): "8621b9c6e23f45f8f7caa8047126d5d3f9e9e589039604e73e5c327de4f99c1f",
        (300, 50, 0): "b4517808bf8a71ced6307e1efe2e590b7304310a399550a54559119a1de97b09",
        (300, 50, 5): "f3ace312866d8d3b1126d559b6389b21d7bf8404916994784b8f8ce47036c03b",
        (400, 5, 0): "4446c639208fbdea27104e0ef0be5264917f1a8a740d7454b6e8b9778ed50fc9",
        (400, 5, 5): "cdc649976356bbb5d4a940e912b85177d1b0410ef7ee6285920ceaa4a1a0ec2f",
        (400, 20, 0): "c9b15becff0fe8c2d28fb60375699355ed24d80d6d841eaedf156aa9712acbaa",
        (400, 20, 5): "5ba86fd8ba47e0f0d31467b4b59a160ab8f50ade105c4f219377307b5ad5e2c2",
        (400, 50, 0): "0570060f5f7d6e07e24af9c54a9948760949e425a939cb965bbc94097bd63a65",
        (400, 50, 5): "8294310d8421110d683d8b7763f0f5a1e7f461031d1bb51866e314e4b9ca31a9",
        (31, 15, 0): "d4752a5ae197a70b94285a474a2e592d381cb8ebc40ab5a6aa297cb6ec6236e8",
        (48, 5, 0): "79cc71ae009f6cebc9aa7be642bb4ac96beac92fc85eb868d9aa78102028ba35",
        (100, 5, 2): "09f9dd523ea40fbf50f9ceb4508b6cb16bf1894ab7bc679969c3fbf5b27a5157",
        (1000, 50, 0): "3f0b0ba1550e4574980fe6de826777a8db73ca7ffc762bb71d9169700dc3e592",
    }

    def test_pinned_bytes(self):
        for (n, b, r), digest in self.PINS.items():
            vals = np.asarray(_regret_scans([(n, b, r)])[0], dtype=np.float64)[: n - r + 1]
            assert hashlib.sha256(vals.tobytes()).hexdigest() == digest, (n, b, r)

    # SHA-256 of the per-step rows the recursion's callers read, recorded
    # before gammaincc was called on due entries only: mu_hat_rows at
    # (100, 5) on 40 rows with r in 0..5, q in (0.55, 0.99) and c in 0..60,
    # and threshold_curve's gamma_j, p, lam and g_b tuples in that order
    ROW = np.arange(40)
    MU_HAT_ROWS = (ROW % 6, 0.55 + 0.44 * ((7 * ROW) % 40 + 0.5) / 40, (13 * ROW) % 61)
    MU_HAT_DIGEST = "c334c881a4ea2616230ec9a19e1028331d49141a9e300e84f04e89c8b19db3c8"
    CURVE_PINS = {
        (100, 5, 2, 39): "41351dbcc2ec08823bb64f6f3ed1112c614b8bbf76b7a450523c4e3ce1ad4113",
        (31, 15, 0, 9): "1e96388c85daa34d3e6a39a26ba6f698b4175131fbfe1dcdae24887762e1f5cc",
    }

    def test_mu_hat_rows_pinned_bytes(self):
        r, q, c = (x.tolist() for x in self.MU_HAT_ROWS)
        rows = mu_hat_rows(100, 5, r, q, c)
        assert rows.shape == (40, 100)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == self.MU_HAT_DIGEST

    def test_threshold_curve_pinned_bytes(self):
        for (n, b, r, c), digest in self.CURVE_PINS.items():
            curve = threshold_curve(AnalyticParams(n=n, b=b, r=r, q=0.5, c=c))
            h = hashlib.sha256()
            for field in ("gamma_j", "p", "lam", "g_b"):
                h.update(np.asarray(getattr(curve, field), dtype=np.float64).tobytes())
            assert h.hexdigest() == digest, (n, b, r, c)

    def test_cutoffs_past_n_minus_r_play_as_n_minus_r(self):
        # the policy clamps the cutoff to n - r (_learning_phase), so analyze
        # must report one regret for c = 18, 19 and 20 at (20, 5, 2)
        e18, e19, e20 = (analyze_setting(20, 5, 2, 0.5, c=c).e_regret for c in (18, 19, 20))
        assert e18 == e19 == e20 == pytest.approx(69.929330, abs=1e-6)
        curves = [threshold_curve(AnalyticParams(n=20, b=5, r=2, q=0.5, c=c)) for c in (18, 20)]
        assert curves[0].lam == curves[1].lam and curves[0].gamma == curves[1].gamma
        scan = _regret_scans([(20, 5, 2)])[0]
        assert scan[18] == scan[19] == scan[20]

    # Expected regret is a mean of regrets >= 0, so no scan value may go below 0.
    BELOW_ZERO = pytest.mark.xfail(strict=True, reason=(
        "FOUND: at n = b = r the model's expected regret is below 0: at (1, 1, 1)"
        " the one candidate must be hired, so the true regret is 0, but the model"
        " gives 0.375 + 1.0 - 1.5556 = -0.18, since expected_offline's r > 0 term"
        " is an approximation; (2, 2, 2) gives -0.198"))

    @pytest.mark.parametrize("n, b, r", [
        pytest.param(1, 1, 1, marks=BELOW_ZERO), pytest.param(2, 2, 2, marks=BELOW_ZERO),
    ])
    def test_nonnegative_at_n_equal_b_equal_r(self, n, b, r):
        assert (_regret_scans([(n, b, r)])[0] >= 0).all()

    def test_nonnegative_over_small_settings(self):
        # every n <= 59, b <= 20 and r <= b but the two settings above, in
        # one pass
        found = [(n, b, r) for n in range(1, 60) for b in range(1, min(n, 20) + 1)
                 for r in range(b + 1) if (n, b, r) not in ((1, 1, 1), (2, 2, 2))]
        assert len(found) == 10_718
        for setting, scan in zip(found, _regret_scans(found)):
            assert (scan >= 0).all(), setting


class TestOneColumnBytes:
    # SHA-256 over the one-column path, recorded before it moved from numpy
    # scalars to plain floats: every field of threshold_curve as float64
    # bytes, then the bytes of mu_hat_curve or the message of its
    # DomainError, for each setting of GRID in order.  The grid covers r = 0,
    # 0 < r < b and r = b, qualities on both sides of 1/2, cutoffs past
    # n - r, and both impossible-conditioning cases (r < b and r = b).
    GRID = [
        (n, b, r, q, c)
        for n, b in [(20, 1), (31, 2), (48, 5), (100, 5)]
        for r in range(b + 1)
        for q in (0.3, 0.5, 0.81)
        for c in (*range(0, n, 7), n)
    ] + [(200, 20, r, q, c) for r, c in [(19, 181), (20, 180)] for q in (0.3, 0.81)]
    FIELDS = (
        "gamma", "gamma_j", "p", "lam", "g_b",
        "e_hires", "e_offline", "candidate_term", "referent_term",
    )
    DIGEST = "1f65788a49c08959a4d159f4867cfe35c5085940cdbdc8fc189066fb9fd875e8"

    def test_pinned_bytes(self):
        h = hashlib.sha256()
        for n, b, r, q, c in self.GRID:
            params = AnalyticParams(n=n, b=b, r=r, q=q, c=c)
            curve = threshold_curve(params)
            for field in self.FIELDS:
                h.update(np.asarray(getattr(curve, field), dtype=np.float64).tobytes())
            try:
                h.update(mu_hat_curve(params).tobytes())
            except DomainError as exc:
                h.update(str(exc).encode())
        assert h.hexdigest() == self.DIGEST


class TestTranslateCutoff:
    def test_identity_at_medium_quality(self):
        res = translate_cutoff(100, 5, 0.5, 0)
        assert res.n_source == 100
        assert res.c_target == res.c_source == optimal_cutoff(100, 5, 0)[0]

    def test_published_quality_08_example(self):
        res = translate_cutoff(100, 15, 0.8, 0)
        assert (res.n_source, res.c_source, res.c_target) == (31, 9, 22)

    def test_quality_075_examples(self):
        assert translate_cutoff(100, 5, 0.75, 0).c_target == 38
        assert translate_cutoff(100, 5, 0.75, 5).c_target == 28

    def test_degenerate_high_quality(self):
        with pytest.warns(UserWarning):
            res = translate_cutoff(100, 15, 0.99, 0)
        assert res.degenerate and res.c_target == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            translate_cutoff(100, 5, 1.0, 0)
        with pytest.raises(DomainError):
            translate_cutoff(100, 5, 0.5, 9)


class TestAnalyzeSetting:
    def test_medium_quality_full_cutoff_hires_zero(self):
        rep = analyze_setting(100, 5, 0, 0.5, c=100)
        assert rep.e_hires == pytest.approx(0.0, abs=1e-12)

    def test_translated_optimum_report(self):
        rep = analyze_setting(100, 5, 0, 0.75)
        assert rep.c_star == 38
        assert rep.n_source == 48 and rep.c_source == 19
        assert rep.e_hires == pytest.approx(1.0, abs=0.02)
        rep5 = analyze_setting(100, 5, 5, 0.75)
        assert rep5.c_star == 28
        assert rep5.e_hires == pytest.approx(5.0, abs=1e-9)

    def test_gamma0_and_offline_reported_at_target_quality(self):
        rep = analyze_setting(100, 5, 0, 0.75)
        assert rep.gamma_0 == pytest.approx(gamma0(0.75, 100, 5))
        assert rep.e_offline == pytest.approx(15.0)


class TestMuHat:
    def test_zero_during_learning(self):
        mu = mu_hat_curve(AnalyticParams(n=50, b=5, r=2, q=0.5, c=20))
        assert np.all(mu[:20] == 0.0)

    def test_no_resignation_unit_denominator(self):
        params = AnalyticParams(n=50, b=5, r=0, q=0.5, c=10)
        mu = mu_hat_curve(params)
        curve = threshold_curve(params)
        lam_n = curve.lam_n
        g1 = analytic_reference.g(4, 50 - 10, lam_n)
        g2 = analytic_reference.g(5, 50 - 10, lam_n)
        assert mu[-1] == pytest.approx(lam_n * g1 + 5 * (1 - g2))

    def test_cutoff_past_n_minus_r_runs_as_n_minus_r(self):
        # the policy runs cutoff 46 as n - r = 45 (core.learning_cutoff)
        past = mu_hat_curve(AnalyticParams(n=50, b=5, r=5, q=0.5, c=46))
        assert np.array_equal(past, mu_hat_curve(AnalyticParams(n=50, b=5, r=5, q=0.5, c=45)))

    def test_impossible_conditioning_raises(self):
        for n, b, r, c in [(200, 20, 20, 180), (1000, 50, 49, 951)]:
            with pytest.raises(DomainError, match="probability zero"):
                mu_hat_curve(AnalyticParams(n=n, b=b, r=r, q=0.5, c=c))

    def test_monotone_nondecreasing(self):
        mu = mu_hat_curve(AnalyticParams(n=100, b=5, r=5, q=0.5, c=30))
        assert np.all(np.diff(mu) >= -1e-9)

    def test_three_sigma_against_rejection_sampling(self):
        n, b, r = 100, 5, 5
        c = optimal_cutoff(n, b, r)[0]
        mu = mu_hat_curve(AnalyticParams(n=n, b=b, r=r, q=0.5, c=c))
        rng = np.random.default_rng(20)
        probes = [c + 1, 50, 100]
        kept = {j: [] for j in probes}
        for _ in range(100):
            # the rounds of 100,000 one-seed calls on rng, 1,000 at a time
            batch = sample_rounds(n, b, 0.5, r, [rng] * 1000)
            results, hired, _ = run_policy_batch(batch, PolicySpec("csm", cutoff=c))
            cum = np.cumsum(hired[results[:, 2] == 0], axis=1)  # failure-free rounds
            for j in probes:
                kept[j].extend(cum[:, j - 1].tolist())
        for j in probes:
            arr = np.asarray(kept[j], dtype=float)
            se = arr.std(ddof=1) / math.sqrt(len(arr))
            # at j = n every failure-free run holds exactly b hires, so se = 0.
            # With these draws the exact curve stays within 1 se at every probe
            # for c = 26..32 (2.8 se at c = 33).  Criterion 8 uses seed 81,
            # where j = 50 misses from c = 30 on; c* here is 27, so a solver
            # change that moves it past 29 should be read against that.
            assert abs(arr.mean() - mu[j - 1]) <= 3 * se + 1e-12


class TestSwitchCount:
    def test_n_rej_law_over_every_order(self):
        # n_rej counts the learning candidates strictly above y_b, the b-th
        # best of the b + c learning items, so those among the b - 1 best:
        # hypergeometric, C(c, k) C(b, b - 1 - k) / C(b + c, b - 1), with mean
        # (b - 1) c / (b + c).  Every order of the n + b scores is equally likely.
        n, b, r, c = 4, 3, 1, 3
        counts = np.zeros(b)
        for perm in itertools.permutations(range(1, n + b + 1)):
            inst = Instance(
                reference_scores=tuple(sorted(perm[:b], reverse=True)),
                availability=(1,) * (b - r) + (0,) * r, candidate_scores=perm[b:],
            )
            counts[_learning_phase(inst, c)[2]] += 1
        law = [math.comb(c, k) * math.comb(b, b - 1 - k) / math.comb(b + c, b - 1)
               for k in range(b)]
        assert counts / counts.sum() == pytest.approx(law, abs=1e-12)


def _beta_binomial_conditional_mean(n, b, c):
    """E[min(K_j, b) | K_n >= b] from the joint beta-binomial law of the counts
    K_j and K_n - K_j of later candidates above y_b (1 - y_b ~ Beta(b, c + 1))."""

    def beta(x, y):
        return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))

    m = n - c
    out = [0.0] * n
    p_ok = 0.0
    for j in range(c + 1, n + 1):
        mj = j - c
        num = 0.0
        for k in range(mj + 1):
            for k2 in range(m - mj + 1):
                if k + k2 < b:
                    continue
                w = (math.comb(mj, k) * math.comb(m - mj, k2)
                     * beta(b + k + k2, c + 1 + m - k - k2) / beta(b, c + 1))
                num += min(k, b) * w
                if j == n:
                    p_ok += w
        out[j - 1] = num
    return np.asarray(out) / p_ok


class TestFullResignation:
    """r = b: the threshold never moves, so the count law is exact."""

    N, B, C = 5, 2, 1

    @staticmethod
    def _all_orders(n, b, c):
        # every relative order of the n + b i.i.d. scores is equally likely
        for perm in itertools.permutations(range(1, n + b + 1)):
            inst = Instance(
                reference_scores=tuple(sorted(perm[:b], reverse=True)),
                availability=(0,) * b, candidate_scores=perm[b:],
            )
            yield inst, run_cutoff(inst, c)

    def test_mu_hat_matches_beta_binomial_sum(self):
        mu = mu_hat_curve(AnalyticParams(n=12, b=3, r=3, q=0.5, c=4))
        assert np.max(np.abs(mu - _beta_binomial_conditional_mean(12, 3, 4))) < 1e-9

    def test_mu_hat_matches_every_order(self):
        n, b, c = self.N, self.B, self.C
        counts, runs = np.zeros(n), 0
        for _, out in self._all_orders(n, b, c):
            if out.failures == 0:
                counts += np.cumsum(out.candidate_decisions)
                runs += 1
        mu = mu_hat_curve(AnalyticParams(n=n, b=b, r=b, q=0.5, c=c))
        assert np.max(np.abs(mu - counts / runs)) < 1e-9
        assert mu[-1] == pytest.approx(b, abs=1e-9)

    def test_hires_and_forced_fill_cost_match_every_order(self):
        n, b, c = self.N, self.B, self.C
        above, forced_rank, total = 0, 0, 0
        for inst, out in self._all_orders(n, b, c):
            total += 1
            above += out.hires - out.failures
            y_b = out.threshold_trace[0]
            for s, hired in zip(inst.candidate_scores, out.candidate_decisions):
                if hired and s < y_b:
                    forced_rank += n + b + 1 - s
        curve = threshold_curve(AnalyticParams(n=n, b=b, r=b, q=0.5, c=c))
        assert curve.e_hires == pytest.approx(above / total, abs=1e-9)
        assert curve.referent_term == pytest.approx(forced_rank / total, abs=1e-9)

    def test_no_offset_at_full_resignation(self):
        vals = [threshold_curve(AnalyticParams(n=48, b=5, r=5, q=0.5, c=c)).expected_regret()
                for c in range(49)]
        assert optimal_cutoff(48, 5, 5)[0] == int(np.argmin(vals))


class TestCutoffTable:
    def test_rows_and_load(self):
        table = {(n, b, r): c_star for n, b, r, c_star, _ in cutoff_table([20, 30], [3], [0, 3])}
        assert sorted(table) == [(20, 3, 0), (20, 3, 3), (30, 3, 0), (30, 3, 3)]
        for (n, b, r), c_star in table.items():
            assert c_star == optimal_cutoff(n, b, r)[0]
        # the translation's source setting is a row of the table
        res = translate_cutoff(42, 3, 0.75, 0)
        assert (res.n_source, res.c_source) == (20, table[(20, 3, 0)])


class TestPoissonPmf:
    def test_bit_identical_to_scipy_stats(self):
        from scipy.stats import poisson

        lam = np.concatenate([[0.0], np.geomspace(1e-6, 80.0, 400)])[:, None]
        k = np.arange(60)
        assert np.array_equal(_poisson_pmf(k, lam), poisson.pmf(k, lam))


class TestAtLeastOnePosition:
    def test_b_below_one_rejected(self):
        for b in (0, -2):
            with pytest.raises(DomainError):
                AnalyticParams(n=10, b=b, r=0, q=0.5, c=3)
            with pytest.raises(DomainError):
                translate_cutoff(10, b, 0.7, 0)
            with pytest.raises(DomainError):
                cutoff_table((10,), (2, b), (0,))
