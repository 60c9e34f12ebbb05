"""Closed-form machinery tests: formulas, solver anchors, translation, mu-hat."""

import csv
import itertools
import math

import numpy as np
import pytest

from seqselect.analytics import (
    AnalyticParams,
    analyze_setting,
    cutoff_table_rows,
    expected_available_rank,
    expected_max_hires,
    expected_offline,
    g_fn,
    gamma0,
    mu_hat_curve,
    optimal_cutoff,
    threshold_curve,
    translate_cutoff,
)
from seqselect.core import DomainError, Instance, build_rank_context, generate_instance
from seqselect.policies import _learning_phase, run_cutoff


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


class TestExpectedOffline:
    def test_no_resignations(self):
        assert expected_offline(100, 5, 0, 0.5) == pytest.approx(15.0)

    def test_full_resignations_value(self):
        g0 = 530 / 6
        expect = 15 + 125 * (g0 + 5) / (2 * g0 * g0)
        assert expected_offline(100, 5, 5, 0.5) == pytest.approx(expect)
        assert expected_offline(100, 5, 5, 0.5) == pytest.approx(15.75, abs=0.01)

    def test_against_simulated_oracle(self):
        from seqselect.core import offline_optimum

        rng = np.random.default_rng(12)
        for b, r in [(5, 0), (5, 5), (20, 10)]:
            vals = np.empty(20000)
            for t in range(len(vals)):
                vals[t] = offline_optimum(generate_instance(100, b, 0.5, r, rng))
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - expected_offline(100, b, r, 0.5)) < 3 * se + 1e-9


class TestGFn:
    def test_poisson_zero_mass(self):
        assert g_fn(1, 0.0) == 1.0
        assert g_fn(5, 0.0) == 1.0

    def test_single_term(self):
        assert g_fn(1, 2.0) == pytest.approx(math.exp(-2.0))

    def test_series_value(self):
        assert g_fn(3, 2.0) == pytest.approx(5 * math.exp(-2.0))

    def test_nonpositive_count(self):
        assert g_fn(0, 1.0) == 0.0
        assert g_fn(-2.5, 1.0) == 0.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            g_fn(1, -0.1)

    def test_monotonicity(self):
        lams = np.linspace(0, 6, 25)
        vals = [g_fn(3.0, l) for l in lams]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
        counts = np.linspace(0.5, 8, 25)
        vals = [g_fn(x, 2.0) for x in counts]
        assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestThresholdCurve:
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
        vals = np.empty(4000)
        for t in range(len(vals)):
            inst = generate_instance(n, b, 0.5, 0, rng)
            pool = sorted(inst.reference_scores + inst.candidate_scores[:c], reverse=True)
            ctx = build_rank_context(inst)
            all_scores = inst.reference_scores + inst.candidate_scores
            ranks = dict(zip(all_scores, ctx.rank_of_referent + ctx.rank_of_candidate))
            vals[t] = ranks[pool[b - 1]]
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

    def test_regret_normalizations(self):
        curve = threshold_curve(AnalyticParams(n=60, b=5, r=2, q=0.5, c=15))
        assert curve.expected_regret("per-item") == pytest.approx(
            curve.expected_regret("total") / 5
        )
        with pytest.raises(DomainError):
            curve.expected_regret("bogus")


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
        hires = np.empty(100_000)
        for t in range(len(hires)):
            hires[t] = run_cutoff(generate_instance(n, b, 0.5, r, rng), c).hires
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
        from seqselect.analytics import _regret_scan

        vals = np.array(_regret_scan(40, 4, 1, 0.5))
        assert np.argmin(vals) == np.argmin(2.7 * vals)

    def test_memoized_and_deterministic(self):
        assert optimal_cutoff(31, 15, 0) == optimal_cutoff(31, 15, 0)


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
        g1 = g_fn(4, lam_n) if 4 <= 50 - 10 else 1.0
        g2 = g_fn(5, lam_n) if 5 <= 50 - 10 else 1.0
        assert mu[-1] == pytest.approx(lam_n * g1 + 5 * (1 - g2))

    def test_impossible_conditioning_raises(self):
        with pytest.raises(DomainError):
            mu_hat_curve(AnalyticParams(n=50, b=5, r=2, q=0.5, c=50))

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
        for _ in range(100_000):
            out = run_cutoff(generate_instance(n, b, 0.5, r, rng), c)
            if out.failures:
                continue
            cum = np.cumsum(out.candidate_decisions)
            for j in probes:
                kept[j].append(cum[j - 1])
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
                n=n, b=b, reference_scores=tuple(sorted(perm[:b], reverse=True)),
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
                n=n, b=b, reference_scores=tuple(sorted(perm[:b], reverse=True)),
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
    def test_rows_and_load(self, tmp_path):
        rows = list(cutoff_table_rows([20, 30], [3], [0, 3]))
        path = tmp_path / "table.csv"
        path.write_text("\n".join(rows) + "\n")
        with open(path, newline="") as fh:
            table = {(int(d["n"]), int(d["b"]), int(d["r"])): int(d["c_star"])
                     for d in csv.DictReader(fh)}
        assert sorted(table) == [(20, 3, 0), (20, 3, 3), (30, 3, 0), (30, 3, 3)]
        for (n, b, r), c_star in table.items():
            assert c_star == optimal_cutoff(n, b, r)[0]
        # the translation's source setting is a row of the table
        res = translate_cutoff(42, 3, 0.75, 0)
        assert (res.n_source, res.c_source) == (20, table[(20, 3, 0)])
