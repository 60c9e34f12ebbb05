"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criteria are asserted at their stated tolerances;
the ones that cannot be met by the closed-form machinery fail here honestly
(the printed detail shows by how much).
"""

import itertools
import math
import time

import numpy as np
import pytest

from seqselect.analytics import (
    AnalyticParams,
    analyze_setting,
    expected_offline,
    mu_hat_curve,
    optimal_cutoff,
    translate_cutoff,
)
from seqselect.core import sample_rounds
from seqselect.montecarlo import run_cell
from seqselect.multiround import PopulationSpec, compare_policies
from seqselect.policies import PolicySpec, ZoneConfig, run_policy_batch


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_analysis_example():
    """Deterministic closed-form anchors for the worked example settings."""
    t0 = time.time()
    rep0 = analyze_setting(100, 5, 0, 0.75)
    rep5 = analyze_setting(100, 5, 5, 0.75)
    elapsed = time.time() - t0
    checks = {
        "c*(r=0)==38": rep0.c_star == 38,
        "c*(r=5)==28": rep5.c_star == 28,
        "E[hires](r=0) in 0.997+-0.005": abs(rep0.e_hires - 0.997) <= 0.005,
        "E[hires](r=5) in 5.0+-1e-6": abs(rep5.e_hires - 5.0) <= 1e-6,
        "runtime < 1s": elapsed < 1.0,
    }
    # soft targets: per-item regret values 2.60 / 3.40 (reported, not asserted)
    soft = (
        f"soft per-item regret: got {rep0.e_regret_per_item:.3f} vs 2.60, "
        f"{rep5.e_regret_per_item:.3f} vs 3.40 (per-item normalization)"
    )
    detail = "; ".join(f"{k}={'ok' if v else 'MISS'}" for k, v in checks.items())
    detail += f"; E[hires](r=0)={rep0.e_hires:.4f}; {soft}; {elapsed:.2f}s"
    ok = all(checks.values())
    assert _report("criterion-1", ok, detail), detail


def test_criterion_2_translation_example():
    """Exact translation chain for the published quality-0.8 setting."""
    t0 = time.time()
    res = translate_cutoff(100, 15, 0.8, 0)
    elapsed = time.time() - t0
    ok = (res.n_source, res.c_source, res.c_target) == (31, 9, 22) and elapsed < 1.0
    detail = (
        f"n_s={res.n_source} (want 31), c_s={res.c_source} (want 9), "
        f"c_t={res.c_target} (want 22), {elapsed:.2f}s"
    )
    assert _report("criterion-2", ok, detail), detail


def test_criterion_3_heatmap_agreement():
    """Analytic vs simulated optimal cutoffs and regret at desk scale."""
    n, q, trials = 100, 0.5, 1000
    lines = []
    ok = True
    for b in (5, 20):
        for r in (0, b):
            best_c, best_val, regret_at = None, math.inf, {}
            for c in range(0, n + 1):
                st = run_cell(n, b, c, q, r, "csm", trials, (17, b, r, c))
                regret_at[c] = st.mean_regret
                if st.mean_regret < best_val:
                    best_val, best_c = st.mean_regret, c
            c_ana = optimal_cutoff(n, b, r)[0]
            gap = abs(best_c - c_ana)
            rel = abs(regret_at[c_ana] - optimal_cutoff(n, b, r)[1]) / regret_at[c_ana]
            good = gap <= 3 and rel <= 0.10
            ok &= good
            lines.append(
                f"(b={b},r={r}): c_sim={best_c} c_ana={c_ana} gap={gap} rel={rel:.1%}"
                f" {'ok' if good else 'MISS'}"
            )
    detail = "; ".join(lines)
    assert _report("criterion-3", ok, detail), detail


def test_criterion_4_failure_rate():
    """Failure rate of the cutoff policy at its optimal cutoff, and the
    adjusted policy's strict improvement on paired seeds."""
    n, b, r, q, trials = 100, 20, 20, 0.81, 10_000
    c_star = translate_cutoff(n, b, q, r).c_target
    csm = run_cell(n, b, c_star, q, r, "csm", trials, 23)
    acsm = run_cell(n, b, c_star, q, r, "acsm", trials, 23)
    rate_ok = abs(csm.failure_rate - 0.58) <= 0.05
    adj_ok = acsm.failure_rate < csm.failure_rate
    detail = (
        f"c*={c_star}, csm rho_f={csm.failure_rate:.4f} (want 0.58+-0.05), "
        f"acsm rho_f={acsm.failure_rate:.4f} (want strictly lower)"
    )
    ok = rate_ok and adj_ok
    assert _report("criterion-4", ok, detail), detail


def test_criterion_5_multiround_ordering():
    """Final-round policy ordering over paired multi-round runs."""
    pop = PopulationSpec(size=1000, n=100, b=5)
    runs, rounds = 200, 10
    policies = ("csm-star", "csm-e", "csm-0", "rand")
    lines = []
    ok = True
    for p_res in (0.0, 0.5, 1.0):
        curves = compare_policies(pop, rounds, p_res, policies, runs, 31)
        fin = {p: curves[p].mean_regret[-1] for p in policies}
        lo = {p: curves[p].ci95_low[-1] for p in policies}
        hi = {p: curves[p].ci95_high[-1] for p in policies}
        star_vs_rand = hi["csm-star"] < lo["rand"]
        star_vs_zero = hi["csm-star"] < lo["csm-0"]
        ok &= star_vs_rand and star_vs_zero
        lines.append(
            f"p={p_res}: star={fin['csm-star']:.1f} rand={fin['rand']:.1f}"
            f"{'ok' if star_vs_rand else 'MISS'} zero={fin['csm-0']:.1f}"
            f"{'ok' if star_vs_zero else 'MISS'}"
        )
        if p_res == 0.0:
            overlap = not (hi["csm-e"] < lo["csm-star"] or hi["csm-star"] < lo["csm-e"])
            ok &= overlap
            lines.append(f"p=0 csm-e overlap={'ok' if overlap else 'MISS'}")
        if p_res == 1.0:
            disjoint = lo["csm-e"] > hi["csm-star"]
            ok &= disjoint
            lines.append(f"p=1 csm-e worse-disjoint={'ok' if disjoint else 'MISS'}")
    detail = "; ".join(lines)
    assert _report("criterion-5", ok, detail), detail


def test_criterion_6_offline_oracle():
    """Exhaustive-subset equivalence and the offline-regret expectation."""
    rng = np.random.default_rng(61)
    brute_ok = True
    for _ in range(1000):
        b = int(rng.integers(1, 5))
        n = int(rng.integers(b, 10 - b + 1))
        r = int(rng.integers(0, b + 1))
        batch = sample_rounds(n, b, 0.5, r, [rng])
        ranks = batch.ranks[0].tolist()
        pool = [rk for rk, a in zip(ranks[:b], batch.availability[0]) if a] + ranks[b:]
        brute = min(sum(s) for s in itertools.combinations(pool, batch.b))
        if batch.offline_optimum()[0] != brute:
            brute_ok = False
            break
    lines = [f"brute-force equivalence={'ok' if brute_ok else 'MISS'}"]
    ok = brute_ok
    for b, r in [(5, 0), (5, 5), (20, 10)]:
        # the rounds of 100,000 one-seed calls on rng, 1,000 at a time
        vals = np.concatenate([sample_rounds(100, b, 0.5, r, [rng] * 1000).offline_optimum()
                               for _ in range(100)]).astype(float)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        diff = abs(vals.mean() - expected_offline(100, b, r, 0.5))
        good = diff <= 3 * se + 1e-9
        ok &= good
        lines.append(
            f"(b={b},r={r}): |sim-formula|={diff:.4f} vs 3se={3 * se:.4f}"
            f" {'ok' if good else 'MISS'}"
        )
    detail = "; ".join(lines)
    assert _report("criterion-6", ok, detail), detail


def test_criterion_7_invariant_suite():
    """Fill constraint, regret sign, rank permutation, adjusted/plain
    coincidence under an infinite zone, and worker-count determinism."""
    rng = np.random.default_rng(71)
    cases = 10_000
    ok = True
    fail_note = ""
    for i in range(cases):
        b = int(rng.integers(1, 6))
        n = int(rng.integers(b, 26))
        r = int(rng.integers(0, b + 1))
        c = int(rng.integers(0, n + 1))
        batch = sample_rounds(n, b, 0.5, r, [rng])
        if sorted(batch.ranks[0].tolist()) != list(range(1, n + b + 1)):
            ok, fail_note = False, f"permutation broken at case {i}"
            break
        results, hired, kept = run_policy_batch(batch, PolicySpec("csm", cutoff=c))
        if hired.sum() + kept.sum() != b:
            ok, fail_note = False, f"fill constraint broken at case {i}"
            break
        if results[0, 0] < 0:
            ok, fail_note = False, f"negative regret at case {i}"
            break
        zone = ZoneConfig.infinite(n)
        _, adj_hired, adj_kept = run_policy_batch(batch, PolicySpec("acsm", c, zone))
        if not (np.array_equal(adj_hired, hired) and np.array_equal(adj_kept, kept)):
            ok, fail_note = False, f"adjusted/plain divergence at case {i}"
            break
    workers_same = run_cell(40, 4, 10, 0.5, 2, "csm", 200, 5, workers=1) == run_cell(
        40, 4, 10, 0.5, 2, "csm", 200, 5, workers=3
    )
    ok &= workers_same
    detail = (
        f"{cases} randomized cases{'' if not fail_note else '; ' + fail_note}; "
        f"worker-count determinism={'ok' if workers_same else 'MISS'}"
    )
    assert _report("criterion-7", ok, detail), detail


def test_criterion_8_mu_hat_validation():
    """No-failure conditional mean of the acceptance count vs the closed form."""
    n, b, r = 100, 5, 5
    c = optimal_cutoff(n, b, r)[0]
    mu = mu_hat_curve(AnalyticParams(n=n, b=b, r=r, q=0.5, c=c))
    rng = np.random.default_rng(81)
    probes = [c + 1, 50, 100]
    kept = {j: [] for j in probes}
    total, chunk = 100_000, 1000
    for _ in range(total // chunk):
        # the rounds of 100,000 one-seed calls on rng, 1,000 at a time
        batch = sample_rounds(n, b, 0.5, r, [rng] * chunk)
        results, hired, _ = run_policy_batch(batch, PolicySpec("csm", cutoff=c))
        cum = np.cumsum(hired[results[:, 2] == 0], axis=1)  # failure-free rounds
        for j in probes:
            kept[j].extend(cum[:, j - 1].tolist())
    ok = True
    lines = [f"c*={c}, kept {len(kept[probes[0]])}/{total} failure-free runs"]
    for j in probes:
        arr = np.asarray(kept[j], dtype=float)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        diff = abs(arr.mean() - mu[j - 1])
        good = diff <= 3 * se + 1e-12
        ok &= good
        lines.append(
            f"j={j}: mu_hat={mu[j - 1]:.4f} sim={arr.mean():.4f} "
            f"|diff|={diff:.4f} vs 3se={3 * se:.4f} {'ok' if good else 'MISS'}"
        )
    detail = "; ".join(lines)
    assert _report("criterion-8", ok, detail), detail
