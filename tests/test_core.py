"""Core domain tests: ranking, quality, generation, offline oracle, regret."""

import itertools
import json
import math

import numpy as np
import pytest

from seqselect.core import (
    ContractError,
    DomainError,
    Instance,
    SelectionOutcome,
    build_rank_context,
    compute_quality,
    generate_instance,
    offline_optimum,
    realized_regret,
)


def make_instance(refs, avail, cands):
    return Instance(
        n=len(cands), b=len(refs),
        reference_scores=tuple(refs), availability=tuple(avail),
        candidate_scores=tuple(cands),
    )


class TestRankContext:
    def test_three_values(self):
        ctx = build_rank_context(make_instance([0.5], [1], [0.6, 0.4]))
        assert ctx.rank_of_referent == (2,)
        assert ctx.rank_of_candidate == (1, 3)

    def test_two_referents(self):
        ctx = build_rank_context(make_instance([0.9, 0.8], [1, 1], [0.1, 0.05]))
        assert ctx.rank_of_referent == (1, 2)
        assert ctx.rank_of_candidate == (3, 4)

    def test_permutation_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            b = int(rng.integers(1, n + 1))
            inst = generate_instance(n, b, 0.5, int(rng.integers(0, b + 1)), rng)
            ctx = build_rank_context(inst)
            assert sorted(ctx.rank_of_referent + ctx.rank_of_candidate) == list(
                range(1, n + b + 1)
            )

    def test_tie_break_prefers_earlier(self):
        # duplicated score: referent outranks the candidate carrying the same value
        inst = make_instance([0.5], [1], [0.5, 0.1])
        ctx = build_rank_context(inst)
        assert ctx.rank_of_referent == (1,)
        assert ctx.rank_of_candidate == (2, 3)


class TestQuality:
    def test_medium_quality_anchor(self):
        # referents occupy ranks 51..55 of 105 -> mean rank 53 -> q = 1/2
        refs = [0.5495, 0.5494, 0.5493, 0.5492, 0.5491]
        cands = [0.56 + i * 1e-4 for i in range(50)] + [0.54 - i * 1e-4 for i in range(50)]
        inst = make_instance(refs, [1] * 5, cands)
        ctx = build_rank_context(inst)
        assert np.mean(ctx.rank_of_referent) == 53
        assert compute_quality(inst) == pytest.approx(0.5)

    def test_top_ranks_give_q_one(self):
        inst = make_instance([0.99, 0.98], [1, 1], [0.5, 0.4, 0.3])
        assert compute_quality(inst) == pytest.approx(1.0)

    def test_bottom_ranks_give_q_zero(self):
        inst = make_instance([0.02, 0.01], [1, 1], [0.5, 0.4, 0.3])
        assert compute_quality(inst) == pytest.approx(0.0)


class TestGenerateInstance:
    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            generate_instance(10, 3, 1.2, 0, 0)
        with pytest.raises(DomainError):
            generate_instance(10, 3, 0.5, 4, 0)
        with pytest.raises(DomainError):
            generate_instance(2, 3, 0.5, 0, 0)

    def test_structure(self):
        inst = generate_instance(20, 4, 0.6, 2, 123)
        assert inst.n == 20 and inst.b == 4 and inst.r == 2
        assert all(x > y for x, y in zip(inst.reference_scores, inst.reference_scores[1:]))
        lo, hi = max(0.0, 2 * 0.6 - 1), min(1.0, 2 * 0.6)
        assert all(lo <= s <= hi for s in inst.reference_scores)

    def test_quality_inversion(self):
        # mean computed quality within 3 standard errors of the target q
        rng = np.random.default_rng(11)
        trials = 10_000
        for q, (n, b) in [(0.5, (100, 5)), (2 / 3, (100, 5)), (0.75, (100, 50)), (0.8, (100, 5))]:
            qs = np.empty(trials)
            for t in range(trials):
                qs[t] = compute_quality(generate_instance(n, b, q, 0, rng))
            se = qs.std(ddof=1) / math.sqrt(trials)
            assert abs(qs.mean() - q) < 3 * se + 1e-4, (q, n, b, qs.mean(), se)

    def test_quality_extreme_interval(self):
        # q close to 1: referents concentrate near 1 and outrank the candidates
        inst = generate_instance(50, 3, 0.999, 0, 5)
        assert all(s > 0.99 for s in inst.reference_scores)

    def test_worst_referent_rank_matches_order_statistic(self):
        # E[worst referent rank] = b(n+b+1)/(b+1) at q = 1/2
        rng = np.random.default_rng(3)
        trials = 20_000
        worst = np.empty(trials)
        for t in range(trials):
            ctx = build_rank_context(generate_instance(100, 5, 0.5, 0, rng))
            worst[t] = max(ctx.rank_of_referent)
        assert abs(worst.mean() - 5 * 106 / 6) < 1.0


class TestOfflineOptimum:
    def test_best_referent(self):
        inst = make_instance([0.99], [1], [0.5, 0.4])
        assert offline_optimum(inst) == 1

    def test_hand_example(self):
        inst = make_instance([0.5], [0], [0.9, 0.1, 0.3])
        assert offline_optimum(inst) == 1  # picks 0.9

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            b = int(rng.integers(1, 5))
            n = int(rng.integers(b, 10 - b + 1))
            r = int(rng.integers(0, b + 1))
            inst = generate_instance(n, b, 0.5, r, rng)
            ctx = build_rank_context(inst)
            pool = [
                rk for rk, a in zip(ctx.rank_of_referent, inst.availability) if a
            ] + list(ctx.rank_of_candidate)
            brute = min(sum(s) for s in itertools.combinations(pool, inst.b))
            assert offline_optimum(inst) == brute


class TestRealizedRegret:
    def test_optimal_selection_gives_zero(self):
        inst = make_instance([0.9], [1], [0.5, 0.4])
        out = SelectionOutcome((0, 0), (1,), 0, 0, 0)
        assert realized_regret(inst, out) == 0

    def test_hand_trace(self):
        inst = make_instance([0.5], [0], [0.9, 0.1, 0.3])
        out = SelectionOutcome((0, 1, 0), (0,), 1, 1, 0)
        assert realized_regret(inst, out) == 3  # rank 4 chosen, offline rank 1

    def test_fill_constraint_enforced(self):
        inst = make_instance([0.5], [1], [0.9, 0.1])
        with pytest.raises(ContractError):
            realized_regret(inst, SelectionOutcome((1, 0), (1,), 1, 0, 0))

    def test_cannot_keep_resigned(self):
        inst = make_instance([0.5], [0], [0.9, 0.1])
        with pytest.raises(ContractError):
            realized_regret(inst, SelectionOutcome((0, 0), (1,), 0, 0, 0))

    def test_nonnegative_over_random_outcomes(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            b = int(rng.integers(1, 4))
            n = int(rng.integers(b, 9))
            r = int(rng.integers(0, b + 1))
            inst = generate_instance(n, b, 0.5, r, rng)
            keep = [int(a) for a in inst.availability]
            while sum(keep) > b - r:  # should not happen; keep defensive
                keep[keep.index(1)] = 0
            hires_needed = inst.b - sum(keep)
            hire_at = rng.choice(n, size=hires_needed, replace=False)
            A = [1 if j in hire_at else 0 for j in range(n)]
            out = SelectionOutcome(tuple(A), tuple(keep), sum(A), 0, 0)
            assert realized_regret(inst, out) >= 0

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            inst = generate_instance(8, 3, 0.5, 1, rng)
            keep = list(inst.availability)
            drop = [i for i, a in enumerate(keep) if a][0]
            keep[drop] = 0
            A = [0] * 8
            A[2] = A[5] = 1
            out = SelectionOutcome(tuple(A), tuple(keep), 2, 0, 0)
            base = realized_regret(inst, out)
            warped = Instance(
                n=inst.n, b=inst.b,
                reference_scores=tuple(math.exp(3 * s) for s in inst.reference_scores),
                availability=inst.availability,
                candidate_scores=tuple(math.exp(3 * s) for s in inst.candidate_scores),
            )
            assert realized_regret(warped, out) == base


class TestSerialization:
    def test_round_trip_and_field_names(self):
        inst = generate_instance(6, 2, 0.5, 1, 0)
        d = json.loads(inst.to_json())
        assert set(d) == {"n", "b", "reference_scores", "availability", "candidate_scores"}
        assert Instance.from_json(inst.to_json()) == inst

    def test_outcome_fields(self):
        out = SelectionOutcome((0, 1), (0,), 1, 0, 2, (0.5, None))
        d = json.loads(out.to_json())
        assert set(d) == {
            "decisions", "referent_decisions", "hires", "failures", "regret", "thresholds",
        }
        assert d["thresholds"] == [0.5, None]
