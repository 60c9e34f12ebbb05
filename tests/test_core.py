"""Core domain tests: ranking, quality, generation, offline oracle, regret."""

import itertools
import math

import numpy as np
import pytest

from seqselect.analytics import AnalyticParams, analyze_setting, translate_cutoff
from seqselect.core import (
    ContractError,
    DomainError,
    Instance,
    RoundBatch,
    check_setting,
    learning_cutoff,
    sample_rounds,
    seed_entropy,
)
from seqselect.montecarlo import ExperimentSpec, run_cell
from seqselect.policies import PolicySpec, run_policy_batch
from tests.scalar_engine import row_instance


def make_instance(refs, avail, cands):
    return Instance(
        reference_scores=tuple(refs), availability=tuple(avail),
        candidate_scores=tuple(cands),
    )


def regret(inst, hired, kept):
    """RoundBatch.regret of one round's decisions, given as 0/1 sequences."""
    return int(inst.batch.regret(np.array([hired], dtype=bool), np.array([kept], dtype=bool))[0])


class TestRankContext:
    """The joint ranking, RoundBatch.ranks: one row per round, the referents'
    ranks, then the candidates'."""

    def test_three_values(self):
        assert make_instance([0.5], [1], [0.6, 0.4]).batch.ranks.tolist() == [[2, 1, 3]]

    def test_two_referents(self):
        inst = make_instance([0.9, 0.8], [1, 1], [0.1, 0.05])
        assert inst.batch.ranks.tolist() == [[1, 2, 3, 4]]

    def test_permutation_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            b = int(rng.integers(1, n + 1))
            ranks = sample_rounds(n, b, 0.5, int(rng.integers(0, b + 1)), [rng]).ranks
            assert sorted(ranks[0].tolist()) == list(range(1, n + b + 1))
        batch = sample_rounds(7, 3, 0.5, 1, range(50))
        assert (np.sort(batch.ranks, axis=1) == np.arange(1, 11)).all()

    def test_tie_break_prefers_earlier(self):
        # duplicated score: referent outranks the candidate carrying the same value
        assert make_instance([0.5], [1], [0.5, 0.1]).batch.ranks.tolist() == [[1, 2, 3]]


class TestQuality:
    def test_medium_quality_anchor(self):
        # referents occupy ranks 51..55 of 105 -> mean rank 53 -> q = 1/2
        refs = [0.5495, 0.5494, 0.5493, 0.5492, 0.5491]
        cands = [0.56 + i * 1e-4 for i in range(50)] + [0.54 - i * 1e-4 for i in range(50)]
        inst = make_instance(refs, [1] * 5, cands)
        assert np.mean(inst.batch.ranks[0, :5]) == 53
        assert inst.batch.quality()[0] == pytest.approx(0.5)

    def test_top_ranks_give_q_one(self):
        inst = make_instance([0.99, 0.98], [1, 1], [0.5, 0.4, 0.3])
        assert inst.batch.quality()[0] == pytest.approx(1.0)

    def test_bottom_ranks_give_q_zero(self):
        inst = make_instance([0.02, 0.01], [1, 1], [0.5, 0.4, 0.3])
        assert inst.batch.quality()[0] == pytest.approx(0.0)


class TestGenerateInstance:
    """The sampling law of sample_rounds, one seed at a time and stacked."""

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            sample_rounds(10, 3, 1.2, 0, [0])
        with pytest.raises(DomainError):
            sample_rounds(10, 3, 0.5, 4, [0])
        with pytest.raises(DomainError):
            sample_rounds(2, 3, 0.5, 0, [0])

    def test_structure(self):
        batch = sample_rounds(20, 4, 0.6, 2, [123])
        assert (len(batch), batch.n, batch.b, batch.r.tolist()) == (1, 20, 4, [2])
        refs = batch.reference_scores[0].tolist()
        assert all(x > y for x, y in zip(refs, refs[1:]))
        lo, hi = max(0.0, 2 * 0.6 - 1), min(1.0, 2 * 0.6)
        assert all(lo <= s <= hi for s in refs)

    def test_quality_inversion(self):
        # mean computed quality within 3 standard errors of the target q
        rng = np.random.default_rng(11)
        trials = 10_000
        for q, (n, b) in [(0.5, (100, 5)), (2 / 3, (100, 5)), (0.75, (100, 50)), (0.8, (100, 5))]:
            # the rounds of trials one-seed calls on rng, stacked
            qs = sample_rounds(n, b, q, 0, [rng] * trials).quality()
            se = qs.std(ddof=1) / math.sqrt(trials)
            assert abs(qs.mean() - q) < 3 * se + 1e-4, (q, n, b, qs.mean(), se)

    def test_quality_extreme_interval(self):
        # q close to 1: referents concentrate near 1 and outrank the candidates
        refs = sample_rounds(50, 3, 0.999, 0, [5]).reference_scores
        assert (refs > 0.99).all()

    def test_worst_referent_rank_matches_order_statistic(self):
        # E[worst referent rank] = b(n+b+1)/(b+1) at q = 1/2
        rng = np.random.default_rng(3)
        trials = 20_000
        worst = sample_rounds(100, 5, 0.5, 0, [rng] * trials).ranks[:, :5].max(axis=1)
        assert abs(worst.mean() - 5 * 106 / 6) < 1.0


class TestOfflineOptimum:
    def test_best_referent(self):
        inst = make_instance([0.99], [1], [0.5, 0.4])
        assert inst.batch.offline_optimum().tolist() == [1]

    def test_hand_example(self):
        inst = make_instance([0.5], [0], [0.9, 0.1, 0.3])
        assert inst.batch.offline_optimum().tolist() == [1]  # picks 0.9

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            b = int(rng.integers(1, 5))
            n = int(rng.integers(b, 10 - b + 1))
            r = int(rng.integers(0, b + 1))
            batch = sample_rounds(n, b, 0.5, r, [rng])
            ranks = batch.ranks[0].tolist()
            pool = [rk for rk, a in zip(ranks[:b], batch.availability[0]) if a] + ranks[b:]
            brute = min(sum(s) for s in itertools.combinations(pool, batch.b))
            assert batch.offline_optimum()[0] == brute


class TestRealizedRegret:
    """RoundBatch.regret: the rank sum of the final assignment minus the
    offline optimum."""

    def test_optimal_selection_gives_zero(self):
        inst = make_instance([0.9], [1], [0.5, 0.4])
        assert regret(inst, (0, 0), (1,)) == 0

    def test_hand_trace(self):
        inst = make_instance([0.5], [0], [0.9, 0.1, 0.3])
        assert regret(inst, (0, 1, 0), (0,)) == 3  # rank 4 chosen, offline rank 1

    def test_fill_constraint_enforced(self):
        batch = make_instance([0.5], [1], [0.9, 0.1]).batch
        with pytest.raises(ContractError, match="fill constraint"):
            batch.regret(np.array([[True, False]]), np.array([[True]]))

    def test_cannot_keep_resigned(self):
        batch = make_instance([0.5], [0], [0.9, 0.1]).batch
        with pytest.raises(ContractError, match="resigned referent"):
            batch.regret(np.array([[False, False]]), np.array([[True]]))

    def test_nonnegative_over_random_outcomes(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            b = int(rng.integers(1, 4))
            n = int(rng.integers(b, 9))
            r = int(rng.integers(0, b + 1))
            inst = row_instance(sample_rounds(n, b, 0.5, r, [rng]))
            keep = [int(a) for a in inst.availability]
            while sum(keep) > b - r:  # should not happen; keep defensive
                keep[keep.index(1)] = 0
            hires_needed = inst.b - sum(keep)
            hire_at = rng.choice(n, size=hires_needed, replace=False)
            A = [1 if j in hire_at else 0 for j in range(n)]
            assert regret(inst, A, keep) >= 0

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(17)
        batch = sample_rounds(8, 3, 0.5, 1, [rng] * 100)
        for t in range(len(batch)):
            inst = row_instance(batch, t)
            keep = list(inst.availability)
            drop = [i for i, a in enumerate(keep) if a][0]
            keep[drop] = 0
            A = [0] * 8
            A[2] = A[5] = 1
            base = regret(inst, A, keep)
            warped = Instance(
                reference_scores=tuple(math.exp(3 * s) for s in inst.reference_scores),
                availability=inst.availability,
                candidate_scores=tuple(math.exp(3 * s) for s in inst.candidate_scores),
            )
            assert regret(warped, A, keep) == base


class TestSeedEntropy:
    def test_integer_or_sequence(self):
        assert seed_entropy(5) == (5,)
        assert seed_entropy(np.int64(5)) == (5,)
        assert seed_entropy([3, np.int64(4)]) == (3, 4)
        assert seed_entropy((0, 2, 9)) == (0, 2, 9)
        # an integer seed and its one-tuple give the same stream
        ss = np.random.SeedSequence
        assert ss(5).generate_state(4).tolist() == ss(seed_entropy(5)).generate_state(4).tolist()

    def test_rejects_negative_empty_and_fractional(self):
        for seed in (-1, (2, -1), (), [], 1.5, (1, 2.5), "7", None):
            with pytest.raises(DomainError, match="seeds must be >= 0"):
                seed_entropy(seed)


class TestLearningCutoff:
    def test_runs_past_n_minus_r_as_n_minus_r(self):
        assert [learning_cutoff(10, 3, c) for c in range(11)] == [*range(8), 7, 7, 7]
        assert learning_cutoff(10, 0, 10) == 10

    def test_one_message_in_every_layer(self):
        batch = sample_rounds(10, 3, 0.5, 1, [0])
        calls = [
            lambda: learning_cutoff(10, 1, 11),
            lambda: run_policy_batch(batch, PolicySpec("csm", cutoff=11)),
            lambda: AnalyticParams(n=10, b=3, r=1, q=0.5, c=11),
            lambda: analyze_setting(10, 3, 1, 0.5, c=11),
            lambda: ExperimentSpec(n=10, b_values=(3,), c_values=(0, 11), q=0.5, r_values=(1,)),
        ]
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == "need 0 <= c <= n, got c=11 n=10"


class TestCheckSetting:
    def test_one_message_in_every_layer(self):
        calls = [
            lambda: check_setting(10, 2, 3),
            lambda: Instance((), (), (0.1, 0.2, 0.3)),
            lambda: Instance((0.9, 0.5, 0.1), (1, 1, 1), (0.2, 0.3)),
            lambda: sample_rounds(10, 2, 0.5, 3, [0]),
            lambda: sample_rounds(10, 0, 0.5, 0, [1, 2]),
            lambda: AnalyticParams(n=10, b=2, r=3, q=0.5, c=0),
            lambda: translate_cutoff(10, 2, 0.7, 3),
            lambda: run_cell(10, 2, 0, 0.5, 3, "csm", 5, 1),
        ]
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == "need 0 <= r <= b <= n and b >= 1"


class TestRoundBatch:
    SEEDS = (3, 11, 12, 40)

    def test_rows_are_the_generated_instances(self):
        batch = sample_rounds(9, 4, 0.7, 2, self.SEEDS)
        assert (batch.n, batch.b, batch.r.tolist()) == (9, 4, [2] * len(self.SEEDS))
        # four fresh seeds draw the resigned positions by Floyd's raw-word
        # loop, and one seed by numpy's own choice
        for t, seed in enumerate(self.SEEDS):
            one = sample_rounds(9, 4, 0.7, 2, [seed])
            for name in ("reference_scores", "availability", "candidate_scores", "ranks"):
                assert getattr(batch, name)[t].tolist() == getattr(one, name)[0].tolist(), name
            assert batch.offline_optimum()[t] == one.offline_optimum()[0]

    def test_ranks_break_ties_as_one_round(self):
        inst = make_instance([0.5, 0.3], [1, 1], [0.5, 0.3, 0.5])
        assert inst.batch.ranks.tolist() == [[1, 4, 2, 5, 3]]
        # an earlier item outranks a later one with the same score, in every row
        batch = RoundBatch(np.array([[0.5], [0.9]]), np.array([[1], [1]]),
                           np.array([[0.5, 0.7, 0.5], [0.2, 0.2, 0.3]]))
        assert batch.ranks.tolist() == [[2, 3, 1, 4], [1, 3, 4, 2]]

    def test_no_seeds_rejected(self):
        with pytest.raises(DomainError, match="at least one seed"):
            sample_rounds(5, 2, 0.5, 0, [])

    def test_regret_checks_the_decisions(self):
        batch = sample_rounds(4, 2, 0.5, 1, (5, 6))
        kept = batch.availability == 1
        hired = np.zeros((2, 4), dtype=bool)
        hired[:, 0] = True
        assert batch.regret(hired, kept).shape == (2,)
        with pytest.raises(ContractError, match="fill constraint"):
            batch.regret(np.zeros((2, 4), dtype=bool), kept)
        hired[:, 0] = False
        with pytest.raises(ContractError, match="resigned referent"):
            batch.regret(hired, np.ones((2, 2), dtype=bool))

    def test_r_is_derived_per_row(self):
        rounds = [sample_rounds(9, 4, 0.7, r, [seed]) for r, seed in ((2, 3), (0, 11), (4, 12))]
        batch = RoundBatch(*(np.concatenate([getattr(one, name) for one in rounds])
                             for name in ("reference_scores", "availability", "candidate_scores")))
        assert batch.r.tolist() == [2, 0, 4]
        assert batch.quality().tolist() == [one.quality()[0] for one in rounds]

    # r: the resignations the availability marks, which RoundBatch derives
    @pytest.mark.parametrize("r, refs, avail, cands, message", [
        (0, [[0.9, 0.4]], [[1, 1]], [[0.1, 0.2]] * 2, "candidate_scores must be a"),
        (0, [[0.9]], [[1, 1]], [[0.1, 0.2, 0.3]], "must be \\(T, b\\) arrays"),
        (0, [[0.9, 0.4]], [[1, 2]], [[0.1, 0.2, 0.3]], "availability entries must be 0 or 1"),
        (1, [[0.9, 0.4]] * 2, [[1, 0], [1, 1]], [[0.1]] * 2, "need 0 <= r <= b <= n and b >= 1"),
        (0, [[0.9, 0.4]], [[1, 1]], [[0.1, math.nan, 0.3]], "scores must be finite"),
        (0, [[math.inf, 0.4]], [[1, 1]], [[0.1, 0.2, 0.3]], "scores must be finite"),
        (0, [[0.4, 0.4]], [[1, 1]], [[0.1, 0.2, 0.3]], "strictly descending"),
        (0, [0.9, 0.4], [1, 1], [0.1, 0.2, 0.3], "must be \\(T, b\\) arrays"),
        (2, [[0.9, 0.4]], [[0, 0]], [[0.1]], "need 0 <= r <= b <= n and b >= 1"),
        (1, [[0.9, 0.4]] * 2, [[1., 0.], [1., 1.]], [[0.1]] * 2,
         "need 0 <= r <= b <= n and b >= 1"),
    ])
    def test_domain_checks(self, r, refs, avail, cands, message):
        assert (np.asarray(avail) == 0).sum() == r
        with pytest.raises(DomainError, match=message):
            RoundBatch(np.array(refs), np.array(avail), np.array(cands))


class TestInstanceBoundary:
    REFS, AVAIL, CANDS = (0.9, 0.4), (1, 0), (0.2, 0.7, 0.5)

    def test_arrays_lists_and_tuples_freeze_alike(self):
        built = [
            Instance(np.array(self.REFS), np.array(self.AVAIL), np.array(self.CANDS)),
            Instance(list(self.REFS), [True, False], list(self.CANDS)),
            Instance(self.REFS, self.AVAIL, self.CANDS),
        ]
        assert built[0] == built[1] == built[2]
        assert len({hash(inst) for inst in built}) == 1
        for inst in built:
            assert (inst.reference_scores, inst.availability, inst.candidate_scores) == (
                self.REFS, self.AVAIL, self.CANDS)
            assert all(type(s) is float for s in inst.reference_scores + inst.candidate_scores)
            assert all(type(a) is int for a in inst.availability)

    def test_generated_instance_holds_python_numbers(self):
        inst = row_instance(sample_rounds(10, 3, 0.5, 1, [4]))
        assert all(type(s) is float for s in inst.reference_scores + inst.candidate_scores)
        assert all(type(a) is int for a in inst.availability)

    @pytest.mark.parametrize("field, ragged", [
        ("reference_scores", False), ("availability", False), ("candidate_scores", False),
        ("reference_scores", True),
    ], ids=["reference_scores", "availability", "candidate_scores", "reference_scores-ragged"])
    def test_rejects_two_dimensional_field(self, field, ragged):
        fields = {"reference_scores": self.REFS, "availability": self.AVAIL,
                  "candidate_scores": self.CANDS}
        fields[field] = [[0.9, 0.1], [0.5]] if ragged else np.array(fields[field])[:, None]
        with pytest.raises(DomainError, match=f"{field} must be one-dimensional"):
            Instance(**fields)

    def test_rejects_fractional_availability(self):
        # checked before the cast to int, which would truncate 0.5 to 0
        with pytest.raises(DomainError, match="availability entries must be 0 or 1"):
            Instance([0.9, 0.5], [0.5, 1.0], [0.1, 0.2, 0.3])

    # n and b: the lengths of the candidate and reference arrays, which Instance derives
    @pytest.mark.parametrize("n, b, refs, avail, cands, message", [
        (3, 0, (), (), (0.1, 0.2, 0.3), "need 0 <= r <= b <= n and b >= 1"),
        (3, 2, (0.9, 0.4), (1, 1, 1), (0.1, 0.2, 0.3), "availability must have length b"),
        (3, 2, (0.9, 0.4), (1,), (0.1, 0.2, 0.3), "availability must have length b"),
        (1, 2, (0.9, 0.4), (0, 1), (0.1,), "need 0 <= r <= b <= n and b >= 1"),
        (3, 2, (0.9, 0.4), (1, 2), (0.1, 0.2, 0.3), "availability entries must be 0 or 1"),
        (3, 2, (0.9, 0.4), (1, 1), (0.1, math.nan, 0.3), "scores must be finite"),
        (3, 2, (math.inf, 0.4), (1, 1), (0.1, 0.2, 0.3), "scores must be finite"),
        (3, 2, (0.4, 0.4), (1, 1), (0.1, 0.2, 0.3), "strictly descending"),
    ])
    def test_domain_checks(self, n, b, refs, avail, cands, message):
        assert (len(cands), len(refs)) == (n, b)
        with pytest.raises(DomainError, match=message):
            Instance(np.array(refs), np.array(avail, dtype=int), list(cands))

    def test_batch_is_the_round_as_one_row(self):
        inst = Instance(self.REFS, self.AVAIL, self.CANDS)
        batch = inst.batch
        assert (len(batch), batch.n, batch.b, batch.r.tolist()) == (1, 3, 2, [1])
        assert batch.reference_scores.tolist() == [list(self.REFS)]
        assert batch.availability.tolist() == [list(self.AVAIL)]
        assert batch.candidate_scores.tolist() == [list(self.CANDS)]
        assert batch.ranks.tolist() == [[1, 4, 5, 2, 3]]
        # derived: left out of equality, hashing and repr
        assert "batch" not in repr(inst)
        assert Instance(self.REFS, self.AVAIL, self.CANDS) == inst

    def test_n_b_and_r_come_from_the_arrays(self):
        inst = Instance(self.REFS, self.AVAIL, self.CANDS)
        assert (inst.n, inst.b, inst.r) == (3, 2, 1)
        with pytest.raises(TypeError):
            Instance(3, 2, self.REFS, self.AVAIL, self.CANDS)
        with pytest.raises(TypeError):
            Instance(self.REFS, self.AVAIL, self.CANDS, n=3)
