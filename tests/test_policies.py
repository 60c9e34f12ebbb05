"""Policy engine tests: hand traces, invariants, baselines, zone behavior."""

import math

import numpy as np
import pytest

from seqselect.cli import build_parser
from seqselect.core import (
    DomainError,
    RoundBatch,
    learning_cutoff,
    sample_rounds,
)
from seqselect.montecarlo import ExperimentSpec
from seqselect.multiround import POLICY_NAMES, PopulationSpec, _policy_specs, run_chains
from seqselect.policies import (
    CUTOFF_VARIANTS,
    VARIANTS,
    PolicySpec,
    ZoneConfig,
    policy_spec,
    run_policy_batch,
)
from tests.scalar_engine import (
    is_failure,
    run_adjusted_cutoff,
    run_cutoff,
    run_mean_baseline,
    run_policy,
    run_rand_baseline,
    row_instance,
    spec_row,
)
from tests.test_core import make_instance


class TestCutoffHandTraces:
    def test_accept_third_candidate(self):
        # learning rejects 0.6; threshold falls to the referent score 0.5
        inst = make_instance([0.5], [1], [0.6, 0.4, 0.7])
        out = run_cutoff(inst, 1)
        assert out.candidate_decisions == (0, 0, 1)
        assert out.referent_decisions == (0,)
        assert out.regret == 0
        assert out.threshold_trace == (0.5, 0.5)

    def test_forced_acceptance_is_failure(self):
        inst = make_instance([0.5], [0], [0.9, 0.1])
        out = run_cutoff(inst, 1)
        assert out.candidate_decisions == (0, 1)
        assert out.failures == 1
        assert out.hires == 1

    def test_cutoff_n_with_no_resignations(self):
        inst = row_instance(sample_rounds(8, 3, 0.5, 0, [21]))
        out = run_cutoff(inst, 8)
        assert out.candidate_decisions == (0,) * 8
        assert out.referent_decisions == inst.availability
        assert out.hires == 0

    def test_cutoff_n_with_resignations_forces_last_r(self):
        inst = row_instance(sample_rounds(8, 3, 0.5, 2, [22]))
        out = run_cutoff(inst, 8)
        assert sum(out.candidate_decisions) == 2
        assert out.candidate_decisions[-2:] == (1, 1) or sum(out.candidate_decisions[-2:]) + sum(
            out.candidate_decisions[:-2]
        ) == 2
        # the final r candidates are hired unless merit hires happened first
        assert out.hires == 2
        assert sum(out.referent_decisions) == 1

    def test_threshold_constant_in_first_branch(self):
        # r > 0 keeps the learned threshold until the resigned seats are covered
        inst = make_instance([0.8, 0.2], [1, 0], [0.3, 0.25, 0.9, 0.85, 0.1])
        out = run_cutoff(inst, 2)
        # learning: Y = top2(0.8, 0.2, 0.3, 0.25) -> (0.8, 0.3); n_rej = 0
        # j=3: l=0 < n_rej + r = 1 -> tau = 0.3; 0.9 accepted, fills the resigned seat
        # j=4: l=1 -> second branch: worst available referent 0.8; 0.85 beats it
        assert out.threshold_trace[0] == pytest.approx(0.3)
        assert out.threshold_trace[1] == pytest.approx(0.8)
        assert out.candidate_decisions == (0, 0, 1, 1, 0)
        assert out.referent_decisions == (0, 0)

    def test_fired_in_score_order(self):
        # with r=0 each hire fires the worst remaining available referent
        inst = make_instance([0.9, 0.6, 0.3], [1, 1, 1], [0.95, 0.92, 0.91, 0.05])
        out = run_cutoff(inst, 0)
        # thresholds: 0.3 (worst), then 0.6, then 0.9
        assert out.candidate_decisions == (1, 1, 1, 0)
        assert out.referent_decisions == (0, 0, 0)


class TestThresholdTrace:
    def test_no_entry_during_learning(self):
        # n - min(c, n - r) = 10 - 4 steps after the learning phase
        inst = row_instance(sample_rounds(10, 2, 0.5, 1, [3]))
        assert len(run_cutoff(inst, 4).threshold_trace) == 6

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_entry_per_step_after_learning(self, variant):
        rng = np.random.default_rng(13)
        for _ in range(200):
            b = int(rng.integers(1, 5))
            n = int(rng.integers(b, 15))
            r = int(rng.integers(0, b + 1))
            c = int(rng.integers(0, n + 1))
            inst = row_instance(sample_rounds(n, b, 0.5, r, [rng]))
            zone = ZoneConfig.default(n, b, [min(b, 0.1 * j) for j in range(1, n + 1)])
            spec = PolicySpec(variant, cutoff=c, zone=zone if variant == "acsm" else None)
            out = run_policy(inst, spec, rand_seed=int(rng.integers(0, 2**31)))
            start = learning_cutoff(n, r, c) if variant in CUTOFF_VARIANTS else 0
            assert len(out.threshold_trace) == n - start
            # an entry is None exactly when all b positions were filled before its step
            hires_before = np.cumsum((0,) + out.candidate_decisions)[start:n]
            assert [tau is None for tau in out.threshold_trace] == (hires_before >= b).tolist()


class TestFailureRule:
    def test_forced_below_threshold(self):
        assert is_failure(j=2, hires_before=0, n=2, r=1, score=0.1, threshold=0.9)

    def test_merit_acceptance_is_not_failure(self):
        assert not is_failure(j=5, hires_before=1, n=9, r=1, score=0.9, threshold=0.5)

    def test_wrong_step_is_not_failure(self):
        assert not is_failure(j=3, hires_before=0, n=9, r=1, score=0.1, threshold=0.9)


class TestInvariants:
    @pytest.mark.parametrize("variant", ["csm", "acsm", "mean", "rand"])
    def test_fill_constraint_and_bounds(self, variant):
        rng = np.random.default_rng(77)
        for _ in range(400):
            b = int(rng.integers(1, 6))
            n = int(rng.integers(b, 25))
            r = int(rng.integers(0, b + 1))
            c = int(rng.integers(0, n + 1))
            inst = row_instance(sample_rounds(n, b, 0.5, r, [rng]))
            if variant == "acsm":
                zone = ZoneConfig.default(n, b, [min(b, 0.1 * j) for j in range(1, n + 1)])
                out = run_adjusted_cutoff(inst, c, zone)
            elif variant == "csm":
                out = run_cutoff(inst, c)
            elif variant == "mean":
                out = run_mean_baseline(inst)
            else:
                out = run_rand_baseline(inst, int(rng.integers(0, 2**31)))
            assert sum(out.candidate_decisions) + sum(out.referent_decisions) == b
            assert r <= out.hires <= b
            assert out.regret >= 0
            # the regret, scored here by sorting: generated rounds have no ties
            pool = inst.reference_scores + inst.candidate_scores
            ranks = [1 + sum(x > s for x in pool) for s in pool]
            chosen = [k for k, keep in zip(ranks[:b], out.referent_decisions) if keep]
            chosen += [k for k, hire in zip(ranks[b:], out.candidate_decisions) if hire]
            selectable = [k for k, a in zip(ranks[:b], inst.availability) if a] + ranks[b:]
            assert out.regret == sum(chosen) - sum(sorted(selectable)[:b])

    def test_no_failures_when_no_resignations(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            b = int(rng.integers(1, 5))
            n = int(rng.integers(b, 20))
            c = int(rng.integers(0, n + 1))
            out = run_cutoff(row_instance(sample_rounds(n, b, 0.5, 0, [rng])), c)
            assert out.failures == 0

    def test_decisions_depend_only_on_prefix(self):
        # irrevocability: permuting unseen candidates cannot change earlier decisions
        rng = np.random.default_rng(31)
        inst = row_instance(sample_rounds(12, 3, 0.5, 1, [rng]))
        out = run_cutoff(inst, 4)
        swapped = list(inst.candidate_scores)
        swapped[9], swapped[11] = swapped[11], swapped[9]
        inst2 = make_instance(inst.reference_scores, inst.availability, swapped)
        out2 = run_cutoff(inst2, 4)
        assert out.candidate_decisions[:9] == out2.candidate_decisions[:9]


class TestAdjustedCutoff:
    def test_infinite_zone_equals_plain_cutoff(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            b = int(rng.integers(1, 6))
            n = int(rng.integers(b, 30))
            r = int(rng.integers(0, b + 1))
            c = int(rng.integers(0, n + 1))
            inst = row_instance(sample_rounds(n, b, 0.5, r, [rng]))
            plain = run_cutoff(inst, c)
            adj = run_adjusted_cutoff(inst, c, ZoneConfig.infinite(n))
            assert adj.candidate_decisions == plain.candidate_decisions
            assert adj.referent_decisions == plain.referent_decisions
            assert adj.threshold_trace == plain.threshold_trace
            assert adj.failures == plain.failures

    def test_zero_zone_matches_until_first_acceptance(self):
        # mu = 0, width = 0: in-band exactly while no candidate has been accepted
        rng = np.random.default_rng(23)
        n, b, r = 20, 3, 1
        batch = sample_rounds(n, b, 0.5, r, [rng] * 100)
        for t in range(len(batch)):
            inst = row_instance(batch, t)
            c = 5
            zone = ZoneConfig(mu=(0.0,) * n, width=(0.0,) * n)
            plain = run_cutoff(inst, c)
            adj = run_adjusted_cutoff(inst, c, zone)
            first = next((j for j, a in enumerate(plain.candidate_decisions) if a), n)
            assert adj.candidate_decisions[: first + 1] == plain.candidate_decisions[: first + 1]

    def test_relaxation_below_zone(self):
        # an unreachable band from above forces a relaxed (worse) threshold
        inst = make_instance([0.9, 0.85], [1, 1], [0.5, 0.6, 0.55, 0.52, 0.58])
        n, b = 5, 2
        zone = ZoneConfig(mu=(2.0,) * n, width=(0.0,) * n)
        plain = run_cutoff(inst, 1)
        adj = run_adjusted_cutoff(inst, 1, zone)
        # plain policy accepts nothing (thresholds 0.85 then stay); adjusted one
        # drops its threshold index each step and eventually hires
        assert sum(plain.candidate_decisions) == 0
        assert sum(adj.candidate_decisions) > 0

    def test_tightening_above_zone(self):
        # band pinned at zero with zero width: any hire puts the run above the
        # zone, so the next threshold is tightened and mediocre scores stop passing
        inst = make_instance([0.5, 0.45], [1, 1], [0.8, 0.6, 0.62, 0.61, 0.2])
        n = 5
        zone = ZoneConfig(mu=(0.0,) * n, width=(0.0,) * n)
        plain = run_cutoff(inst, 0)
        adj = run_adjusted_cutoff(inst, 0, zone)
        assert sum(adj.candidate_decisions) <= sum(plain.candidate_decisions)

    def test_batch_band_is_the_scalar_band(self):
        # narrow and zero-width bands leave the band for many steps in a row,
        # so the band's threshold reaches both ends of the scores seen
        rng = np.random.default_rng(5)
        for _ in range(300):
            b = int(rng.integers(1, 6))
            n = int(rng.integers(b, 30))
            r, c = int(rng.integers(0, b + 1)), int(rng.integers(0, n + 1))
            q = float(rng.uniform(0.05, 0.95))
            mu = np.sort(rng.uniform(0.0, b, n))
            width = rng.uniform(0.0, rng.choice([0.0, 1.0, b]), n)
            spec = PolicySpec("acsm", cutoff=c, zone=ZoneConfig(tuple(mu), tuple(width)))
            seeds = rng.integers(0, 2**32, 20).tolist()
            got, _, _ = run_policy_batch(sample_rounds(n, b, q, r, seeds), spec)
            for row, seed in zip(got.tolist(), seeds):
                out = run_policy(row_instance(sample_rounds(n, b, q, r, [seed])), spec)
                assert row == [out.regret, out.hires, out.failures]

    def test_batch_decisions_read_no_joint_ranks(self, monkeypatch):
        # joint ranks only score a round: with them unreadable and the regret
        # stubbed, every variant decides as before, acsm out of its band too
        n, b, r, q, seeds = 20, 4, 2, 0.6, range(30)
        zones = (ZoneConfig(mu=(0.0,) * n, width=(0.0,) * n),  # above once it hires
                 ZoneConfig(mu=(float(b),) * n, width=(0.0,) * n))  # below until full
        specs = [PolicySpec(v, cutoff=5) for v in ("csm", "mean", "rand")]
        specs += [PolicySpec("acsm", cutoff=5, zone=zone) for zone in zones]
        expected = [run_policy_batch(sample_rounds(n, b, q, r, seeds), spec, seeds)[0][:, 1:]
                    for spec in specs]

        def unreadable(batch):
            raise AssertionError("a decision read the joint ranks")

        monkeypatch.setattr(RoundBatch, "ranks", property(unreadable))
        monkeypatch.setattr(RoundBatch, "regret",
                            lambda batch, hired, kept: np.zeros(len(batch), dtype=np.int64))
        for spec, want in zip(specs, expected):
            got, _, _ = run_policy_batch(sample_rounds(n, b, q, r, seeds), spec, seeds)
            assert got[:, 0].tolist() == [0] * len(seeds)
            assert np.array_equal(got[:, 1:], want), spec.variant

    def test_blocks_of_one_batch_run_as_each_runs_alone(self):
        # csm, acsm and mean run one batch; acsm's band is finite, and its
        # rounds leave it above (mu = 0), below (mu = b) or stay in it
        n, b, r, q = 20, 4, 1, 0.6
        batch = sample_rounds(n, b, q, r, range(12))
        flat, ramp = np.zeros(n), np.linspace(0.0, b, n)
        zone = ZoneConfig(np.array([flat, flat + b, ramp, ramp]),
                          np.array([flat, flat, flat + b, flat + 0.5]))
        cutoffs = np.array([5, 5, 5, 3])
        specs = [PolicySpec("csm", 5), PolicySpec("acsm", cutoffs, zone), PolicySpec("mean")]
        got = run_policy_batch(batch, specs)

        def block(rows):
            return RoundBatch(batch.reference_scores[rows], batch.availability[rows],
                              batch.candidate_scores[rows])

        for p, spec in enumerate(specs):
            rows = slice(4 * p, 4 * p + 4)
            alone = run_policy_batch(block(rows), spec)
            for whole, part in zip(got, alone):
                assert np.array_equal(whole[rows], part), spec.variant
        # the band moved some of acsm's rounds off the plain rule, not all
        _, plain, _ = run_policy_batch(block(slice(4, 8)), PolicySpec("csm", cutoffs))
        moved = (got[1][4:8] != plain).any(axis=1)
        assert moved.any() and not moved.all()

    def test_mu_length_must_match(self):
        batch = sample_rounds(10, 2, 0.5, 0, [1])
        spec = PolicySpec("acsm", cutoff=2, zone=ZoneConfig(mu=(0.0,) * 5, width=(0.0,) * 5))
        with pytest.raises(DomainError, match="each band n long"):
            run_policy_batch(batch, spec)

    def test_one_cutoff_for_every_round_or_one_per_round(self):
        batch = sample_rounds(10, 2, 0.5, 1, [1, 2, 3])
        for cutoff in ([2, 2], [2, 2, 2, 2], [[2, 2, 2]]):
            with pytest.raises(DomainError, match="one per round"):
                run_policy_batch(batch, PolicySpec("csm", cutoff=np.array(cutoff)))
        one, _, _ = run_policy_batch(batch, PolicySpec("csm", cutoff=2))
        for cutoff in ([2], [2, 2, 2]):
            each, _, _ = run_policy_batch(batch, PolicySpec("csm", cutoff=np.array(cutoff)))
            assert np.array_equal(one, each)
        # csm runs no band, whatever zone its spec holds
        zone = ZoneConfig(mu=(2.0,) * 10, width=(0.0,) * 10)
        banded, _, _ = run_policy_batch(batch, PolicySpec("csm", cutoff=2, zone=zone))
        assert np.array_equal(one, banded)

    def test_width_length_must_match_mu(self):
        for width in ((0.1,) * 3, (0.1,) * 11):
            with pytest.raises(DomainError, match="equal lengths"):
                ZoneConfig(mu=(0.0,) * 10, width=width)


class TestBaselines:
    def test_mean_accepts_above_reference_mean(self):
        inst = make_instance([0.5], [1], [0.6, 0.1, 0.2])
        out = run_mean_baseline(inst)
        assert out.candidate_decisions == (1, 0, 0)
        assert out.referent_decisions == (0,)

    def test_mean_with_all_resigned_uses_half(self):
        inst = make_instance([0.9, 0.8], [0, 0], [0.6, 0.45, 0.7, 0.1])
        out = run_mean_baseline(inst)
        assert out.threshold_trace[0] == pytest.approx(0.5)
        assert out.candidate_decisions[0] == 1

    def test_mean_threshold_is_the_left_to_right_prefix_mean(self):
        # these referents sum to 2.6500000000000004 left to right and to 2.65
        # compensated (math.fsum, and sum() from Python 3.12 on); the threshold
        # is the left-to-right mean, as the batch engine's cumsum sums it
        refs = (0.95, 0.9, 0.8)
        assert 0.95 + 0.9 + 0.8 != math.fsum(refs)
        out = run_mean_baseline(make_instance(refs, [1, 1, 1], [0.99, 0.97, 0.1]))
        assert out.candidate_decisions == (1, 1, 0)
        assert out.threshold_trace == ((0.95 + 0.9 + 0.8) / 3, (0.95 + 0.9) / 2, 0.95)
        assert out.threshold_trace[0] != math.fsum(refs) / 3

    def test_mean_never_downgrades_except_forced(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            b = int(rng.integers(1, 5))
            n = int(rng.integers(b, 20))
            r = int(rng.integers(0, b + 1))
            inst = row_instance(sample_rounds(n, b, 0.5, r, [rng]))
            out = run_mean_baseline(inst)
            fired = [
                s for s, a, k in zip(
                    inst.reference_scores, inst.availability, out.referent_decisions
                ) if a and not k
            ]
            forced_steps = {
                j for j in range(1, n + 1)
                if out.candidate_decisions[j - 1]
                and is_failure(j, sum(out.candidate_decisions[: j - 1]), n, r,
                               inst.candidate_scores[j - 1], out.threshold_trace[j - 1])
            }
            hires = [
                (j, inst.candidate_scores[j - 1])
                for j in range(1, n + 1) if out.candidate_decisions[j - 1]
            ]
            merit = [s for j, s in hires if j not in forced_steps]
            if fired and merit:
                assert min(merit) > min(fired) or all(
                    s > min(fired) for s in merit
                )

    def test_rand_is_reproducible(self):
        inst = row_instance(sample_rounds(15, 3, 0.5, 1, [9]))
        a = run_rand_baseline(inst, 1234)
        b = run_rand_baseline(inst, 1234)
        assert a == b
        c = run_rand_baseline(inst, 4321)
        assert a != c or a.candidate_decisions == c.candidate_decisions

    def test_rand_needs_a_seed(self):
        # without one, each run would draw fresh OS entropy
        inst = row_instance(sample_rounds(15, 3, 0.5, 1, [9]))
        with pytest.raises(DomainError, match="seed"):
            run_policy(inst, PolicySpec("rand"))
        batch = sample_rounds(15, 3, 0.5, 1, [1, 2, 3])
        # nor may one seed run every round on its draws, or another wrong
        # count reach numpy's broadcasting
        for seeds in (None, [4, None, 6], [7], [7, 8], [7, 8, 9, 10]):
            with pytest.raises(DomainError, match="seed"):
                run_policy_batch(batch, PolicySpec("rand"), seeds)


class TestPolicySpecDispatch:
    def test_cutoff_variants_decide_every_cutoff_site(self):
        # heatmap and failure --policy, ExperimentSpec and the cutoffs that
        # run_chains returns all follow CUTOFF_VARIANTS
        assert VARIANTS == CUTOFF_VARIANTS + ("mean", "rand")
        parser = build_parser()

        def accepts(call, error):
            try:
                call()
            except error:
                return False
            return True

        for variant in VARIANTS:
            cutoff = variant in CUTOFF_VARIANTS
            for argv in (["heatmap", "--n", "10", "--b-values", "2", "--out", "h.csv"],
                         ["failure", "--n", "10", "--b", "2", "--r", "0", "--q", "0.5"]):
                call = lambda: parser.parse_args(argv + ["--policy", variant])
                assert accepts(call, SystemExit) == cutoff, (argv[0], variant)
            call = lambda: ExperimentSpec(n=10, b_values=(2,), c_values=(0, 3), q=0.5,
                                          r_values=(0,), policy=variant)
            assert accepts(call, DomainError) == cutoff, variant
        (cr,) = run_chains(PopulationSpec(size=30, n=10, b=2), 1, 0.5, POLICY_NAMES, 4, 1)
        specs = _policy_specs(POLICY_NAMES, 10, 2, cr.batch.r.tolist(), cr.batch.quality().tolist())
        assert {spec.variant for spec in specs} == set(VARIANTS)
        for spec, cutoffs in zip(specs, cr.cutoffs, strict=True):
            cutoffs = None if cutoffs is None else cutoffs.tolist()
            cutoff = spec.variant in CUTOFF_VARIANTS
            assert cutoffs == (spec.cutoff.tolist() if cutoff else None), spec.variant

    def test_variants(self):
        inst = row_instance(sample_rounds(10, 2, 0.5, 0, [3]))
        assert run_policy(inst, PolicySpec("csm", cutoff=3)) == run_cutoff(inst, 3)
        assert run_policy(inst, PolicySpec("mean")) == run_mean_baseline(inst)
        zone = ZoneConfig.infinite(10)
        assert run_policy(inst, PolicySpec("acsm", cutoff=3, zone=zone)) == run_adjusted_cutoff(
            inst, 3, zone
        )
        assert run_policy(inst, PolicySpec("rand"), rand_seed=7) == run_rand_baseline(inst, 7)

    def test_acsm_requires_zone(self):
        with pytest.raises(Exception):
            PolicySpec("acsm", cutoff=3)

    def test_unknown_variant(self):
        with pytest.raises(Exception):
            PolicySpec("bogus")

    def test_policy_spec_checks_a_given_cutoff_for_every_variant(self):
        for variant in ("csm", "acsm", "mean", "rand"):
            for c in (-1, 11):
                with pytest.raises(DomainError, match="0 <= c <= n"):
                    policy_spec(variant, 10, 2, [0], [0.5], c)
        assert policy_spec("mean", 10, 2, [0], [0.5], 10) == PolicySpec("mean")


class TestAdjustedReducesFailures:
    def test_paired_failure_reduction_at_stressed_cutoff(self):
        # high resignations and a competitive reference set: the band feedback
        # must cut failures relative to the plain policy on paired instances
        n, b, r, q, c = 100, 20, 20, 0.81, 15
        zone = spec_row(policy_spec("acsm", n, b, [r], [q], c), 0).zone
        rng = np.random.default_rng(2718)
        plain_f = adj_f = 0
        batch = sample_rounds(n, b, q, r, [rng] * 800)
        for t in range(len(batch)):
            inst = row_instance(batch, t)
            plain_f += run_cutoff(inst, c).failures
            adj_f += run_adjusted_cutoff(inst, c, zone).failures
        assert adj_f < plain_f
