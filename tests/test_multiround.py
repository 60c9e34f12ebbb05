"""Multi-round driver tests: state evolution, pairing, policy selection."""

import numpy as np
import pytest

import seqselect.core
import seqselect.multiround
from seqselect.core import DomainError
from seqselect.multiround import (
    POLICY_NAMES,
    PopulationSpec,
    compare_policies,
    make_policy_selector,
    run_chain,
)


SMALL = PopulationSpec(size=60, n=20, b=3)


class TestRunChain:
    def test_round_structure(self):
        recs = run_chain(SMALL, 5, 0.4, make_policy_selector("csm-star"), 123)
        assert len(recs) == 5
        for rec in recs:
            assert len(rec.sampled) == SMALL.n
            assert len(set(rec.sampled)) == SMALL.n
            assert sum(rec.outcome.candidate_decisions) + sum(
                rec.outcome.referent_decisions
            ) == SMALL.b
            assert rec.regret >= 0
            assert 0.0 <= rec.quality <= 1.0

    def test_determinism(self):
        a = run_chain(SMALL, 4, 0.5, make_policy_selector("csm-star"), 9)
        b = run_chain(SMALL, 4, 0.5, make_policy_selector("csm-star"), 9)
        assert a == b

    def test_sampled_disjoint_from_employed(self):
        # at p_res = 1 every referent resigns, so the staff of round k + 1 is
        # exactly the hires of round k, and none of them may be sampled again
        for name in ("mean", "csm-star", "acsm-star", "rand"):
            for seed in range(5):
                recs = run_chain(SMALL, 5, 1.0, make_policy_selector(name), seed)
                for prev, rec in zip(recs, recs[1:]):
                    decisions = prev.outcome.candidate_decisions
                    hires = {prev.sampled[j] for j, a in enumerate(decisions) if a}
                    assert len(hires) == SMALL.b
                    assert hires.isdisjoint(rec.sampled), (name, seed, prev.round_index)

    def test_full_resignation_every_round(self):
        recs = run_chain(SMALL, 3, 1.0, make_policy_selector("csm-star"), 77)
        for rec in recs:
            assert sum(rec.resignation_mask) == SMALL.b
            assert rec.outcome.hires == SMALL.b

    def test_no_resignation_regret_trend(self):
        # with a stable staff the selection should improve over rounds
        firsts, lasts = [], []
        for seed in range(40):
            recs = run_chain(PopulationSpec(200, 40, 4), 8, 0.0,
                            make_policy_selector("csm-star"), seed)
            firsts.append(recs[0].regret)
            lasts.append(recs[-1].regret)
        assert np.mean(lasts) < np.mean(firsts)

    def test_ranks_each_round_once(self, monkeypatch):
        calls = []
        rank = seqselect.core.build_rank_context
        monkeypatch.setattr(
            seqselect.core, "build_rank_context", lambda inst: calls.append(1) or rank(inst)
        )
        for name in POLICY_NAMES:
            calls.clear()
            run_chain(SMALL, 4, 0.5, make_policy_selector(name), 8)
            assert len(calls) == 4, name

    def test_rejects_bad_rounds_and_seeds(self):
        for rounds, seed in ((0, 1), (-2, 1), (2, -1), (2, [3, -1])):
            with pytest.raises(DomainError):
                run_chain(SMALL, rounds, 0.5, make_policy_selector("csm-0"), seed)

    def test_p_res_domain(self):
        with pytest.raises(DomainError):
            run_chain(SMALL, 2, 1.5, make_policy_selector("csm-0"), 1)

    def test_single_round_is_one_selection(self):
        recs = run_chain(SMALL, 1, 0.0, make_policy_selector("csm-e"), 5)
        assert len(recs) == 1
        assert recs[0].cutoff == int(20 / np.e)


class TestSelectors:
    def test_tokens(self):
        for name in POLICY_NAMES:
            spec = make_policy_selector(name)(20, 3, 1, 0.6)
            assert spec.variant in ("csm", "acsm", "mean", "rand")

    def test_unknown_token(self):
        with pytest.raises(DomainError):
            make_policy_selector("bogus")

    def test_star_handles_extreme_quality(self):
        sel = make_policy_selector("csm-star")
        assert sel(20, 3, 0, 1.0).cutoff == 0
        assert sel(20, 3, 0, 0.999).cutoff == 0
        low = sel(20, 3, 0, 1e-12)
        assert 0 <= low.cutoff <= 20

    def test_acsm_star_builds_zone(self):
        spec = make_policy_selector("acsm-star")(30, 3, 1, 0.55)
        assert spec.variant == "acsm" and spec.zone is not None
        assert len(spec.zone.mu) == 30


class TestComparePolicies:
    def test_paired_and_deterministic(self):
        a = compare_policies(SMALL, 3, 0.5, ("csm-star", "rand"), 5, 11)
        b = compare_policies(SMALL, 3, 0.5, ("csm-star", "rand"), 5, 11)
        assert a["csm-star"].mean_regret == b["csm-star"].mean_regret
        assert a["rand"].mean_regret == b["rand"].mean_regret

    def test_star_beats_rand(self):
        curves = compare_policies(SMALL, 6, 0.5, ("csm-star", "rand"), 30, 13)
        assert curves["csm-star"].mean_regret[-1] < curves["rand"].mean_regret[-1]

    def test_bad_name_fails_before_any_chain(self, monkeypatch):
        chains = []
        monkeypatch.setattr(seqselect.multiround, "run_chain", lambda *a: chains.append(a))
        with pytest.raises(DomainError):
            compare_policies(SMALL, 2, 0.3, ("csm-star", "nope"), 3, 2)
        assert chains == []

    def test_rejects_bad_counts_and_seeds(self):
        for rounds, runs, seed in ((0, 3, 2), (2, 0, 2), (2, -1, 2), (2, 3, -1)):
            with pytest.raises(DomainError):
                compare_policies(SMALL, rounds, 0.3, ("csm-0",), runs, seed)

    def test_empty_policy_list(self):
        with pytest.raises(DomainError):
            compare_policies(SMALL, 2, 0.3, (), 3, 2)


class TestRepeatedPolicy:
    def test_repeated_name_fails_before_any_chain(self, monkeypatch):
        chains = []
        monkeypatch.setattr(seqselect.multiround, "run_chain", lambda *a: chains.append(a))
        with pytest.raises(DomainError, match="repeat"):
            compare_policies(SMALL, 2, 0.3, ("rand", "csm-0", "rand"), 3, 2)
        assert chains == []
