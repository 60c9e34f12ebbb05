"""Multi-round driver tests: state evolution, pairing, policy selection."""

import hashlib
from collections import OrderedDict
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqselect.analytics
import seqselect.multiround
from seqselect.core import DomainError, RoundBatch, seed_entropy
from seqselect.multiround import (
    POLICY_NAMES,
    PopulationSpec,
    _draw_chains,
    _members,
    _policy_specs,
    compare_policies,
    run_chains,
)


SMALL = PopulationSpec(size=60, n=20, b=3)


def _row(cr, t):
    """Row t of every field of a ChainRound, as Python values."""
    batch = cr.batch
    chains = len(batch) // len(cr.cutoffs)
    cutoff = cr.cutoffs[t // chains]
    return (batch.reference_scores[t].tolist(), batch.availability[t].tolist(),
            batch.candidate_scores[t].tolist(), cr.sampled[t].tolist(),
            None if cutoff is None else cutoff[t % chains].item(), cr.hired[t].tolist(),
            cr.kept[t].tolist(), cr.results[t].tolist())


def _per_run(chain, runs):
    """compare_policies' per_run rows of one policy's run_chains rounds."""
    rows = []
    for i in range(runs):
        for k, cr in enumerate(chain, 1):
            (cutoffs,) = cr.cutoffs
            cutoff = None if cutoffs is None else int(cutoffs[i])
            rows.append((i, k, *map(int, cr.results[i]), float(cr.batch.quality()[i]), cutoff))
    return tuple(rows)


class TestRunChain:
    def test_round_structure(self):
        chain = run_chains(SMALL, 5, 0.4, ["csm-star"], [123])
        assert len(chain) == 5
        for cr in chain:
            assert cr.sampled.shape == (1, SMALL.n)
            assert len(set(cr.sampled[0].tolist())) == SMALL.n
            assert (cr.hired.sum(axis=1) + cr.kept.sum(axis=1)).tolist() == [SMALL.b]
            assert cr.results[0, 0] >= 0
            assert 0.0 <= cr.batch.quality()[0] <= 1.0

    def test_determinism(self):
        a = run_chains(SMALL, 4, 0.5, ["csm-star"], [9])
        b = run_chains(SMALL, 4, 0.5, ["csm-star"], [9])
        assert [_row(cr, 0) for cr in a] == [_row(cr, 0) for cr in b]

    def test_sampled_disjoint_from_employed(self):
        # at p_res = 1 every referent resigns, so the staff of round k + 1 is
        # exactly the hires of round k, and none of them may be sampled again
        for name in ("mean", "csm-star", "acsm-star", "rand"):
            chain = run_chains(SMALL, 5, 1.0, [name], range(5))
            for k, (prev, cr) in enumerate(zip(chain, chain[1:]), 1):
                for seed in range(5):
                    hires = set(prev.sampled[seed][prev.hired[seed]].tolist())
                    assert len(hires) == SMALL.b
                    assert hires.isdisjoint(cr.sampled[seed].tolist()), (name, seed, k)

    def test_full_resignation_every_round(self):
        for cr in run_chains(SMALL, 3, 1.0, ["csm-star"], [77]):
            assert (~cr.batch.availability).sum() == SMALL.b
            assert cr.results[0, 1] == SMALL.b

    def test_no_resignation_regret_trend(self):
        # with a stable staff the selection should improve over rounds
        chain = run_chains(PopulationSpec(200, 40, 4), 8, 0.0, ["csm-star"], range(40))
        assert np.mean(chain[-1].results[:, 0]) < np.mean(chain[0].results[:, 0])

    def test_ranks_each_round_once(self, monkeypatch):
        # quality and regret read one ranking: the round's batch
        calls = []
        rank = RoundBatch.ranks.func
        counted = cached_property(lambda batch: calls.append(len(batch)) or rank(batch))
        counted.__set_name__(RoundBatch, "ranks")
        monkeypatch.setattr(RoundBatch, "ranks", counted)
        for name in POLICY_NAMES:
            calls.clear()
            run_chains(SMALL, 4, 0.5, [name], [8])
            assert calls == [1] * 4, name
            # chains in one call share one ranking per round index
            calls.clear()
            run_chains(SMALL, 4, 0.5, [name], [8, 9, 10])
            assert calls == [3] * 4, name
        # compare_policies runs every policy's chains of a round index as one
        # batch of policies x runs rows: one ranking, whose quality selects
        # every policy, then at most one cutoff scan pass for the rows of
        # both translating policies
        scan = seqselect.analytics._scan_pass
        monkeypatch.setattr(seqselect.analytics, "_scan_pass",
                            lambda *args, **kw: calls.append("scan") or scan(*args, **kw))
        monkeypatch.setattr(seqselect.analytics, "_solved", OrderedDict())  # every setting cold
        calls.clear()
        compare_policies(SMALL, 4, 0.5, ("csm-star", "acsm-star", "mean", "rand"), 3, 5)
        assert [call for call in calls if call != "scan"] == [12] * 4
        assert calls[:2] == [12, "scan"]
        assert all(before != "scan" for before, call in zip(calls, calls[1:]) if call == "scan")

    def test_rejects_bad_rounds_and_seeds(self):
        for rounds, seed in ((0, 1), (-2, 1), (2, -1), (2, [3, -1])):
            with pytest.raises(DomainError):
                run_chains(SMALL, rounds, 0.5, ["csm-0"], [seed])
        with pytest.raises(DomainError, match="at least one seed"):
            run_chains(SMALL, 2, 0.5, ["csm-0"], [])

    def test_p_res_domain(self):
        with pytest.raises(DomainError):
            run_chains(SMALL, 2, 1.5, ["csm-0"], [1])

    @pytest.mark.parametrize("p_res", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_a_chain_does_not_depend_on_its_batch_mates(self, name, p_res):
        # chain t runs in one batch with the others, so it must be the chain
        # its seed runs alone: this is the pairing compare_policies relies on
        seeds = [3, [4, 1], 0, 17, [4, 2]]
        together = run_chains(SMALL, 4, p_res, [name], seeds)
        for t, seed in enumerate(seeds):
            alone = run_chains(SMALL, 4, p_res, [name], [seed])
            assert [_row(cr, t) for cr in together] == [_row(cr, 0) for cr in alone], seed

    @pytest.mark.parametrize("p_res", (0.0, 0.5, 1.0))
    def test_a_policy_block_is_the_policy_alone(self, p_res):
        # every policy runs in one batch per round index, so row p T + t must
        # be row t of the chains that names[p] runs alone on the same seeds
        seeds = [3, [4, 1], 0, 17, [4, 2]]
        names = list(np.random.default_rng([7, int(10 * p_res)]).permutation(POLICY_NAMES))
        together = run_chains(SMALL, 3, p_res, names, seeds)
        assert all(len(cr.cutoffs) == len(names) for cr in together)
        for p, name in enumerate(names):
            alone = run_chains(SMALL, 3, p_res, [name], seeds)
            for t in range(len(seeds)):
                assert ([_row(cr, p * len(seeds) + t) for cr in together]
                        == [_row(cr, t) for cr in alone]), (name, t)

    def test_names_are_checked_before_any_draw(self, monkeypatch):
        chains = []
        monkeypatch.setattr(seqselect.multiround, "_draw_chains", lambda *a: chains.append(a))
        for names, match in (([], "non-empty"), (["csm-0", "bogus"], "unknown"),
                             (["rand", "csm-0", "rand"], "repeat")):
            with pytest.raises(DomainError, match=match):
                run_chains(SMALL, 2, 0.5, names, [1])
        # the similar setting of a quality near 0 at n = 3,000 has n = 6,003
        for names in (["mean", "csm-star"], ["acsm-star"]):
            with pytest.raises(DomainError, match="cutoff scan"):
                run_chains(PopulationSpec(4000, 3000, 5), 1, 0.5, names, [1])
        assert chains == []

    def test_policy_specs_runs_once_per_round_index(self, monkeypatch):
        # one call builds the specs of every chain of every policy at a
        # round index
        calls = []
        specs = seqselect.multiround.policy_specs

        def counting(policies, n, b, r, q):
            calls.append((len(policies), len(r), len(q)))
            return specs(policies, n, b, r, q)

        monkeypatch.setattr(seqselect.multiround, "policy_specs", counting)
        run_chains(SMALL, 4, 0.5, ["acsm-star"], [1, 2, 3])
        assert calls == [(1, 3, 3)] * 4
        calls.clear()
        run_chains(SMALL, 4, 0.5, ["acsm-star", "mean", "csm-star"], [1, 2, 3])
        assert calls == [(3, 9, 9)] * 4

    def test_single_round_is_one_selection(self):
        (cr,) = run_chains(SMALL, 1, 0.0, ["csm-e"], [5])
        (cutoffs,) = cr.cutoffs
        assert cutoffs.tolist() == [int(20 / np.e)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1),
       st.one_of(st.integers(1, 300), st.integers(10_001, 10_400)).flatmap(
           lambda size: st.tuples(st.just(size), st.integers(0, min(size - 1, 12)))),
       st.integers(1, 3), st.data())
def test_a_sample_is_its_positions_among_the_eligible_members(seed, pool, chains, data):
    # the draw step takes a round's sample positions from the stream alone,
    # and the round loop maps them to members with no per-chain draw
    size, b = pool
    employed = np.array([data.draw(st.lists(st.integers(0, size - 1), min_size=b, max_size=b,
                                            unique=True)) for _ in range(chains)],
                        dtype=np.int64).reshape(chains, b)
    n = data.draw(st.integers(0, size - b))
    positions = np.empty((chains, n), dtype=np.int64)
    samples = []
    for t in range(chains):
        mask = np.ones(size, dtype=bool)
        mask[employed[t]] = False
        eligible = np.flatnonzero(mask)
        positions[t] = np.random.default_rng([seed, t]).choice(size - b, size=n, replace=False)
        samples.append(np.random.default_rng([seed, t]).choice(eligible, size=n, replace=False))
        assert np.array_equal(samples[t], eligible[positions[t]])
    assert np.array_equal(_members(positions, employed), np.array(samples).reshape(chains, n))


def spawn_tree_draws(pop, rounds, p_res, seeds):
    """The reference of _draw_chains: each chain's draws from its own
    SeedSequence spawn tree, one chain and one round at a time, the RAND
    seeds as the SeedSequences themselves."""
    scores, staff, per_round = [], [], [([], [], []) for _ in range(rounds)]
    for seed in seeds:
        pop_ss, stream_ss = np.random.SeedSequence(seed_entropy(seed)).spawn(2)
        pop_rng = np.random.default_rng(pop_ss)
        scores.append(pop_rng.uniform(0.0, 1.0, size=pop.size))
        staff.append(pop_rng.choice(pop.size, size=pop.b, replace=False))
        for (resigned, positions, rand_seeds), round_ss in zip(per_round, stream_ss.spawn(rounds)):
            resig_ss, sample_ss, rand_ss = round_ss.spawn(3)
            resigned.append(np.random.default_rng(resig_ss).uniform(size=pop.b) < p_res)
            positions.append(np.random.default_rng(sample_ss).choice(
                pop.size - pop.b, size=pop.n, replace=False))
            rand_seeds.append(rand_ss)
    return np.array(scores), np.array(staff), per_round


# int seeds of one and of several words, and sequences of unequal lengths
CHAIN_SEEDS = st.lists(
    st.one_of(st.integers(0, 2**70),
              st.lists(st.integers(0, 2**40), min_size=1, max_size=6)),
    min_size=1, max_size=5)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(CHAIN_SEEDS, st.integers(1, 3), st.floats(0.0, 1.0))
@example([7, [7], [1, 2, 3], [2**40, 5], 2**33, [0, 0, 0, 0, 0]], 2, 0.5)
def test_draw_step_is_the_spawn_tree(seeds, rounds, p_res):
    # the state words derived as arrays seed what each chain's spawn tree
    # seeds, so every draw and every RAND stream is the tree's
    scores, staff, per_round = _draw_chains(SMALL, rounds, p_res, len(seeds), seeds)
    ref_scores, ref_staff, ref_rounds = spawn_tree_draws(SMALL, rounds, p_res, seeds)
    assert np.array_equal(scores, ref_scores) and np.array_equal(staff, ref_staff)
    for (resigned, positions, rand_seeds), (ref_resigned, ref_positions, ref_rand) in zip(
            per_round, ref_rounds, strict=True):
        assert np.array_equal(resigned, ref_resigned)
        assert np.array_equal(positions, ref_positions)
        assert len(rand_seeds) == len(seeds)
        for seed, ref in zip(rand_seeds, ref_rand):
            draws, ref_draws = (np.random.default_rng(x).uniform(size=SMALL.n) for x in (seed, ref))
            assert np.array_equal(draws, ref_draws)


class TestSelectors:
    # a policy token's spec for the rounds of one block (multiround._policy_specs)
    @staticmethod
    def spec(name, n, b, r, q):
        (spec,) = _policy_specs([name], n, b, r, q)
        return spec

    def test_tokens(self):
        for name in POLICY_NAMES:
            spec = self.spec(name, 20, 3, [1], [0.6])
            assert spec.variant in ("csm", "acsm", "mean", "rand")

    def test_unknown_token(self):
        with pytest.raises(DomainError):
            run_chains(SMALL, 1, 0.5, ["bogus"], [1])

    def test_star_handles_extreme_quality(self):
        assert self.spec("csm-star", 20, 3, [0], [1.0]).cutoff.tolist() == [0]
        assert self.spec("csm-star", 20, 3, [0], [0.999]).cutoff.tolist() == [0]
        (low,) = self.spec("csm-star", 20, 3, [0], [1e-12]).cutoff
        assert 0 <= low <= 20

    def test_acsm_star_builds_zone(self):
        spec = self.spec("acsm-star", 30, 3, [1], [0.55])
        assert spec.variant == "acsm" and spec.zone is not None
        assert spec.zone.mu.shape == (1, 30)


PIN_Q = (0.0, 1e-12, 0.3, 0.5, 0.81, 0.999, 1.0)
CSM_E = {20: 7, 100: 36}  # floor(n / e)
# (n, b, r) -> csm-star's cutoff at each q of PIN_Q, and the first 16 hex
# digits of one SHA-256 over acsm-star's seven zones (mu bytes, then width
# bytes, q by q).  Recorded before the policy resolver replaced the per-token
# branches.  mu_hat has a probability-zero event at no point of this grid, so
# none is skipped.
PINNED_SPECS = {
    (20, 1, 0): ((3, 3, 3, 3, 0, 0, 0), "2531d47813954886"),
    (20, 1, 1): ((2, 2, 2, 3, 2, 0, 0), "9f87b335afd548b6"),
    (20, 3, 0): ((7, 7, 6, 6, 0, 0, 0), "e3e54cba8682c067"),
    (20, 3, 1): ((7, 7, 5, 5, 0, 0, 0), "ddc9849675b5e0b7"),
    (20, 3, 3): ((5, 5, 5, 5, 2, 0, 0), "ffaa727f4d36e1c4"),
    (20, 5, 0): ((8, 8, 7, 6, 0, 0, 0), "65ddcc6010b69000"),
    (20, 5, 1): ((8, 8, 7, 6, 0, 0, 0), "f6db0bb6bb95ff20"),
    (20, 5, 5): ((6, 6, 5, 5, 0, 0, 0), "63e59aac4dc9aab6"),
    (100, 1, 0): ((14, 14, 16, 18, 18, 0, 0), "3e328121878f51dc"),
    (100, 1, 1): ((6, 6, 7, 8, 10, 0, 0), "faee54792836063d"),
    (100, 3, 0): ((40, 40, 42, 42, 34, 0, 0), "1707cd30379d76dd"),
    (100, 3, 1): ((41, 41, 40, 39, 32, 0, 0), "ca8701d5a3371060"),
    (100, 3, 3): ((18, 18, 19, 21, 24, 0, 0), "4469b97b6bc13110"),
    (100, 5, 0): ((49, 49, 47, 45, 34, 0, 0), "b7b6c9979038714f"),
    (100, 5, 1): ((46, 46, 44, 42, 32, 0, 0), "4fd9226a900ce797"),
    (100, 5, 5): ((25, 25, 25, 27, 26, 0, 0), "6473e2bd8519dd3f"),
}


@pytest.mark.parametrize("setting", list(PINNED_SPECS), ids=str)
def test_selectors_are_pinned(setting):
    n, b, r = setting
    star, zones = PINNED_SPECS[setting]
    digest = hashlib.sha256()
    for q, c_star in zip(PIN_Q, star):
        expected = {
            "csm-star": ("csm", c_star),
            "csm-e": ("csm", CSM_E[n]),
            "csm-0": ("csm", 0),
            "acsm-star": ("acsm", c_star),
            "mean": ("mean", 0),
            "rand": ("rand", 0),
        }
        for name in POLICY_NAMES:
            (spec,) = _policy_specs([name], n, b, [r], [q])
            assert (spec.variant, spec.cutoff) == expected[name], (name, q)
            assert (spec.zone is None) == (name != "acsm-star"), (name, q)
            if spec.zone is not None:
                digest.update(np.asarray(spec.zone.mu, dtype=float).tobytes())
                digest.update(np.asarray(spec.zone.width, dtype=float).tobytes())
    assert digest.hexdigest()[:16] == zones


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
        monkeypatch.setattr(seqselect.multiround, "_draw_chains", lambda *a: chains.append(a))
        with pytest.raises(DomainError):
            compare_policies(SMALL, 2, 0.3, ("csm-star", "nope"), 3, 2)
        assert chains == []

    def test_rejects_bad_counts_and_seeds(self):
        for rounds, runs, seed in ((0, 3, 2), (2, 0, 2), (2, -1, 2), (2, 3, -1)):
            with pytest.raises(DomainError):
                compare_policies(SMALL, rounds, 0.3, ("csm-0",), runs, seed)

    def test_each_run_is_drawn_once_for_every_policy(self, monkeypatch):
        # the policies are paired by sharing one draw per run, not by each
        # drawing the same numbers again from the same seed: the stream
        # derivation is given each run's entropy once
        entropies = []
        words = seqselect.multiround.entropy_words
        monkeypatch.setattr(seqselect.multiround, "entropy_words",
                            lambda entropy: entropies.append(entropy) or words(entropy))
        compare_policies(SMALL, 3, 0.5, ("csm-star", "mean", "rand"), 4, 11)
        assert sorted(entropies) == [(11, i) for i in range(4)]

    def test_empty_policy_list(self):
        with pytest.raises(DomainError):
            compare_policies(SMALL, 2, 0.3, (), 3, 2)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_shared_draw_runs_the_chains_of_run_chains(self, name):
        # the draw step that every policy shares runs run i as run_chains
        # runs the seed [seed, i]
        runs, rounds, seed = 4, 3, 11
        (curve,) = compare_policies(SMALL, rounds, 0.5, [name], runs, seed).values()
        chain = run_chains(SMALL, rounds, 0.5, [name], [[seed, i] for i in range(runs)])
        rows = _per_run(chain, runs)
        assert curve.per_run == rows
        assert {row[6] is None for row in rows} == {name in ("mean", "rand")}

    @pytest.mark.parametrize("name", ("csm-star", "rand"))
    def test_a_sequence_seed_leads_each_run_seed(self, name):
        # a seed that is a sequence runs run i on the seed [*seed, i]
        runs, rounds = 3, 2
        (curve,) = compare_policies(SMALL, rounds, 0.5, [name], runs, (1, 2)).values()
        chain = run_chains(SMALL, rounds, 0.5, [name], [[1, 2, i] for i in range(runs)])
        assert curve.per_run == _per_run(chain, runs)

    @pytest.mark.parametrize("runs", (1, 5))
    @pytest.mark.parametrize("p_res", (0.0, 0.5, 1.0))
    def test_each_policy_runs_as_it_runs_alone(self, p_res, runs):
        # every policy of a call runs in one batch per round index and shares
        # one cutoff resolve, so each policy's curve must be the one that it
        # gives alone on the same draws
        names = list(np.random.default_rng([runs, int(10 * p_res)]).permutation(POLICY_NAMES))
        together = compare_policies(SMALL, 4, p_res, names, runs, 21)
        for name in names:
            alone = compare_policies(SMALL, 4, p_res, [name], runs, 21)[name]
            curve = together[name]
            assert curve.per_run == alone.per_run, name
            assert curve.mean_regret == alone.mean_regret, name
            assert (curve.ci95_low, curve.ci95_high) == (alone.ci95_low, alone.ci95_high), name

    def test_aggregate_of_a_c_contiguous_regret_matrix(self):
        # past 8 runs, numpy's sum over runs depends on the matrix layout: the
        # curve is that of the C-contiguous (runs, rounds) float matrix
        runs, rounds = 12, 5
        curves = compare_policies(SMALL, rounds, 0.5, POLICY_NAMES, runs, 3)
        for name, curve in curves.items():
            regs = np.array([row[2] for row in curve.per_run], dtype=float).reshape(runs, rounds)
            assert regs.flags.c_contiguous
            mean = regs.mean(axis=0)
            se = regs.std(axis=0, ddof=1) / np.sqrt(runs)
            assert curve.mean_regret == tuple(mean.tolist()), name
            assert curve.ci95_low == tuple((mean - 1.96 * se).tolist()), name
            assert curve.ci95_high == tuple((mean + 1.96 * se).tolist()), name


class TestRepeatedPolicy:
    def test_repeated_name_fails_before_any_chain(self, monkeypatch):
        chains = []
        monkeypatch.setattr(seqselect.multiround, "_draw_chains", lambda *a: chains.append(a))
        with pytest.raises(DomainError, match="repeat"):
            compare_policies(SMALL, 2, 0.3, ("rand", "csm-0", "rand"), 3, 2)
        assert chains == []
