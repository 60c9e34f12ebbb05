"""Multi-round driver tests: state evolution, pairing, policy selection."""

import hashlib
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqselect.multiround
from seqselect.core import DomainError, RoundBatch
from seqselect.multiround import (
    POLICY_NAMES,
    PopulationSpec,
    _members,
    compare_policies,
    make_policy_selector,
    run_chains,
)


SMALL = PopulationSpec(size=60, n=20, b=3)


def _row(cr, t):
    """Row t of every field of a ChainRound, as Python values."""
    batch = cr.batch
    return (batch.reference_scores[t].tolist(), batch.availability[t].tolist(),
            batch.candidate_scores[t].tolist(), cr.sampled[t].tolist(),
            None if cr.cutoffs is None else cr.cutoffs[t].item(), cr.hired[t].tolist(),
            cr.kept[t].tolist(), cr.results[t].tolist())


class TestRunChain:
    def test_round_structure(self):
        chain = run_chains(SMALL, 5, 0.4, make_policy_selector("csm-star"), [123])
        assert len(chain) == 5
        for cr in chain:
            assert cr.sampled.shape == (1, SMALL.n)
            assert len(set(cr.sampled[0].tolist())) == SMALL.n
            assert (cr.hired.sum(axis=1) + cr.kept.sum(axis=1)).tolist() == [SMALL.b]
            assert cr.results[0, 0] >= 0
            assert 0.0 <= cr.batch.quality()[0] <= 1.0

    def test_determinism(self):
        a = run_chains(SMALL, 4, 0.5, make_policy_selector("csm-star"), [9])
        b = run_chains(SMALL, 4, 0.5, make_policy_selector("csm-star"), [9])
        assert [_row(cr, 0) for cr in a] == [_row(cr, 0) for cr in b]

    def test_sampled_disjoint_from_employed(self):
        # at p_res = 1 every referent resigns, so the staff of round k + 1 is
        # exactly the hires of round k, and none of them may be sampled again
        for name in ("mean", "csm-star", "acsm-star", "rand"):
            chain = run_chains(SMALL, 5, 1.0, make_policy_selector(name), range(5))
            for k, (prev, cr) in enumerate(zip(chain, chain[1:]), 1):
                for seed in range(5):
                    hires = set(prev.sampled[seed][prev.hired[seed]].tolist())
                    assert len(hires) == SMALL.b
                    assert hires.isdisjoint(cr.sampled[seed].tolist()), (name, seed, k)

    def test_full_resignation_every_round(self):
        for cr in run_chains(SMALL, 3, 1.0, make_policy_selector("csm-star"), [77]):
            assert (~cr.batch.availability).sum() == SMALL.b
            assert cr.results[0, 1] == SMALL.b

    def test_no_resignation_regret_trend(self):
        # with a stable staff the selection should improve over rounds
        chain = run_chains(PopulationSpec(200, 40, 4), 8, 0.0,
                           make_policy_selector("csm-star"), range(40))
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
            run_chains(SMALL, 4, 0.5, make_policy_selector(name), [8])
            assert calls == [1] * 4, name
            # chains in one call share one ranking per round index
            calls.clear()
            run_chains(SMALL, 4, 0.5, make_policy_selector(name), [8, 9, 10])
            assert calls == [3] * 4, name

    def test_rejects_bad_rounds_and_seeds(self):
        for rounds, seed in ((0, 1), (-2, 1), (2, -1), (2, [3, -1])):
            with pytest.raises(DomainError):
                run_chains(SMALL, rounds, 0.5, make_policy_selector("csm-0"), [seed])
        with pytest.raises(DomainError, match="at least one seed"):
            run_chains(SMALL, 2, 0.5, make_policy_selector("csm-0"), [])

    def test_p_res_domain(self):
        with pytest.raises(DomainError):
            run_chains(SMALL, 2, 1.5, make_policy_selector("csm-0"), [1])

    @pytest.mark.parametrize("p_res", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_a_chain_does_not_depend_on_its_batch_mates(self, name, p_res):
        # chain t runs in one batch with the others, so it must be the chain
        # its seed runs alone: this is the pairing compare_policies relies on
        seeds = [3, [4, 1], 0, 17, [4, 2]]
        select = make_policy_selector(name)
        together = run_chains(SMALL, 4, p_res, select, seeds)
        for t, seed in enumerate(seeds):
            alone = run_chains(SMALL, 4, p_res, select, [seed])
            assert [_row(cr, t) for cr in together] == [_row(cr, 0) for cr in alone], seed

    def test_selector_runs_once_per_round_index(self):
        # one call builds the specs of every chain at a round index
        calls = []
        select = make_policy_selector("acsm-star")

        def counting(n, b, r, q):
            calls.append((len(r), len(q)))
            return select(n, b, r, q)

        run_chains(SMALL, 4, 0.5, counting, [1, 2, 3])
        assert calls == [(3, 3)] * 4

    def test_selector_spec_holds_one_cutoff_per_chain(self):
        # a spec of one cutoff runs it on every chain; two for three chains
        # would leave a chain without one
        select = make_policy_selector("csm-0")
        with pytest.raises(DomainError, match="one per round"):
            run_chains(SMALL, 2, 0.5, lambda n, b, r, q: select(n, b, r[:2], q[:2]), [1, 2, 3])
        (cr,) = run_chains(SMALL, 1, 0.5, lambda n, b, r, q: select(n, b, r[:1], q[:1]), [1, 2, 3])
        assert cr.cutoffs.tolist() == [0, 0, 0]

    def test_single_round_is_one_selection(self):
        (cr,) = run_chains(SMALL, 1, 0.0, make_policy_selector("csm-e"), [5])
        assert cr.cutoffs.tolist() == [int(20 / np.e)]


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


class TestSelectors:
    def test_tokens(self):
        for name in POLICY_NAMES:
            spec = make_policy_selector(name)(20, 3, [1], [0.6])
            assert spec.variant in ("csm", "acsm", "mean", "rand")

    def test_unknown_token(self):
        with pytest.raises(DomainError):
            make_policy_selector("bogus")

    def test_star_handles_extreme_quality(self):
        sel = make_policy_selector("csm-star")
        assert sel(20, 3, [0], [1.0]).cutoff.tolist() == [0]
        assert sel(20, 3, [0], [0.999]).cutoff.tolist() == [0]
        (low,) = sel(20, 3, [0], [1e-12]).cutoff
        assert 0 <= low <= 20

    def test_acsm_star_builds_zone(self):
        spec = make_policy_selector("acsm-star")(30, 3, [1], [0.55])
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
            spec = make_policy_selector(name)(n, b, [r], [q])
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
        # drawing the same numbers again from the same seed
        entropies = []
        seed_sequence = np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence",
                            lambda entropy: entropies.append(entropy) or seed_sequence(entropy))
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
        chain = run_chains(SMALL, rounds, 0.5, make_policy_selector(name),
                           [[seed, i] for i in range(runs)])
        rows = []
        for i in range(runs):
            for k, cr in enumerate(chain, 1):
                cutoff = None if cr.cutoffs is None else int(cr.cutoffs[i])
                rows.append((i, k, *map(int, cr.results[i]), float(cr.batch.quality()[i]),
                             cutoff))
        assert curve.per_run == tuple(rows)
        assert {row[6] is None for row in rows} == {name in ("mean", "rand")}

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
