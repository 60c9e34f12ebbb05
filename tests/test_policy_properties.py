"""Property tests of one selection round over small (n, b, r, c).

Each round is checked against a brute-force oracle that ranks the pool and
enumerates every feasible assignment by itself, so the trial path (ranking,
policy, regret) is compared with an independent computation.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from seqselect.analytics import optimal_cutoff, resolve_cutoff  # noqa: E402
from seqselect.core import build_rank_context, generate_instance  # noqa: E402
from seqselect.policies import (  # noqa: E402
    PolicySpec,
    ZoneConfig,
    run_adjusted_cutoff,
    run_cutoff,
    run_policy,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def small_rounds(draw):
    b = draw(st.integers(1, 4))
    n = draw(st.integers(b, 8))
    r = draw(st.integers(0, b))
    c = draw(st.integers(0, n))
    q = draw(st.floats(0.05, 0.95))
    inst = generate_instance(n, b, q, r, draw(st.integers(0, 2**32 - 1)))
    return inst, c


def _policy(draw, inst, c):
    variant = draw(st.sampled_from(["csm", "acsm", "mean", "rand"]))
    if variant != "acsm":
        return PolicySpec(variant, cutoff=c)
    mu = sorted(draw(st.lists(st.floats(0.0, inst.b), min_size=inst.n, max_size=inst.n)))
    return PolicySpec("acsm", cutoff=c, zone=ZoneConfig.default(inst.n, inst.b, mu))


def _ranks(inst):
    pool = inst.reference_scores + inst.candidate_scores
    return [1 + sum(1 for x in pool if x > s) for s in pool]


def brute_force_regret(inst, outcome):
    ranks = _ranks(inst)
    ref_ranks, cand_ranks = ranks[: inst.b], ranks[inst.b :]
    online = sum(x for x, keep in zip(ref_ranks, outcome.referent_decisions) if keep)
    online += sum(x for x, hire in zip(cand_ranks, outcome.candidate_decisions) if hire)
    selectable = [x for x, a in zip(ref_ranks, inst.availability) if a] + cand_ranks
    best = min(sum(pick) for pick in itertools.combinations(selectable, inst.b))
    return online - best


@SETTINGS
@given(small_rounds(), st.data())
def test_round_fills_every_position_at_the_oracle_regret(round_, data):
    inst, c = round_
    out = run_policy(inst, _policy(data.draw, inst, c), rand_seed=data.draw(st.integers(0, 99)))
    assert sum(out.candidate_decisions) + sum(out.referent_decisions) == inst.b
    assert all(a or not k for k, a in zip(out.referent_decisions, inst.availability))
    assert out.regret >= 0
    assert out.regret == brute_force_regret(inst, out)


@SETTINGS
@given(small_rounds())
def test_ranks_form_a_permutation(round_):
    inst, _ = round_
    ctx = build_rank_context(inst)
    ranks = ctx.rank_of_referent + ctx.rank_of_candidate
    assert sorted(ranks) == list(range(1, inst.n + inst.b + 1))
    assert list(ranks) == _ranks(inst)


@SETTINGS
@given(small_rounds())
def test_adjusted_policy_with_infinite_zone_is_the_cutoff_policy(round_):
    inst, c = round_
    assert run_adjusted_cutoff(inst, c, ZoneConfig.infinite(inst.n)) == run_cutoff(inst, c)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(
    lambda b: st.tuples(st.just(b), st.integers(b, 60), st.integers(0, b))
))
def test_resolver_is_the_optimal_cutoff_at_medium_quality(setting):
    b, n, r = setting
    res = resolve_cutoff(n, b, r, 0.5)
    assert (res.n_source, res.c_source, res.degenerate) == (n, optimal_cutoff(n, b, r)[0], False)
    assert res.c_target == optimal_cutoff(n, b, r)[0]
