"""Property tests of one selection round over small (n, b, r, c).

The library's batch engine and the scalar reference engine
(tests/scalar_engine.py) score a round with one ranking, oracle and regret
(RoundBatch.ranks, .offline_optimum and .regret), so each has two
references: the scalar engine for decisions, and for scores a brute-force
oracle that ranks the pool and enumerates every feasible assignment by
itself.  The scalar engine is held to the brute force, and the batch engine,
round by round, to both.
"""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from seqselect.analytics import optimal_cutoff, resolve_cutoff  # noqa: E402
from seqselect.core import (  # noqa: E402
    DomainError,
    Instance,
    RoundBatch,
    sample_rounds,
)
from seqselect.montecarlo import trial_stream  # noqa: E402
from seqselect.multiround import _policy_specs  # noqa: E402
from seqselect.policies import (  # noqa: E402
    PolicySpec,
    ZoneConfig,
    policy_spec,
    run_policy_batch,
)
from tests.scalar_engine import (  # noqa: E402
    run_adjusted_cutoff,
    run_cutoff,
    run_policy,
    row_instance,
    spec_row,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def small_rounds(draw):
    b = draw(st.integers(1, 4))
    n = draw(st.integers(b, 8))
    r = draw(st.integers(0, b))
    c = draw(st.integers(0, n))
    q = draw(st.floats(0.05, 0.95))
    inst = row_instance(sample_rounds(n, b, q, r, [draw(st.integers(0, 2**32 - 1))]))
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


def brute_force_optimum(inst):
    ranks = _ranks(inst)
    selectable = [x for x, a in zip(ranks[: inst.b], inst.availability) if a] + ranks[inst.b :]
    return min(sum(pick) for pick in itertools.combinations(selectable, inst.b))


def brute_force_regret(inst, outcome):
    ranks = _ranks(inst)
    ref_ranks, cand_ranks = ranks[: inst.b], ranks[inst.b :]
    online = sum(x for x, keep in zip(ref_ranks, outcome.referent_decisions) if keep)
    online += sum(x for x, hire in zip(cand_ranks, outcome.candidate_decisions) if hire)
    return online - brute_force_optimum(inst)


@SETTINGS
@given(small_rounds(), st.data())
def test_round_fills_every_position_at_the_oracle_regret(round_, data):
    inst, c = round_
    out = run_policy(inst, _policy(data.draw, inst, c), rand_seed=data.draw(st.integers(0, 99)))
    assert sum(out.candidate_decisions) + sum(out.referent_decisions) == inst.b
    assert all(a or not k for k, a in zip(out.referent_decisions, inst.availability))
    assert out.regret >= 0
    assert out.regret == brute_force_regret(inst, out)


def _cell_policy(draw, n, b, r, c, q):
    """One of the four variants as run_cell builds it (policies.policy_spec),
    or acsm with a random zone."""
    variant = draw(st.sampled_from(["csm", "acsm-model", "acsm", "mean", "rand"]))
    if variant != "acsm":
        try:
            return policy_spec(variant.removesuffix("-model"), n, b, [r], [q], c)
        except DomainError:  # acsm's no-failure event has probability zero
            reject()
    # numpy draws, not Hypothesis lists: these zones leave the band in both
    # directions often enough to reach both clamps of the band's threshold
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = np.sort(rng.uniform(0.0, b, n))
    width = rng.uniform(0.0, draw(st.sampled_from([0.0, 1.0, b])), n)
    return PolicySpec("acsm", cutoff=c, zone=ZoneConfig(mu=tuple(mu), width=tuple(width)))


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda b: st.tuples(
    st.just(b), st.integers(b, 10), st.integers(0, b), st.floats(0.05, 0.95),
)), st.integers(1, 30), st.integers(0, 2**32 - 1), st.data())
def test_batch_engine_is_the_scalar_engine(setting, trials, seed, data):
    b, n, r, q = setting
    c = data.draw(st.integers(0, n))
    spec = _cell_policy(data.draw, n, b, r, c, q)
    streams = [[trial_stream((seed,), i, child) for i in range(trials)] for child in (0, 1)]
    batch = sample_rounds(n, b, q, r, streams[0])
    got, _, _ = run_policy_batch(batch, spec, streams[1])
    optima = batch.offline_optimum()
    for i in range(trials):
        inst = row_instance(sample_rounds(n, b, q, r, [trial_stream((seed,), i, 0)]))
        out = run_policy(inst, spec, rand_seed=trial_stream((seed,), i, 1))
        assert got[i].tolist() == [out.regret, out.hires, out.failures]
        assert got[i, 0] == brute_force_regret(inst, out)
        assert optima[i] == brute_force_optimum(inst)


# a coarse grid: candidates tie each other, the referents and y_b
GRID = tuple(k / 4 for k in range(5))


def _tied_round(draw, n, b, r):
    """A round of the setting (n, b, r) built from GRID scores."""
    refs = sorted(draw(st.lists(st.sampled_from(GRID), min_size=b, max_size=b, unique=True)),
                  reverse=True)
    avail = draw(st.permutations([0] * r + [1] * (b - r)))
    cands = draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n))
    return Instance(tuple(refs), tuple(avail), tuple(cands))


@st.composite
def tied_rounds(draw):
    """Rounds of one setting (n, b, r) built from GRID scores, and a cutoff."""
    b = draw(st.integers(1, 4))
    n, r = draw(st.integers(b, 8)), draw(st.integers(0, b))
    rounds = [_tied_round(draw, n, b, r) for _ in range(draw(st.integers(1, 6)))]
    return rounds, draw(st.integers(0, n))


def _stack(rounds):
    """The rounds as one RoundBatch, a row each."""
    return RoundBatch(*(np.array([getattr(inst, name) for inst in rounds])
                        for name in ("reference_scores", "availability", "candidate_scores")))


@SETTINGS
@given(tied_rounds(), st.floats(0.05, 0.95), st.data())
def test_batch_engine_is_the_scalar_engine_on_tied_scores(round_, q, data):
    rounds, c = round_
    n, b, r = rounds[0].n, rounds[0].b, rounds[0].r
    spec = _cell_policy(data.draw, n, b, r, c, q)
    got, _, _ = run_policy_batch(_stack(rounds), spec, range(len(rounds)))
    for seed, inst in enumerate(rounds):
        out = run_policy(inst, spec, rand_seed=seed)
        assert got[seed].tolist() == [out.regret, out.hires, out.failures]


def _band(draw, rng, b, shape):
    """Band rows of the given shape's leading axes: each row above the hire
    count once a round hires (mu = 0), below it until the round is full
    (mu = b), or a numpy draw, as in _cell_policy, that leaves the band in
    both directions."""
    kinds = draw(st.lists(st.sampled_from(["above", "below", "drawn"]),
                          min_size=int(np.prod(shape[:-1])), max_size=int(np.prod(shape[:-1]))))
    mu = np.sort(rng.uniform(0.0, b, shape), axis=-1).reshape(-1, shape[-1])
    for row, kind in zip(mu, kinds):
        row[:] = {"above": 0.0, "below": b}.get(kind, row)
    width = rng.uniform(0.0, draw(st.sampled_from([0.0, 1.0, b])), shape)
    width *= np.array([kind == "drawn" for kind in kinds]).reshape(shape[:-1] + (1,))
    return ZoneConfig(mu.reshape(shape), width)


@st.composite
def mixed_rounds(draw):
    """Rounds of one size (n, b) whose r differ, drawn by sample_rounds
    or built from GRID scores, and one PolicySpec for all of them.  Its
    cutoff is one plain int, or an array of one entry for every round or one
    per round, and its band rows likewise: (n,), (1, n) or (T, n)."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(b, 8))
    variant = draw(st.sampled_from(["csm", "acsm", "mean", "rand"]))
    rounds = []
    for _ in range(draw(st.integers(1, 6))):
        r = draw(st.integers(0, b))
        if draw(st.booleans()):
            rounds.append(_tied_round(draw, n, b, r))
        else:
            q = draw(st.floats(0.05, 0.95))
            seed = draw(st.integers(0, 2**32 - 1))
            rounds.append(row_instance(sample_rounds(n, b, q, r, [seed])))
    rows = draw(st.sampled_from([(), (1,), (len(rounds),)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cutoff = rng.integers(0, n + 1, rows)
    zone = _band(draw, rng, b, rows + (n,)) if variant == "acsm" else None
    return rounds, PolicySpec(variant, int(cutoff) if rows == () else cutoff, zone)


@SETTINGS
@given(mixed_rounds())
def test_batch_engine_is_the_scalar_engine_on_mixed_rounds(mixed):
    # one spec decides each round of the batch as its row of the spec (or
    # its one row) decides the round run alone, and as the scalar engine does
    rounds, spec = mixed
    got, hired, kept = run_policy_batch(_stack(rounds), spec, range(len(rounds)))
    for t, inst in enumerate(rounds):
        alone = run_policy_batch(inst.batch, spec_row(spec, t), [t])
        out = run_policy(inst, spec, rand_seed=t, t=t)
        assert got[t].tolist() == alone[0][0].tolist() == [out.regret, out.hires, out.failures]
        assert hired[t].tolist() == alone[1][0].tolist()
        assert kept[t].tolist() == alone[2][0].tolist()
        assert hired[t].astype(int).tolist() == list(out.candidate_decisions)
        assert kept[t].astype(int).tolist() == list(out.referent_decisions)


@st.composite
def policy_blocks(draw):
    """Rounds of one size (n, b) in equal blocks and one PolicySpec per
    block: every variant runs a block, in a drawn order, some twice.  The
    rounds' r differ, some rounds are built from GRID scores and tie, and
    each block's cutoff and band rows are as in mixed_rounds: acsm's band is
    finite, and its rounds leave it above, below or in both directions."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(b, 8))
    variants = draw(st.permutations(["csm", "acsm", "mean", "rand"]))
    variants += draw(st.lists(st.sampled_from(["csm", "acsm", "mean", "rand"]), max_size=2))
    size = draw(st.integers(1, 3))
    rounds = []
    for _ in range(len(variants) * size):
        r = draw(st.integers(0, b))
        if draw(st.booleans()):
            rounds.append(_tied_round(draw, n, b, r))
        else:
            q = draw(st.floats(0.05, 0.95))
            seed = draw(st.integers(0, 2**32 - 1))
            rounds.append(row_instance(sample_rounds(n, b, q, r, [seed])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = []
    for variant in variants:
        rows = draw(st.sampled_from([(), (1,), (size,)]))
        cutoff = rng.integers(0, n + 1, rows)
        zone = _band(draw, rng, b, rows + (n,)) if variant == "acsm" else None
        specs.append(PolicySpec(variant, int(cutoff) if rows == () else cutoff, zone))
    return rounds, specs


@SETTINGS
@given(policy_blocks())
def test_a_block_of_a_batch_runs_as_its_spec_runs_it_alone(blocks):
    # one batch and one round loop run every block, so the rows of another
    # policy must not change a block's results or decisions
    rounds, specs = blocks
    size = len(rounds) // len(specs)
    seeds = range(len(rounds))
    got = run_policy_batch(_stack(rounds), specs, seeds)
    for p, spec in enumerate(specs):
        rows = slice(p * size, (p + 1) * size)
        alone = run_policy_batch(_stack(rounds[rows]), spec, seeds[rows])
        for whole, part in zip(got, alone):
            assert np.array_equal(whole[rows], part), (p, spec.variant)


@SETTINGS
@given(st.integers(1, 5), st.integers(2, 8), st.sampled_from(["cutoff", "rows", "n", "width"]),
       st.integers(0, 9))
def test_a_cutoff_or_band_of_the_wrong_length_raises(T, n, wrong, length):
    # a spec holds one cutoff and band row for every round or one per round,
    # each band n long; any other length would reach numpy's broadcasting
    if length in ((1, T) if wrong in ("cutoff", "rows") else (n,)):
        reject()
    batch = sample_rounds(n, 2, 0.5, 1, range(T))
    cutoff = np.zeros(length if wrong == "cutoff" else T, dtype=np.int64)
    steps = length if wrong == "n" else n
    mu = np.zeros((length if wrong == "rows" else T, steps))
    with pytest.raises(DomainError):
        zone = ZoneConfig(mu, np.zeros(length if wrong == "width" else steps))
        run_policy_batch(batch, PolicySpec("acsm", cutoff, zone))
    if wrong == "cutoff":
        with pytest.raises(DomainError, match="one per round"):
            run_policy_batch(batch, PolicySpec("csm", cutoff))


@SETTINGS
@given(small_rounds())
def test_ranks_form_a_permutation(round_):
    inst, _ = round_
    ranks = inst.batch.ranks[0].tolist()
    assert sorted(ranks) == list(range(1, inst.n + inst.b + 1))
    assert ranks == _ranks(inst)


# scores that tie often; 0.0 and -0.0 are equal, so they tie each other
TIE_SCORES = [1.0, 0.5, 0.25, 0.0, -0.0, -0.5]


@st.composite
def rank_batches(draw):
    """(T, b) referents and (T, n) candidates, each row with ties or none: a
    tied row draws its candidates from TIE_SCORES and its own referents (a
    candidate equal to a referent, repeated candidates, 0.0 next to -0.0),
    a tie-free row draws its n + b scores distinct."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(b, 16))
    refs, cands = [], []
    for tied in draw(st.lists(st.booleans(), min_size=1, max_size=6)):
        if tied:
            ref = draw(st.lists(st.sampled_from(TIE_SCORES), min_size=b, max_size=b, unique=True))
            cand = draw(st.lists(st.sampled_from(TIE_SCORES + ref), min_size=n, max_size=n))
        else:
            scores = draw(st.lists(st.floats(-1.0, 1.0), min_size=n + b, max_size=n + b,
                                   unique=True))
            ref, cand = scores[:b], scores[b:]
        refs.append(sorted(ref, reverse=True))
        cands.append(cand)
    return np.array(refs), np.array(cands)


def _reference_ranks(scores):
    """Ranks 1.. of scores sorted by (-score, position), in plain Python."""
    ranks = [0] * len(scores)
    for rank, k in enumerate(sorted(range(len(scores)), key=lambda k: (-scores[k], k)), 1):
        ranks[k] = rank
    return ranks


@SETTINGS
@example((np.array([[0.5, 0.0], [0.9, 0.1]]),
          np.array([[0.5, -0.0, 0.25, 0.25, 0.25, 1.0, 0.5], [0.3, 0.2, 0.8, -0.4, 0.0, 0.7, 0.6]])))
@given(rank_batches())
def test_ranks_are_the_reference_ranking(scores):
    # RoundBatch.ranks against a ranking that shares no code with it, on
    # batches that mix rows with and without ties
    refs, cands = scores
    batch = RoundBatch(refs, np.ones(refs.shape), cands)
    for t in range(len(batch)):
        assert batch.ranks[t].tolist() == _reference_ranks([*refs[t].tolist(), *cands[t].tolist()])


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
    (res,) = resolve_cutoff(n, b, r, 0.5)
    assert (res.n_source, res.c_source, res.degenerate) == (n, optimal_cutoff(n, b, r)[0], False)
    assert res.c_target == optimal_cutoff(n, b, r)[0]


@st.composite
def mixed_round_settings(draw):
    """(n, b, r, q) of one round index over several chains: r from 0 to b
    and q on both ends of [0, 1], just inside them and in between, so the
    translated cutoffs come unsorted and repeated."""
    b = draw(st.integers(1, 6))
    n = draw(st.integers(b, 40))
    qs = st.one_of(st.sampled_from([0.0, 1e-12, 1.0]), st.floats(0.0, 1.0))
    rows = draw(st.lists(st.tuples(st.integers(0, b), qs), min_size=1, max_size=8))
    r, q = zip(*draw(st.permutations(rows + rows[:2])))
    return n, b, r, q


def _spec_bytes(spec):
    zone = () if spec.zone is None else (spec.zone.mu, spec.zone.width)
    return spec.variant, spec.cutoff, [np.asarray(x, dtype=float).tobytes() for x in zone]


@SETTINGS
@given(st.sampled_from(["csm-star", "acsm-star", "csm-e"]), mixed_round_settings())
def test_a_batch_of_rounds_gives_the_one_round_specs(name, setting):
    # policies.policy_spec builds one spec for every round, acsm's bands
    # from one mu_hat_rows call; row t must be the spec of round t alone
    n, b, r, q = setting

    def select(n, b, r, q):
        (spec,) = _policy_specs([name], n, b, r, q)
        return spec

    alone = []
    for rt, qt in zip(r, q):
        try:
            alone.append(select(n, b, [rt], [qt]))
        except DomainError:  # acsm's no-failure event has probability zero
            with pytest.raises(DomainError):
                select(n, b, list(r), list(q))
            return
    together = select(n, b, list(r), list(q))
    assert ([_spec_bytes(spec_row(together, t)) for t in range(len(r))]
            == [_spec_bytes(spec_row(spec, 0)) for spec in alone])
