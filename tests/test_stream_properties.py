"""Property tests that pin the trial streams and the sampling law to numpy.

A batch of trials or of chains derives the seeds of its SeedSequence
streams at once, as arrays (core.stream_seeds), and hands each row its
PCG64 seed.  core._draw_round draws every row's doubles with numpy's
random(n + b); a batch of enough fresh seeds then takes the raw words that
choice would read and draws the resigned positions of all its rows as
Floyd's set (core._floyd_resigned), while a Generator seed, a small batch
and a row that choice would reject make numpy's own choice call.  Every
piece is a twin of numpy's own, so each is held here to numpy itself: the
seeds to SeedSequence's, their draws to default_rng(trial_stream(...)),
Floyd's set to choice, and every round to the three-call law written out
below.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from seqselect import core  # noqa: E402
from seqselect.core import (  # noqa: E402
    DomainError,
    _floyd_resigned,
    _floyd_word_count,
    sample_rounds,
    stream_seeds,
)
from seqselect.montecarlo import trial_stream  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# entropy elements of one and of several 32-bit words, at their edges
ELEMENTS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40, 2**64 - 1, 2**64 + 5]),
    st.integers(0, 2**80),
)
# 1 to 6 elements: the entropy is shorter and longer than the pool of 4
CELL_SEEDS = st.lists(ELEMENTS, min_size=1, max_size=6).map(tuple)
# an int seed of up to 3 words, or 1 to 6 elements, which with the row
# index fill the pool of 4 words or pass it, where no zeros are padded
SEEDS = st.one_of(st.integers(0, 2**70), CELL_SEEDS)
CHILDREN = st.sampled_from([0, 1])
# a child, a chain's round key (1, k, j), or a spawn key of 0 to 4 elements
# of one and of several words
KEYS = st.one_of(CHILDREN, st.tuples(st.just(1), st.integers(0, 10**6), st.integers(0, 2)),
                 st.lists(ELEMENTS, max_size=4).map(tuple))


@st.composite
def index_ranges(draw, max_size=8):
    """start..stop of row indices near 0, anywhere below 2**32, and near
    2**32, where an index would grow a second word and stream_seeds
    rejects it."""
    start = draw(st.one_of(st.integers(0, 1000), st.integers(0, 2**32),
                           st.integers(2**32 - max_size, 2**32 + max_size)))
    return start, start + draw(st.integers(0, max_size))


def three_call_law(rng, n, b, q, r):
    """One round as numpy's three calls draw it: (refs, avail, cands)."""
    cands = rng.uniform(0.0, 1.0, n)
    lo, hi = max(0.0, 2.0 * q - 1.0), min(1.0, 2.0 * q)
    refs = np.sort(rng.uniform(lo, hi, b))[::-1]
    avail = np.ones(b, dtype=int)
    if r > 0:
        avail[rng.choice(b, r, replace=False)] = 0
    return refs.tolist(), avail.tolist(), cands.tolist()


@SETTINGS
@given(SEEDS, KEYS, index_ranges())
def test_stream_seeds_are_seedsequence_seeds(seed, key, bounds):
    start, stop = bounds
    if stop > 2**32:
        with pytest.raises(DomainError, match=r"must lie in \[0, 2\*\*32\)"):
            stream_seeds(seed, start, stop, key)
        return
    seeds = stream_seeds(seed, start, stop, key)
    assert len(seeds) == stop - start
    entropy = seed if isinstance(seed, tuple) else (seed,)
    spawn_key = (key,) if isinstance(key, int) else key
    for i, row in zip(range(start, stop), seeds):
        reference = np.random.SeedSequence([*entropy, i], spawn_key=spawn_key)
        expected = reference.generate_state(4, np.uint64)
        assert row.generate_state(4, np.uint64).tolist() == expected.tolist()


@SETTINGS
@given(CELL_SEEDS, CHILDREN, index_ranges(max_size=3),
       st.integers(1, 40).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b))),
       st.floats(-5.0, 5.0), st.floats(0.0, 5.0))
def test_generators_draw_as_the_reference_streams(cell_seed, child, bounds, b_r, low, width):
    start, stop = (min(index, 2**32) for index in bounds)  # indices in range
    b, r = b_r
    seeds = stream_seeds(cell_seed, start, stop, child)
    assert len(seeds) == stop - start
    for i, seed in zip(range(start, stop), seeds):
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(trial_stream(cell_seed, i, child))
        for draw in (lambda g: g.random(b), lambda g: g.choice(b, r, replace=False),
                     lambda g: g.uniform(low, low + width, b), lambda g: g.random()):
            assert np.array_equal(draw(rng), draw(reference))


@SETTINGS
@given(st.integers(1, 12).flatmap(lambda b: st.tuples(
           st.integers(b, 30), st.just(b), st.integers(0, b))),
       st.floats(1e-9, 1 - 1e-9),
       st.lists(st.integers(0, 2**64), min_size=1, max_size=5))
def test_rounds_follow_numpys_three_call_law(nbr, q, seeds):
    n, b, r = nbr
    # one Generator shared by consecutive rounds, as the acceptance criteria
    # draw them: each round leaves the stream where the three calls leave it,
    # so the one-seed calls on it are the rows of one call on it twice over
    shared, reference = np.random.default_rng(seeds[0]), np.random.default_rng(seeds[0])
    stacked = sample_rounds(n, b, q, r, [np.random.default_rng(seeds[0])] * 2)
    for t in range(2):
        one = sample_rounds(n, b, q, r, [shared])
        refs, avail, cands = three_call_law(reference, n, b, q, r)
        for rows, k in ((one, 0), (stacked, t)):
            assert rows.reference_scores[k].tolist() == refs
            assert rows.availability[k].tolist() == avail
            assert rows.candidate_scores[k].tolist() == cands
    # fresh seeds: one seed draws its resigned positions by numpy's own
    # choice, three or more by Floyd's raw-word loop
    batch = sample_rounds(n, b, q, r, seeds)
    for t, seed in enumerate(seeds):
        refs, avail, cands = three_call_law(np.random.default_rng(seed), n, b, q, r)
        one = sample_rounds(n, b, q, r, [seed])
        for rows, k in ((batch, t), (one, 0)):
            assert rows.reference_scores[k].tolist() == refs
            assert rows.availability[k].tolist() == avail
            assert rows.candidate_scores[k].tolist() == cands


def grid_settings():
    """(n, b, r) over b in {1, 2, 3, 5, 20, 64}, r in {0, 1, b - 1, b} and
    n in {b, 100}."""
    for b in (1, 2, 3, 5, 20, 64):
        for r in sorted({0, 1, b - 1, b}):
            for n in sorted({b, 100}):
                yield n, b, r


def assert_rows_follow_the_law(batch, references, n, b, q, r):
    """Row t of batch is the round that three_call_law draws on references[t]."""
    assert len(batch) == len(references)
    for t, rng in enumerate(references):
        refs, avail, cands = three_call_law(rng, n, b, q, r)
        assert batch.reference_scores[t].tolist() == refs
        assert batch.availability[t].tolist() == avail
        assert batch.candidate_scores[t].tolist() == cands


@pytest.mark.parametrize("n, b, r", list(grid_settings()))
def test_fresh_and_continuing_rows_follow_the_law(n, b, r):
    int_seeds = [0, 1, 2**32 - 1, 2**63 + 11, *range(7, 200, 17)]
    sequences = [np.random.SeedSequence([b, r, k]) for k in range(len(int_seeds))]
    streams = stream_seeds((n, b, r), 0, len(int_seeds), 0)
    for q in (1e-9, 0.3, 0.5, 0.81, 1 - 1e-9):
        for seeds in (int_seeds, sequences, streams):
            batch = sample_rounds(n, b, q, r, seeds)
            assert_rows_follow_the_law(batch, [np.random.default_rng(s) for s in seeds], n, b, q, r)
        # fresh seeds and Generators in one call: a Generator draws its round
        # from where its stream stands and is left where the three calls leave it
        shared, shared_reference = np.random.default_rng(5), np.random.default_rng(5)
        shared.random(3), shared_reference.random(3)
        bit_generator = np.random.PCG64(6)
        seeds = [int_seeds[0], shared, sequences[1], bit_generator, streams[2], shared]
        references = [np.random.default_rng(int_seeds[0]), shared_reference,
                      np.random.default_rng(sequences[1]), np.random.default_rng(6),
                      np.random.default_rng(streams[2]), shared_reference]
        assert_rows_follow_the_law(sample_rounds(n, b, q, r, seeds), references, n, b, q, r)
        assert shared.random() == shared_reference.random()
        assert bit_generator.random_raw() == references[3].bit_generator.random_raw()


@pytest.mark.parametrize("r", [200, 201])
def test_rows_past_floyds_range_follow_the_law(r):
    # at b > 10000 choice leaves Floyd's algorithm for a tail shuffle once
    # r > b // 50 = 200, and every row then makes numpy's own calls
    seeds = [3, np.random.SeedSequence(4)]
    batch = sample_rounds(10001, 10001, 0.5, r, seeds)
    assert_rows_follow_the_law(batch, [np.random.default_rng(s) for s in seeds], 10001, 10001, 0.5, r)


@pytest.mark.parametrize("n, b, q, r, count", [
    (1000, 1000, 1 - 1e-9, 0, 20), (10001, 10001, 1 - 1e-7, 0, 20), (100, 20, 1 - 1e-12, 4, 512),
    (1000, 1000, 1 - 2**-53, 0, 20),  # (lo, hi) holds two doubles: runs of ties reach below lo
])
def test_tied_referents_move_just_below_their_better_neighbour(n, b, q, r, count):
    # near q = 1 the law can round two referents to one double: such a row
    # still draws, strictly descending, and leaves the law only at its ties
    # (and where a moved referent pushes the next one down), each moved
    # referent one ulp below its better neighbour, at most b - 1 ulps in all
    batch = sample_rounds(n, b, q, r, range(count))
    tied_rows = []
    for t in range(count):
        refs, avail, cands = three_call_law(np.random.default_rng(t), n, b, q, r)
        law, got = np.array(refs), batch.reference_scores[t]
        assert batch.availability[t].tolist() == avail
        assert batch.candidate_scores[t].tolist() == cands
        ties = set((np.flatnonzero(law[1:] == law[:-1]) + 1).tolist())
        moved = np.flatnonzero(got != law)
        assert all(k in ties or k - 1 in moved for k in moved.tolist())
        assert (got[moved] < law[moved]).all()
        assert (got[moved] == np.nextafter(got[moved - 1], -np.inf)).all()
        assert (law[moved] - got[moved] <= (b - 1) * np.spacing(law[moved])).all()
        if ties:
            tied_rows.append(t)
    assert tied_rows  # the law ties somewhere in these draws
    for t in tied_rows:  # a one-seed call moves its ties as the many-seed call does
        one = sample_rounds(n, b, q, r, [t])
        assert one.reference_scores[0].tolist() == batch.reference_scores[t].tolist()
        assert one.availability[0].tolist() == batch.availability[t].tolist()


def test_referents_that_would_fall_below_zero_raise():
    # hi = 2q holds about 40 doubles above 0: 100 referents cannot be told apart
    with pytest.raises(DomainError, match="too few doubles above 0"):
        sample_rounds(100, 100, 1e-322, 0, range(2))


def words_of(*halves):
    """uint64 words from uint32 halves, each word's low half first."""
    return [low | high << 32 for low, high in zip(halves[::2], halves[1::2])]


def test_a_rejected_draw_is_flagged():
    # at j = 2 the threshold is (2**32 - 3) % 3 = 1, so a zero uint32 is
    # rejected; choice(3, 1) draws once, at j = 2, from the row's first half
    assert (2**32 - 1 - 2) % 3 == 1
    words = np.array([words_of(0, 2**31), words_of(1, 0), words_of(2**31, 0)], dtype=np.uint64)
    assert _floyd_word_count(3, 1) == 1
    resigned, rejected = _floyd_resigned(words, 3, 1)
    # row 0's zero is rejected; row 1's product 3 keeps low half 3 >= 1 and
    # gives 0; row 2's half of 2**31 gives 1
    assert rejected.tolist() == [True, False, False]
    assert [np.flatnonzero(row).tolist() for row in resigned[1:]] == [[0], [1]]
    # choice(4, 2) draws at j = 2, then at j = 3, whose threshold is 0: only
    # a draw at j = 2 can be rejected, and it flags its row
    words = np.array([words_of(0, 0), words_of(1, 0), words_of(2**31, 2**31)], dtype=np.uint64)
    resigned, rejected = _floyd_resigned(words, 4, 2)
    assert rejected.tolist() == [True, False, False]
    assert [np.flatnonzero(row).tolist() for row in resigned[1:]] == [[0, 3], [1, 2]]


def test_a_rejected_row_is_drawn_as_numpy_draws_it(monkeypatch):
    # no seed reaches a rejection at these sizes (about j / 2**32 a draw), so
    # the sampler is made to flag every other row and to mark all of its
    # positions: those rows are drawn again, whole, by numpy's own calls
    floyd_resigned = core._floyd_resigned

    def flag_every_other_row(words, b, r):
        resigned, rejected = floyd_resigned(words, b, r)
        resigned[::2], rejected[::2] = True, True
        return resigned, rejected

    monkeypatch.setattr(core, "_floyd_resigned", flag_every_other_row)
    n, b, q, r = 30, 10, 0.81, 3
    seeds = [11, np.random.SeedSequence(12), *stream_seeds((13,), 0, 3, 0), 14]
    batch = sample_rounds(n, b, q, r, seeds)
    assert_rows_follow_the_law(batch, [np.random.default_rng(s) for s in seeds], n, b, q, r)


@pytest.mark.parametrize("count, r, floyd", [
    (12, 4, True), (3, 2, True), (12, 0, False), (2, 1, False), (5, 5, False), (5, 6, False),
])
def test_floyds_loop_runs_for_fewer_passes_than_rows(monkeypatch, count, r, floyd):
    # the loop makes one pass per resigned position over all fresh rows, so
    # it runs for r < the fresh row count, and at least three rows; a
    # Generator row is not counted
    calls = []
    floyd_resigned = core._floyd_resigned
    monkeypatch.setattr(core, "_floyd_resigned",
                        lambda words, b, r: calls.append(len(words)) or floyd_resigned(words, b, r))
    seeds = [*range(count), np.random.default_rng(99)]
    batch = sample_rounds(20, 8, 0.5, r, seeds)
    assert calls == ([count] if floyd else [])
    references = [np.random.default_rng(s) for s in range(count)] + [np.random.default_rng(99)]
    assert_rows_follow_the_law(batch, references, 20, 8, 0.5, r)


def test_floyd_from_words_is_chosen_by_choice():
    # 10,000 seeded streams: the helper's set is choice's set
    rng = np.random.default_rng(2024)
    settings = {}
    for seed in range(10_000):
        b = int(rng.integers(1, 65))
        settings.setdefault((b, int(rng.integers(0, b + 1))), []).append(seed)
    for (b, r), seeds in settings.items():
        words = np.array([np.random.PCG64(seed).random_raw(_floyd_word_count(b, r)) for seed in seeds],
                         dtype=np.uint64).reshape(len(seeds), -1)
        resigned, rejected = _floyd_resigned(words, b, r)
        assert not rejected.any()
        for seed, row in zip(seeds, resigned):
            chosen = np.random.Generator(np.random.PCG64(seed)).choice(b, r, replace=False)
            assert np.flatnonzero(row).tolist() == sorted(chosen.tolist())
