"""Property tests that pin the trial streams and the sampling law to numpy.

A batch of trials derives its SeedSequence state words as arrays
(stream_words) and draws each round with one random(n + b) call and one
choice call (core._draw_round).  Both are twins of numpy's own calls, so
both are held here to numpy itself: the words to SeedSequence's, the
Generators to default_rng(trial_stream(...)), and every round to the
three-call law written out below.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from seqselect.core import DomainError, generate_instance, sample_rounds  # noqa: E402
from seqselect.montecarlo import stream_words, trial_generators, trial_stream  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# entropy elements of one and of several 32-bit words, at their edges
ELEMENTS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40, 2**64 - 1, 2**64 + 5]),
    st.integers(0, 2**80),
)
# 1 to 6 elements: the entropy is shorter and longer than the pool of 4
CELL_SEEDS = st.lists(ELEMENTS, min_size=1, max_size=6).map(tuple)
CHILDREN = st.sampled_from([0, 1])


@st.composite
def index_ranges(draw, max_size=8):
    """start..stop of trial indices near 0 and near 2**32, where an index
    would grow a second word and stream_words rejects it."""
    start = draw(st.one_of(st.integers(0, 1000),
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
@given(CELL_SEEDS, CHILDREN, index_ranges())
def test_stream_words_are_seedsequence_words(cell_seed, child, bounds):
    start, stop = bounds
    if stop > 2**32:
        with pytest.raises(DomainError, match=r"must lie in \[0, 2\*\*32\)"):
            stream_words(cell_seed, start, stop, child)
        return
    words = stream_words(cell_seed, start, stop, child)
    expected = [np.random.SeedSequence([*cell_seed, i], spawn_key=(child,)).generate_state(8)
                for i in range(start, stop)]
    assert words.dtype == np.uint32 and words.shape == (stop - start, 8)
    assert words.tolist() == [row.tolist() for row in expected]


@SETTINGS
@given(CELL_SEEDS, CHILDREN, index_ranges(max_size=3),
       st.integers(1, 40).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b))),
       st.floats(-5.0, 5.0), st.floats(0.0, 5.0))
def test_generators_draw_as_the_reference_streams(cell_seed, child, bounds, b_r, low, width):
    start, stop = (min(index, 2**32) for index in bounds)  # indices in range
    b, r = b_r
    generators = trial_generators(cell_seed, start, stop, child)
    assert len(generators) == stop - start
    for i, rng in zip(range(start, stop), generators):
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
    # draw them: each round leaves the stream where the three calls leave it
    shared, reference = np.random.default_rng(seeds[0]), np.random.default_rng(seeds[0])
    for _ in range(2):
        inst = generate_instance(n, b, q, r, shared)
        refs, avail, cands = three_call_law(reference, n, b, q, r)
        assert list(inst.reference_scores) == refs
        assert list(inst.availability) == avail
        assert list(inst.candidate_scores) == cands
    batch = sample_rounds(n, b, q, r, seeds)
    for t, seed in enumerate(seeds):
        refs, avail, cands = three_call_law(np.random.default_rng(seed), n, b, q, r)
        assert batch.reference_scores[t].tolist() == refs
        assert batch.availability[t].tolist() == avail
        assert batch.candidate_scores[t].tolist() == cands
