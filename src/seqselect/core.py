"""Domain model for one warm-start selection round.

A round starts with b job positions held by scored referents (some of whom may
have resigned) and interviews n candidates one by one.  Everything downstream
is evaluated on absolute ranks over the combined pool of n + b scores, where
rank 1 is the best score.

It also holds the array twin of SeedSequence's state words
(spawn_state_words), which montecarlo's trials and multiround's chains share.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DomainError(ValueError):
    """Invalid parameters or inputs outside an operation's domain."""


class ContractError(RuntimeError):
    """An internal invariant or caller contract was violated."""


def seed_entropy(seed) -> tuple:
    """A seed as SeedSequence entropy: an integer >= 0 or a non-empty sequence of them."""
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    if not entropy or not all(isinstance(x, numbers.Integral) and x >= 0 for x in entropy):
        raise DomainError(f"seeds must be >= 0 and whole, got {seed!r}")
    return tuple(int(x) for x in entropy)


def check_quality(q: float) -> None:
    """The one check of a reference quality: it must lie in (0, 1)."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"need 0 < q < 1, got q={q}")


def check_setting(n: int, b: int, r: int) -> None:
    """The one check of a setting: b >= 1 positions, r of them resigned, and
    at least b candidates."""
    if not (0 <= r <= b <= n and b >= 1):
        raise DomainError("need 0 <= r <= b <= n and b >= 1")


#: the largest n the analytic cutoff scan takes.  A scan runs a step per
#: candidate over a column per cutoff, so its cost grows as n^2, less the
#: cutoffs the solver retires early: on a 2-vCPU x86_64 host, a cold
#: optimal_cutoff takes 0.25 s at (n, b, r) = (2,000, 5, 0), 1.6 to 1.8 s at
#: (5,000, 5, 0) and 2.2 to 2.5 s at (5,000, 50, 5); n = 1,000,000 would
#: take about a day.
MAX_SCAN_N = 5_000


def check_scan_size(n: int) -> None:
    """The one bound of the analytic cutoff scan (analytics), checked before
    any scan and, for a run that resolves cutoffs, before it starts."""
    if n > MAX_SCAN_N:
        raise DomainError(f"the cutoff scan takes n <= {MAX_SCAN_N}, got n={n}")


def similar_n(n: int, b: int, q: float) -> int:
    """n of the gamma_0-similar medium-quality setting of (n, b) at quality
    q, the setting whose cutoff analytics.resolve_cutoff scans; q below 1e-9
    is read as 1e-9."""
    return math.floor((n + b - 1) * (1.0 - max(q, 1e-9)) / 0.5 - b + 1)


def learning_cutoff(n: int, r, c):
    """The learning phase that cutoff c runs, min(c, n - r), in every layer;
    elementwise when c is an array, one cutoff per round, and r a number or
    an array of rounds.  DomainError when c lies outside [0, n].  The last r
    steps stay open: they are the forced-fill window, and a longer learning
    phase would leave fewer than r candidates for the r empty positions."""
    if isinstance(c, np.ndarray):
        bad = c[(c < 0) | (c > n)]
        if bad.size:
            raise DomainError(f"need 0 <= c <= n, got c={bad[0]} n={n}")
        return np.minimum(c, n - r)
    if not (0 <= c <= n):
        raise DomainError(f"need 0 <= c <= n, got c={c} n={n}")
    return min(c, n - r)


@dataclass(frozen=True)
class Instance:
    """One selection round: reference set, availability, and candidate sequence.

    reference_scores are strictly descending (best first).  availability[i] = 1
    means the i-th best referent still holds the position.  batch is the round
    as a one-row RoundBatch: it checks the round, derives n, b and r (the
    number of resignations), and ranks and scores it, as for the batch engine.
    """

    reference_scores: tuple
    availability: tuple
    candidate_scores: tuple
    batch: "RoundBatch" = field(init=False, compare=False, repr=False)
    n: int = field(init=False)
    b: int = field(init=False)
    r: int = field(init=False)

    def __post_init__(self):
        names = ("reference_scores", "availability", "candidate_scores")
        refs, avail, cands = map(self._array, names)
        if avail.size != refs.size:
            raise DomainError("availability must have length b")
        batch = RoundBatch(refs[None], avail[None], cands[None])
        # the one place a round's arrays become its frozen tuples of Python numbers
        frozen = (tuple(values.tolist()) for values in (refs, avail.astype(int), cands))
        fields = names + ("batch", "n", "b", "r")
        for name, value in zip(fields, (*frozen, batch, batch.n, batch.b, int(batch.r[0]))):
            object.__setattr__(self, name, value)

    def _array(self, name: str) -> np.ndarray:
        """Field name as one float array: the checks see the values as given."""
        try:
            values = np.asarray(getattr(self, name), dtype=float)
        except (TypeError, ValueError):  # a ragged nesting or a non-number
            values = np.empty((0, 0))
        if values.ndim != 1:
            raise DomainError(f"{name} must be one-dimensional and numeric")
        return values


MASK32 = 0xFFFFFFFF  # the low 32 bits of a word

# SeedSequence's hash constants and pool size, as numpy publishes them
# (numpy/random/bit_generator.pyx), after Melissa O'Neill's seed_seq_fe.
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16
POOL_SIZE = 4
STATE_WORDS = 8  # PCG64 seeds from generate_state(4, uint64), 8 words of 32 bits


def _int_words(x: int) -> list:
    """One entropy element as SeedSequence coerces it: its little-endian
    32-bit words, [0] for 0."""
    words = [x & MASK32]
    while x > MASK32:
        x >>= 32
        words.append(x & MASK32)
    return words


def entropy_words(entropy) -> list:
    """The 32-bit words of a sequence of entropy elements, in the order
    SeedSequence assembles them."""
    return [word for x in entropy for word in _int_words(x)]


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant, as (before, after) each step."""
    while True:
        after = init * mult & MASK32
        yield init, after
        init = after


def _state_words(columns: list) -> np.ndarray:
    """(T, STATE_WORDS) uint32: row t is what SeedSequence's mix_entropy and
    generate_state make of the assembled entropy whose words are
    columns[k][t], at least POOL_SIZE of them, all in uint32 arithmetic."""
    hash_a = _hash_constants(INIT_A, MULT_A)

    def hashmix(value):
        before, after = next(hash_a)
        value = (value ^ before) * after
        return value ^ (value >> XSHIFT)

    def mix(x, y):
        result = x * MIX_MULT_L - y * MIX_MULT_R
        return result ^ (result >> XSHIFT)

    pool = [hashmix(column) for column in columns[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for column in columns[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(column))
    words = np.empty((len(columns[0]), STATE_WORDS), dtype=np.uint32)
    hash_b = _hash_constants(INIT_B, MULT_B)
    for k in range(STATE_WORDS):
        before, after = next(hash_b)
        value = (pool[k % POOL_SIZE] ^ before) * after
        words[:, k] = value ^ (value >> XSHIFT)
    return words


def spawn_state_words(columns: list, key) -> np.ndarray:
    """(T, STATE_WORDS) uint32: row t is
    SeedSequence(entropy_t, spawn_key=key).generate_state(STATE_WORDS), for
    every row at once, where entropy_t's 32-bit words are columns[k][t] (a
    uint32 array each) and key is an int child or a spawn-key tuple.  As
    SeedSequence assembles it, a non-empty key follows the entropy padded
    with zeros to POOL_SIZE words; an entropy shorter than that is mixed as
    if zero-padded anyway, so an empty key needs no case of its own."""
    key_words = entropy_words((key,) if isinstance(key, numbers.Integral) else key)
    zeros = [0] * (POOL_SIZE - len(columns))

    def constant(word):
        return np.full(len(columns[0]), word, dtype=np.uint32)

    return _state_words([*columns, *map(constant, zeros + key_words)])


class StateWords(np.random.bit_generator.ISeedSequence):
    """The seed of one PCG64: a row of spawn_state_words as the uint64 words
    that generate_state(4, np.uint64) gives, all that PCG64 asks of its seed."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for (4, np.uint64): the identity test spares it np.dtype's cost
        if not (dtype is np.uint64 or np.dtype(dtype) == np.uint64) or n_words > len(self.state):
            raise ContractError(f"holds {len(self.state)} uint64 words, "
                                f"asked for {n_words} of {np.dtype(dtype)}")
        return self.state[:n_words]


def state_seeds(words: np.ndarray) -> list:
    """One StateWords per row of a (T, STATE_WORDS) array of state words:
    default_rng of seed t draws what default_rng of row t's SeedSequence
    draws."""
    # each uint64 word is two state words, low word first, as SeedSequence pairs them
    states = words.astype("<u4").view("<u8").astype(np.uint64)
    return [StateWords(state) for state in states]
# a seed that continues its own stream; any other seed starts a fresh one
_CONTINUING = (np.random.Generator, np.random.BitGenerator)


def _floyd_word_count(b: int, r: int) -> int:
    """The PCG64 words that choice(b, r, replace=False) takes when no draw
    is rejected: one uint32 for each j of b-r..b-1 but j = 0, two per word."""
    return (min(r, b - 1) + 1) // 2


def _floyd_resigned(words: np.ndarray, b: int, r: int):
    """Floyd's sample of r positions of b, as choice(b, r, replace=False)
    draws it from the uint32 halves of each row of words, a
    (T, _floyd_word_count(b, r)) uint64 array, low half first: Lemire's
    bounded integer (u32 * (j + 1)) >> 32 in [0, j] for j = b-r..b-1 (none
    at j = 0), j itself when that value was already chosen.  Returns the
    (T, b) bool sets and the (T,) bool rows where choice would reject a
    draw, a product whose low half lies below the threshold
    (2**32 - 1 - j) % (j + 1), and draw past the words: those rows' sets
    are not choice's.  All rows draw at once, one j at a time."""
    T = len(words)
    steps = np.arange(max(b - r, 1), b, dtype=np.uint64)  # the j that draw
    # as little-endian uint32 pairs each word is its low half, then its high half
    products = words.astype("<u8").view("<u4")[:, : len(steps)] * (steps + 1)
    rejected = ((products & MASK32) < (MASK32 - steps) % (steps + 1)).any(axis=1)
    # positions in the flat (T * b) result, one row of T per j: row t's v is t * b + v
    starts = np.arange(T) * b
    values = (products >> 32).astype(np.intp).T + starts
    at_step = steps.astype(np.intp)[:, None] + starts
    resigned = np.zeros(T * b, dtype=bool)
    if r == b:  # j = 0 comes first and draws nothing: position 0
        resigned[starts] = True
    for value, j in zip(values, at_step):
        resigned[np.where(resigned[value], j, value)] = True
    return resigned.reshape(T, b), rejected


def _draw_round(seeds, n: int, b: int, q: float, r: int):
    """The rounds that seeds draw, one row each, as arrays: (T, b)
    reference_scores, (T, b) availability and (T, n) candidate_scores.  The
    one home of the sampling law that sample_rounds documents.

    Every row draws what uniform(0, 1, n), uniform(lo, hi, b) and
    choice(b, r, replace=False) on default_rng(seed) draw, in that order:
    random(n + b), whose first n doubles are the candidates (uniform(0, 1)
    is 0 + 1 * u) and whose last b become lo + (hi - lo) * u, uniform's own
    expression; then the r positions that resign.

    A Generator or BitGenerator seed continues its own stream, so its row
    makes numpy's own calls, random(n + b) and choice.  So does every row
    when r = 0, when choice would leave Floyd's algorithm, and when the
    other, fresh seeds are too few for Floyd's loop to pay.  Otherwise each
    fresh row draws random(n + b), then the raw words whose uint32 halves
    choice would read, and _floyd_resigned draws the resigned positions of
    all those rows at once.  choice's final shuffle only reorders that set
    and leaves a stream that no one reads again, so it is skipped.  A row
    where choice would reject a draw is drawn again by numpy's own calls.
    The scaling and the descending sort run once over all rows.  A
    referent that rounds to its better neighbour's double moves to the
    double just below it: up to b - 1 ulps off the law, possibly below lo,
    and DomainError below 0.
    """
    lo, hi = max(0.0, 2.0 * q - 1.0), min(1.0, 2.0 * q)
    draws = np.empty((len(seeds), n + b))
    avail = np.ones((len(seeds), b), dtype=np.int64)
    rows = [t for t, seed in enumerate(seeds) if not isinstance(seed, _CONTINUING)]
    left = range(len(seeds))  # the rows that call choice
    # Floyd's loop costs about two choice calls to set up and less than one
    # per pass, one pass per resigned position: it takes at least three
    # fresh rows, and fewer passes than rows.  choice runs Floyd's algorithm
    # unless b > 10000 and r > b // 50
    if 0 < r < len(rows) and len(rows) >= 3 and (b <= 10000 or r <= b // 50):
        words = np.empty((len(rows), _floyd_word_count(b, r)), dtype=np.uint64)
        for k, t in enumerate(rows):
            rng = np.random.default_rng(seeds[t])
            rng.random(out=draws[t])
            words[k] = rng.bit_generator.random_raw(words.shape[1])
        resigned, rejected = _floyd_resigned(words, b, r)
        resigned[rejected] = False  # choice would draw past the words: drawn below
        avail[rows] = ~resigned
        left = sorted(set(left).difference(rows).union(np.array(rows)[rejected].tolist()))
    for t in left:
        rng = np.random.default_rng(seeds[t])
        rng.random(out=draws[t])
        if r > 0:
            avail[t, rng.choice(b, size=r, replace=False)] = 0
    refs = draws[:, n:]  # scaled and sorted in place: lo + (hi - lo) * u, ascending
    refs *= hi - lo
    refs += lo
    refs.sort(axis=1)
    # contiguous copies: on a small strided array every later numpy call costs more
    refs = np.ascontiguousarray(refs[:, ::-1])
    # bits[k] <= bits[k - 1] - 1 on the bit patterns of non-negative doubles,
    # which order as the doubles do; a row with no tie is kept to the bit
    steps = np.arange(b)
    bits = np.minimum.accumulate(refs.view(np.int64) + steps, axis=1) - steps
    if (bits[:, -1] < 0).any():
        raise DomainError(f"q={q} leaves too few doubles above 0 to draw {b} distinct referents")
    return bits.view(np.float64), avail, np.ascontiguousarray(draws[:, :n])


@dataclass(frozen=True, eq=False)
class RoundBatch:
    """T rounds of one size (n, b) as arrays, one row per round: the batch
    twin of Instance, which holds its round as a batch of one.

    reference_scores and availability are (T, b), candidate_scores (T, n);
    n, b and r are derived, r per row: r[t] is the number of resignations
    that row t of availability marks.  __post_init__ is the one check of a
    round's values, run over every row: availability in {0, 1},
    check_setting on the derived sizes, finite scores and strictly
    descending referents.
    """

    reference_scores: np.ndarray
    availability: np.ndarray
    candidate_scores: np.ndarray
    n: int = field(init=False)
    b: int = field(init=False)
    r: np.ndarray = field(init=False)

    def __post_init__(self):
        refs, avail, cands = self.reference_scores, self.availability, self.candidate_scores
        if refs.ndim != 2 or avail.shape != refs.shape:
            raise DomainError("reference_scores and availability must be (T, b) arrays")
        if cands.ndim != 2 or len(cands) != len(refs):
            raise DomainError("candidate_scores must be a (T, n) array")
        if not ((avail == 0) | (avail == 1)).all():
            raise DomainError("availability entries must be 0 or 1")
        n, b = cands.shape[1], refs.shape[1]
        r = b - avail.sum(axis=1).astype(np.int64)
        check_setting(n, b, int(r.max(initial=0)))  # every r lies in [0, b]
        if not (np.isfinite(refs).all() and np.isfinite(cands).all()):
            raise DomainError("scores must be finite")
        if (refs[:, :-1] <= refs[:, 1:]).any():
            raise DomainError("reference_scores must be strictly descending")
        for name, value in zip(("n", "b", "r"), (n, b, r)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.candidate_scores)

    @cached_property
    def ranks(self) -> np.ndarray:
        """(T, b + n) joint ranks, referents first, computed on first use and
        kept: each row is a permutation of 1..n+b, rank 1 the best score.  Ties
        (possible only in user-supplied rounds) break toward the earlier item:
        referents before candidates, then arrival order.

        Every row is sorted by numpy's default (SIMD) argsort; a row whose
        sorted scores hold two equal neighbours (0.0 and -0.0 among them) is
        sorted again with a stable sort.  That is exact: a row with no tie
        has one sorted order, which every sort finds."""
        keys = -np.concatenate([self.reference_scores, self.candidate_scores], axis=1)
        order = np.argsort(keys, axis=1)
        ordered = np.sort(keys, axis=1)
        tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if tied.any():
            order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
        ranks = np.empty(keys.shape, dtype=np.int64)
        np.put_along_axis(ranks, order, np.arange(1, keys.shape[1] + 1), axis=1)
        return ranks

    def offline_optimum(self) -> np.ndarray:
        """The offline oracle of every round: the minimal rank sum of b items
        chosen from the candidates and the available referents by an oracle
        that sees every rank (n >= b, so there are always b to choose)."""
        n, b = self.n, self.b
        selectable = self.ranks.copy()
        # a resigned referent gets a rank past every rank: never among the b best
        selectable[:, :b][self.availability == 0] = n + b + 1
        return np.partition(selectable, b - 1, axis=1)[:, :b].sum(axis=1)

    def quality(self) -> np.ndarray:
        """Every round's normalized average referent rank; 1 is best, 1/2 is
        medium: q = 1 - (mean referent rank - x_min) / (x_max - x_min) with
        x_min = (b+1)/2 and x_max = n + (b+1)/2, so the denominator is n and
        a mean rank of (n+b+1)/2 gives exactly q = 1/2."""
        mean_rank = self.ranks[:, : self.b].mean(axis=1)
        return 1.0 - (mean_rank - (self.b + 1) / 2.0) / self.n

    def regret(self, hired: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """The rank sum of every round's final assignment minus its offline
        optimum (always >= 0): hired (T, n) and kept (T, b) are the boolean
        candidate and referent decisions."""
        chosen = np.concatenate([kept, hired], axis=1)  # in the column order of ranks
        if (chosen.sum(axis=1) != self.b).any():
            raise ContractError("fill constraint violated: assignments != b")
        if (kept & (self.availability == 0)).any():
            raise ContractError("a resigned referent cannot keep the position")
        return (self.ranks * chosen).sum(axis=1) - self.offline_optimum()


def sample_rounds(n: int, b: int, q: float, r: int, seeds) -> RoundBatch:
    """One round per seed, stacked, with target reference quality q.

    Candidates are i.i.d. Uniform(0,1).  Referents are i.i.d. Uniform on
    (max(0, 2q-1), min(1, 2q)), sorted descending, which yields quality q in
    expectation, bar the ulps that part tied referents; exactly r of the b
    positions are marked resigned, uniformly at random.  Row t is what
    uniform(0, 1, n), uniform(lo, hi, b) and choice(b, r, replace=False) on
    default_rng(seeds[t]) draw (_draw_round).  A Generator or BitGenerator
    seed draws from where its stream stands and is left where those calls
    leave it, so [rng] * T stacks the rounds of T calls on [rng].  When
    there are enough other seeds, their resigned positions are drawn
    together, from the raw words that choice would read."""
    check_quality(q)
    check_setting(n, b, r)
    seeds = list(seeds)
    if not seeds:
        raise DomainError("sample_rounds needs at least one seed")
    return RoundBatch(*_draw_round(seeds, n, b, q, r))
