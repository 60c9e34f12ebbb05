"""Multi-round driver: each round is one warm-start selection over a fresh
candidate sample from a fixed population, and its output staffing seeds the
next round.

Per round: employed members resign independently with probability p_res, n
candidates are sampled uniformly without replacement from the non-employed
members, the reference quality is computed by an oracle ranking the round's
referents against the sample, and the chosen policy runs the round.  Resigned
members rejoin the candidate pool for future rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from seqselect.core import (
    STATE_WORDS,
    DomainError,
    RoundBatch,
    check_scan_size,
    check_setting,
    entropy_words,
    seed_entropy,
    similar_n,
    spawn_state_words,
    state_seeds,
)
from seqselect.policies import CUTOFF_VARIANTS, policy_specs, run_policy_batch

# token -> (variant, cutoff rule at n); no rule runs the translated cutoff
_TOKENS = {"csm-star": ("csm", None), "csm-e": ("csm", lambda n: math.floor(n / math.e)),
           "csm-0": ("csm", lambda n: 0), "acsm-star": ("acsm", None),
           "mean": ("mean", None), "rand": ("rand", None)}
POLICY_NAMES = tuple(_TOKENS)


@dataclass(frozen=True)
class PopulationSpec:
    size: int = 1000
    n: int = 100
    b: int = 5

    def __post_init__(self):
        check_setting(self.n, self.b, 0)
        if self.n + self.b > self.size:
            raise DomainError("population must hold at least n + b members")


@dataclass(frozen=True, eq=False)
class ChainRound:
    """One round index of every chain of every policy of a run_chains call,
    row p T + t chain t under the p-th policy: the round's RoundBatch, whose
    r, availability (the chains' resignations) and quality() are read from
    it, the (P T, n) sampled member indices, the cutoffs run, one entry per
    policy (its (T,) cutoffs, or None when its variant runs no cutoff), the
    (P T, n) hired and (P T, b) kept decisions, and the (P T, 3) (regret,
    hires, failures) results."""

    batch: RoundBatch
    sampled: np.ndarray
    cutoffs: tuple
    hired: np.ndarray
    kept: np.ndarray
    results: np.ndarray


def _check_policies(pop: PopulationSpec, names: Sequence[str]) -> None:
    """Reject an empty, unknown or repeated list of policy tokens, and, when
    one translates its cutoff, a population whose scans cannot fit."""
    if not names:
        raise DomainError("policy list must be non-empty")
    for name in names:
        if name not in POLICY_NAMES:
            raise DomainError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    if len(set(names)) != len(names):
        raise DomainError(f"policy names must not repeat, got {tuple(names)}")
    if any(_TOKENS[name][0] in CUTOFF_VARIANTS and _TOKENS[name][1] is None for name in names):
        # a translated cutoff scans the similar setting of the round's
        # quality, which can lie near 0: the largest is checked up front
        check_scan_size(similar_n(pop.n, pop.b, 0.0))


def _policy_specs(names: Sequence[str], n: int, b: int, r: Sequence, q: Sequence) -> list:
    """One PolicySpec per equal block of the rounds (n, b, r[t], q[t]),
    block p run by the policy token names[p], from one policies.policy_specs
    call."""
    return policy_specs([(variant, None if rule is None else rule(n))
                         for variant, rule in map(_TOKENS.get, names)], n, b, r, q)


def _draw_chains(pop: PopulationSpec, rounds: int, p_res: float, count: int, seeds) -> tuple:
    """What chain t draws from the t-th of the count seeds alone, whatever
    policy runs it: row t of the (T, size) scores and (T, b) first staff, and
    per round index the (T, b) resignations, (T, n) sample positions and T
    RAND seeds, the arrays allocated before any seed is read.  A sample
    position counts the size - b non-employed members in ascending order.

    Chain t's streams are the children of SeedSequence(seed_entropy(seed))
    that spawn(2) and their spawns give, named by spawn key: (0,) draws the
    population, and round k's (1, k, 0), (1, k, 1) and (1, k, 2) its
    resignations, its sample positions and its RAND seed.  Each stream's
    state words are derived for every chain at once, one
    core.spawn_state_words call per key for the chains whose entropies have
    the same number of words, and each Generator is seeded by a row of them
    (core.StateWords); the uniform and choice draws are numpy's own calls.
    """
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    if not (0.0 <= p_res <= 1.0):
        raise DomainError("p_res must lie in [0, 1]")
    if count < 1:
        raise DomainError("run_chains needs at least one seed")
    scores = np.empty((count, pop.size))
    staff = np.empty((count, pop.b), dtype=np.int64)  # member indices
    per_round = [(np.empty((count, pop.b), dtype=bool),
                  np.empty((count, pop.n), dtype=np.int64)) for _ in range(rounds)]
    entropies = [entropy_words(seed_entropy(seed)) for seed in seeds]
    by_length = {}
    for t, words in enumerate(entropies):
        by_length.setdefault(len(words), []).append(t)
    groups = [(rows, list(np.array([entropies[t] for t in rows], dtype=np.uint32).T))
              for rows in by_length.values()]

    def stream_seeds(key) -> list:
        words = np.empty((count, STATE_WORDS), dtype=np.uint32)
        for rows, columns in groups:
            words[rows] = spawn_state_words(columns, key)
        return state_seeds(words)

    for t, seed in enumerate(stream_seeds((0,))):
        rng = np.random.default_rng(seed)
        scores[t] = rng.uniform(0.0, 1.0, size=pop.size)
        staff[t] = rng.choice(pop.size, size=pop.b, replace=False)
    for k, (resigned, positions) in enumerate(per_round):
        for t, seed in enumerate(stream_seeds((1, k, 0))):
            resigned[t] = np.random.default_rng(seed).uniform(size=pop.b) < p_res
        # choice(eligible, n) is eligible[choice(size - b, n)] in every round
        for t, seed in enumerate(stream_seeds((1, k, 1))):
            positions[t] = np.random.default_rng(seed).choice(
                pop.size - pop.b, size=pop.n, replace=False)
    per_round = [(*arrays, stream_seeds((1, k, 2))) for k, arrays in enumerate(per_round)]
    return scores, staff, per_round


def _members(positions: np.ndarray, employed: np.ndarray) -> np.ndarray:
    """The members at row t's positions among those outside employed[t]: a
    position steps past each employed member at or below it, smallest first."""
    for member in np.sort(employed, axis=1).T:
        positions = positions + (positions >= member[:, None])
    return positions


def _chain_rounds(pop: PopulationSpec, names: Sequence[str], scores, staff, per_round):
    """The round loop on _draw_chains's draws, every policy in lock step:
    row p T + t runs chain t under the policy token names[p].  A round index
    is one RoundBatch, one ranking, one _policy_specs call and one
    run_policy_batch call; the T chains' population scores are read by row,
    not copied per policy.  Yields one ChainRound per round index."""
    chain = np.arange(len(names) * len(scores)) % len(scores)
    rows = chain[:, None]
    employed = staff[chain]
    for resigned, positions, rand_seeds in per_round:
        best_first = np.argsort(-scores[rows, employed], axis=1, kind="stable")
        employed = np.take_along_axis(employed, best_first, axis=1)
        sampled = _members(positions[chain], employed)
        batch = RoundBatch(scores[rows, employed], ~resigned[chain], scores[rows, sampled])
        specs = _policy_specs(names, pop.n, pop.b, batch.r.tolist(), batch.quality().tolist())
        results, hired, kept = run_policy_batch(batch, specs, list(rand_seeds) * len(names))
        cutoffs = tuple(spec.cutoff if spec.variant in CUTOFF_VARIANTS else None for spec in specs)
        yield ChainRound(batch, sampled, cutoffs, hired, kept, results)
        # the kept referents, best first, then the hires in arrival order
        chosen = np.concatenate((kept, hired), axis=1)
        employed = np.concatenate((employed, sampled), axis=1)[chosen].reshape(employed.shape)


def run_chains(pop: PopulationSpec, rounds: int, p_res: float, names: Sequence[str],
               seeds: Sequence) -> list:
    """Run one multi-round chain per seed under each policy token of names:
    a list of rounds ChainRounds, the k-th holding round k of every chain,
    row p T + t that of seeds[t] under names[p].

    A seed is an integer >= 0 or a sequence of them (core.seed_entropy).
    Chain t draws from seeds[t] alone, whatever policy runs it, so every
    policy runs on the same draws, and row p T + t is the one row that
    run_chains(..., [names[p]], [seeds[t]]) runs.  Round k of every chain
    runs as one row of a RoundBatch, with its own r, quality, cutoff and
    band.  The names are checked before anything is drawn.
    """
    _check_policies(pop, names)
    draws = _draw_chains(pop, rounds, p_res, len(seeds), seeds)
    return list(_chain_rounds(pop, names, *draws))


@dataclass(frozen=True)
class PolicyCurve:
    """Per-round regret aggregate of one policy over paired runs.  per_run
    holds one (run, round, regret, hires, failures, quality, cutoff) row of
    Python numbers per chain round, run-major, with cutoff None for mean and
    rand."""

    mean_regret: tuple
    ci95_low: tuple
    ci95_high: tuple
    per_run: tuple


def compare_policies(
    pop: PopulationSpec,
    rounds: int,
    p_res: float,
    policy_names: Sequence[str],
    runs: int,
    seed: int,
) -> dict:
    """Paired multi-round comparison: the rounds of run_chains on the seeds
    [*seed_entropy(seed), i], i < runs, aggregated policy by policy.

    Run i draws its population, resignations and candidate samples once,
    and every policy runs on those draws: the policies are paired for
    variance reduction.  Each policy's curve is the one it gives alone on
    the same draws.  One round index is held at a time.
    """
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    _check_policies(pop, policy_names)
    entropy = seed_entropy(seed)
    draws = _draw_chains(pop, rounds, p_res, runs, ([*entropy, i] for i in range(runs)))
    # each policy's columns per round index, one entry per run, read as the
    # round index runs
    columns = [[] for _ in policy_names]
    for cr in _chain_rounds(pop, policy_names, *draws):
        quality = cr.batch.quality()
        for p, cutoff in enumerate(cr.cutoffs):
            block = slice(p * runs, (p + 1) * runs)
            columns[p].append((cr.results[block].tolist(), quality[block].tolist(),
                               [None] * runs if cutoff is None else cutoff.tolist()))
    out = {}
    for p, column in zip(policy_names, columns):
        results, quality, cutoff = zip(*column)
        rows = tuple((i, k + 1, *results[k][i], quality[k][i], cutoff[k][i])
                     for i, k in np.ndindex(runs, rounds))
        # a C-contiguous (runs, rounds) matrix: past 8 runs, std's sum over
        # runs depends on the layout
        regs = np.array(results, dtype=float)[..., 0].T.copy(order="C")
        mean = regs.mean(axis=0)
        se = regs.std(axis=0, ddof=1) / math.sqrt(runs) if runs > 1 else np.zeros(rounds)
        out[p] = PolicyCurve(
            mean_regret=tuple(mean.tolist()),
            ci95_low=tuple((mean - 1.96 * se).tolist()),
            ci95_high=tuple((mean + 1.96 * se).tolist()),
            per_run=rows,
        )
    return out
