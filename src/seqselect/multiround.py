"""Multi-round driver: each round is one warm-start selection over a fresh
candidate sample from a fixed population, and its output staffing seeds the
next round.

Per round: employed members resign independently with probability p_res, n
candidates are sampled uniformly without replacement from the non-employed
members, the reference quality is computed by an oracle ranking the round's
referents against the sample, and the chosen policy runs the round.  Resigned
members rejoin the candidate pool for future rounds.

A seed and a run count name the runs: run i draws from the spawn tree of
SeedSequence([*seed_entropy(seed), i]), each key's seeds for every run from
one core.stream_seeds call, as montecarlo's trials draw theirs.  run_chains
returns the rounds that compare_policies aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from seqselect.core import (
    DomainError,
    RoundBatch,
    check_scan_size,
    check_setting,
    seed_entropy,
    similar_n,
    stream_seeds,
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


def _draw_chains(pop: PopulationSpec, rounds: int, p_res: float, seed, runs: int) -> tuple:
    """What run i draws, whatever policy runs it: row i of the (runs, size)
    scores and (runs, b) first staff, and the (rounds, runs, b)
    resignations and (rounds, runs, n) sample positions, the arrays
    allocated before any seed is read, so rounds that cannot fit fail at
    once.  A sample position counts the size - b non-employed members in
    ascending order.

    Run i's streams are the children of SeedSequence([*seed_entropy(seed), i])
    that spawn(2) and their spawns give, named by spawn key: (0,) draws the
    population, and round k's (1, k, 0) and (1, k, 1) its resignations and
    its sample positions; (1, k, 2), its RAND seed, is derived by the round
    loop.  Each key's seeds come from one core.stream_seeds call for every
    run; the uniform and choice draws are numpy's own calls.
    """
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    if not (0.0 <= p_res <= 1.0):
        raise DomainError("p_res must lie in [0, 1]")
    scores = np.empty((runs, pop.size))
    staff = np.empty((runs, pop.b), dtype=np.int64)  # member indices
    resigned = np.empty((rounds, runs, pop.b), dtype=bool)
    positions = np.empty((rounds, runs, pop.n), dtype=np.int64)
    for i, stream in enumerate(stream_seeds(seed, 0, runs, (0,))):
        rng = np.random.default_rng(stream)
        scores[i] = rng.uniform(0.0, 1.0, size=pop.size)
        staff[i] = rng.choice(pop.size, size=pop.b, replace=False)
    for k in range(rounds):
        for i, stream in enumerate(stream_seeds(seed, 0, runs, (1, k, 0))):
            resigned[k, i] = np.random.default_rng(stream).uniform(size=pop.b) < p_res
        # choice(eligible, n) is eligible[choice(size - b, n)] in every round
        for i, stream in enumerate(stream_seeds(seed, 0, runs, (1, k, 1))):
            positions[k, i] = np.random.default_rng(stream).choice(
                pop.size - pop.b, size=pop.n, replace=False)
    return scores, staff, resigned, positions


def _members(positions: np.ndarray, employed: np.ndarray) -> np.ndarray:
    """The members at row t's positions among those outside employed[t]: a
    position steps past each employed member at or below it, smallest first."""
    for member in np.sort(employed, axis=1).T:
        positions = positions + (positions >= member[:, None])
    return positions


def _chains(pop: PopulationSpec, rounds: int, p_res: float, names: Sequence[str], seed,
            runs: int):
    """The prologue and the round loop that run_chains and compare_policies
    share: runs and names are checked before anything is drawn, then every
    run is drawn once (_draw_chains), and every policy runs in lock step,
    row p T + t run t of T = runs under the token names[p].  A round index is
    one RoundBatch, one ranking, one _policy_specs call, one
    core.stream_seeds call for its RAND seeds and one run_policy_batch
    call; the T runs' population scores are read by row, not copied per
    policy.  Yields one ChainRound per round index."""
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    _check_policies(pop, names)
    seed = seed_entropy(seed)
    scores, staff, resigned, positions = _draw_chains(pop, rounds, p_res, seed, runs)
    chain = np.arange(len(names) * runs) % runs
    rows = chain[:, None]
    employed = staff[chain]
    for k in range(rounds):
        best_first = np.argsort(-scores[rows, employed], axis=1, kind="stable")
        employed = np.take_along_axis(employed, best_first, axis=1)
        sampled = _members(positions[k, chain], employed)
        batch = RoundBatch(scores[rows, employed], ~resigned[k, chain], scores[rows, sampled])
        specs = _policy_specs(names, pop.n, pop.b, batch.r.tolist(), batch.quality().tolist())
        rand_seeds = stream_seeds(seed, 0, runs, (1, k, 2))
        results, hired, kept = run_policy_batch(batch, specs, rand_seeds * len(names))
        cutoffs = tuple(spec.cutoff if spec.variant in CUTOFF_VARIANTS else None for spec in specs)
        yield ChainRound(batch, sampled, cutoffs, hired, kept, results)
        # the kept referents, best first, then the hires in arrival order
        chosen = np.concatenate((kept, hired), axis=1)
        employed = np.concatenate((employed, sampled), axis=1)[chosen].reshape(employed.shape)


def run_chains(pop: PopulationSpec, rounds: int, p_res: float, names: Sequence[str],
               seed, runs: int) -> list:
    """The rounds that compare_policies(pop, rounds, p_res, names, runs,
    seed) aggregates, a list of rounds ChainRounds: the k-th holds round k
    of every run, row p T + t that of run t under the policy token names[p].

    Run t draws from the seed [*seed_entropy(seed), t] alone (a seed is an
    integer >= 0 or a sequence of them), so it is the same for any runs > t,
    and every policy runs on its draws: row p T + t is row t of
    run_chains(..., [names[p]], seed, runs).  Round k of every run is one
    row of a RoundBatch, with its own r, quality, cutoff and band.
    """
    return list(_chains(pop, rounds, p_res, names, seed, runs))


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
    """Paired multi-round comparison: the rounds of run_chains(pop, rounds,
    p_res, policy_names, seed, runs), aggregated policy by policy.

    Run i draws its population, resignations and candidate samples once,
    and every policy runs on those draws: the policies are paired for
    variance reduction.  Each policy's curve is the one it gives alone on
    the same draws.  One round index is held at a time.
    """
    # each policy's columns per round index, one entry per run, read as the
    # round index runs
    columns = [[] for _ in policy_names]
    for cr in _chains(pop, rounds, p_res, policy_names, seed, runs):
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
