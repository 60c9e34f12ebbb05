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
from typing import Callable, Optional, Sequence

import numpy as np

from seqselect.core import DomainError, RoundBatch, check_setting, seed_entropy
from seqselect.policies import CUTOFF_VARIANTS, PolicySpec, policy_spec, run_policy_batch

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
    """One round index of every chain of a run_chains call, one row per
    chain: the round's RoundBatch, whose r, availability (the chains'
    resignations) and quality() are read from it, the (T, n) sampled member
    indices, the (T,) cutoffs run (None when the round's variant runs no
    cutoff), the (T, n) hired and (T, b) kept decisions, and the (T, 3)
    (regret, hires, failures) results."""

    batch: RoundBatch
    sampled: np.ndarray
    cutoffs: Optional[np.ndarray]
    hired: np.ndarray
    kept: np.ndarray
    results: np.ndarray


def make_policy_selector(name: str) -> Callable[[int, int, Sequence, Sequence], PolicySpec]:
    """Map one round index's (n, b, r, q), r and q one entry per chain, to
    the chains' PolicySpec for a policy token (policies.policy_spec)."""
    if name not in POLICY_NAMES:
        raise DomainError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    variant, cutoff = _TOKENS[name]

    def select(n: int, b: int, r: Sequence[int], q: Sequence[float]) -> PolicySpec:
        return policy_spec(variant, n, b, r, q, None if cutoff is None else cutoff(n))

    return select


def _draw_chains(pop: PopulationSpec, rounds: int, p_res: float, count: int, seeds) -> tuple:
    """What chain t draws from the t-th of the count seeds alone, whatever
    policy runs it: row t of the (T, size) scores and (T, b) first staff, and
    per round index the (T, b) resignations, (T, n) sample positions and T
    RAND seeds, the arrays allocated before any seed is read.  A sample
    position counts the size - b non-employed members in ascending order."""
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    if not (0.0 <= p_res <= 1.0):
        raise DomainError("p_res must lie in [0, 1]")
    if count < 1:
        raise DomainError("run_chains needs at least one seed")
    scores = np.empty((count, pop.size))
    staff = np.empty((count, pop.b), dtype=np.int64)  # member indices
    per_round = [(np.empty((count, pop.b), dtype=bool),
                  np.empty((count, pop.n), dtype=np.int64), []) for _ in range(rounds)]
    for t, seed in enumerate(seeds):
        pop_ss, stream_ss = np.random.SeedSequence(seed_entropy(seed)).spawn(2)
        pop_rng = np.random.default_rng(pop_ss)
        scores[t] = pop_rng.uniform(0.0, 1.0, size=pop.size)
        staff[t] = pop_rng.choice(pop.size, size=pop.b, replace=False)
        for (resigned, positions, rand_seeds), round_ss in zip(per_round, stream_ss.spawn(rounds)):
            resig_ss, sample_ss, rand_ss = round_ss.spawn(3)
            resigned[t] = np.random.default_rng(resig_ss).uniform(size=pop.b) < p_res
            # choice(eligible, n) is eligible[choice(size - b, n)] in every round
            positions[t] = np.random.default_rng(sample_ss).choice(
                pop.size - pop.b, size=pop.n, replace=False)
            rand_seeds.append(rand_ss)
    return scores, staff, per_round


def _members(positions: np.ndarray, employed: np.ndarray) -> np.ndarray:
    """The members at row t's positions among those outside employed[t]: a
    position steps past each employed member at or below it, smallest first."""
    for member in np.sort(employed, axis=1).T:
        positions = positions + (positions >= member[:, None])
    return positions


def _run_rounds(pop: PopulationSpec, select: Callable, scores, employed, per_round):
    """run_chains's ChainRounds, on _draw_chains's draws, under one policy,
    yielded one round index at a time."""
    rows = np.arange(len(scores))[:, None]
    for resigned, positions, rand_seeds in per_round:
        best_first = np.argsort(-scores[rows, employed], axis=1, kind="stable")
        employed = np.take_along_axis(employed, best_first, axis=1)
        sampled = _members(positions, employed)
        batch = RoundBatch(scores[rows, employed], ~resigned, scores[rows, sampled])
        spec = select(pop.n, pop.b, batch.r.tolist(), batch.quality().tolist())
        results, hired, kept = run_policy_batch(batch, spec, rand_seeds)
        cutoffs = (np.broadcast_to(spec.cutoff, len(batch))
                   if spec.variant in CUTOFF_VARIANTS else None)
        yield ChainRound(batch, sampled, cutoffs, hired, kept, results)
        # the kept referents, best first, then the hires in arrival order
        chosen = np.concatenate((kept, hired), axis=1)
        employed = np.concatenate((employed, sampled), axis=1)[chosen].reshape(employed.shape)


def run_chains(
    pop: PopulationSpec,
    rounds: int,
    p_res: float,
    policy_selector: Callable[[int, int, Sequence, Sequence], list],
    seeds: Sequence,
) -> list:
    """Run one multi-round chain per seed: a list of rounds ChainRounds,
    the k-th holding round k of every chain, row t that of seeds[t].

    A seed is an integer >= 0 or a sequence of them (core.seed_entropy).
    Chain t draws from seeds[t] alone, so row t is the one row that
    run_chains(..., [seeds[t]]) runs.  Round k of every chain runs as one row
    of a RoundBatch, with its own r, quality, cutoff and band, and
    policy_selector builds the round index's PolicySpec in one call.
    """
    draws = _draw_chains(pop, rounds, p_res, len(seeds), seeds)
    return list(_run_rounds(pop, policy_selector, *draws))


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
    """Paired multi-round comparison.

    Run i draws its population, resignations and candidate samples once,
    from the seed [seed, i], and every policy runs on those draws: the
    policies are paired for variance reduction.
    """
    if not policy_names:
        raise DomainError("policy list must be non-empty")
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    # every name is checked here, before any chain runs
    selectors = {p: make_policy_selector(p) for p in policy_names}
    if len(selectors) != len(policy_names):
        raise DomainError(f"policy names must not repeat, got {tuple(policy_names)}")
    seed_entropy(seed)
    draws = _draw_chains(pop, rounds, p_res, runs, ([seed, i] for i in range(runs)))
    out = {}
    for p in policy_names:
        # each round index's columns, one entry per run, read as the round
        # index runs, so a policy does not hold all its ChainRounds at once
        results, quality, cutoff = zip(*(
            (cr.results.tolist(), cr.batch.quality().tolist(),
             [None] * runs if cr.cutoffs is None else cr.cutoffs.tolist())
            for cr in _run_rounds(pop, selectors[p], *draws)))
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
