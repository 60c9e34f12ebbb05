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
from seqselect.policies import CUTOFF_VARIANTS, policy_spec, run_policy_batch

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


@dataclass(frozen=True)
class RoundRecord:
    """One round of one chain: its draws, the measured reference quality,
    the cutoff run (None for mean and rand), the decisions (candidate j
    hired, referent i kept, as 0 or 1), and the regret, hires and failures."""

    round_index: int
    resignation_mask: tuple
    sampled: tuple
    quality: float
    cutoff: Optional[int]
    candidate_decisions: tuple
    referent_decisions: tuple
    regret: int
    hires: int
    failures: int


def make_policy_selector(name: str) -> Callable[[int, int, Sequence, Sequence], list]:
    """Map one round index's (n, b, r, q), r and q one entry per chain, to
    the chains' PolicySpecs for a policy token (policies.policy_spec)."""
    if name not in POLICY_NAMES:
        raise DomainError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    variant, cutoff = _TOKENS[name]

    def select(n: int, b: int, r: Sequence[int], q: Sequence[float]) -> list:
        return policy_spec(variant, n, b, r, q, None if cutoff is None else cutoff(n))

    return select


def _draw_chains(pop: PopulationSpec, rounds: int, p_res: float, seeds: Sequence) -> tuple:
    """What chain t draws from seeds[t] alone, whatever policy runs it: row t
    of the (T, size) scores and (T, b) first staff, and per round index the
    (T, b) resignations, (T, n) sample positions and T RAND seeds.  A sample
    position counts the size - b non-employed members in ascending order."""
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    if not (0.0 <= p_res <= 1.0):
        raise DomainError("p_res must lie in [0, 1]")
    streams = [np.random.SeedSequence(seed_entropy(seed)).spawn(2) for seed in seeds]
    if not streams:
        raise DomainError("run_chains needs at least one seed")
    T = len(streams)
    scores = np.empty((T, pop.size))
    staff = np.empty((T, pop.b), dtype=np.int64)  # member indices
    per_round = [(np.empty((T, pop.b), dtype=bool), np.empty((T, pop.n), dtype=np.int64), [])
                 for _ in range(rounds)]
    for t, (pop_ss, stream_ss) in enumerate(streams):
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


def _run_rounds(pop: PopulationSpec, select: Callable, scores, employed, per_round) -> list:
    """run_chains's chains, on _draw_chains's draws, under one policy."""
    rows = np.arange(len(scores))[:, None]
    records = [[] for _ in scores]
    for k, (resigned, positions, rand_seeds) in enumerate(per_round, 1):
        best_first = np.argsort(-scores[rows, employed], axis=1, kind="stable")
        employed = np.take_along_axis(employed, best_first, axis=1)
        sampled = _members(positions, employed)
        batch = RoundBatch(scores[rows, employed], ~resigned, scores[rows, sampled])
        quality = batch.quality().tolist()
        specs = select(pop.n, pop.b, batch.r.tolist(), quality)
        results, hired, kept = run_policy_batch(batch, specs, rand_seeds)
        # the kept referents, best first, then the hires in arrival order
        chosen = np.concatenate((kept, hired), axis=1)
        employed = np.concatenate((employed, sampled), axis=1)[chosen].reshape(employed.shape)
        for t, (chain, spec) in enumerate(zip(records, specs)):
            regret, hires, failures = results[t].tolist()
            chain.append(RoundRecord(
                round_index=k,
                resignation_mask=tuple(resigned[t].astype(int).tolist()),
                sampled=tuple(sampled[t].tolist()),
                quality=quality[t],
                cutoff=spec.cutoff if spec.variant in CUTOFF_VARIANTS else None,
                candidate_decisions=tuple(hired[t].astype(int).tolist()),
                referent_decisions=tuple(kept[t].astype(int).tolist()),
                regret=regret,
                hires=hires,
                failures=failures,
            ))
    return records


def run_chains(
    pop: PopulationSpec,
    rounds: int,
    p_res: float,
    policy_selector: Callable[[int, int, Sequence, Sequence], list],
    seeds: Sequence,
) -> list:
    """Run one multi-round chain per seed: a list of each chain's
    RoundRecords, in the order of seeds.

    A seed is an integer >= 0 or a sequence of them (core.seed_entropy).
    Chain t draws from seeds[t] alone, so it is the chain that
    run_chains(..., [seeds[t]]) runs.  Round k of every chain runs as one row
    of a RoundBatch, with its own r, quality and PolicySpec, and
    policy_selector builds the round's specs in one call.
    """
    return _run_rounds(pop, policy_selector, *_draw_chains(pop, rounds, p_res, seeds))


@dataclass(frozen=True)
class PolicyCurve:
    """Per-round regret aggregate of one policy over paired runs."""

    mean_regret: tuple
    ci95_low: tuple
    ci95_high: tuple
    per_run: tuple  # (run, round, regret, hires, failures, quality, cutoff) rows


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
    draws = _draw_chains(pop, rounds, p_res, [[seed, i] for i in range(runs)])
    out = {}
    for p in policy_names:
        rows = tuple(
            (i, rec.round_index, rec.regret, rec.hires, rec.failures, rec.quality, rec.cutoff)
            for i, recs in enumerate(_run_rounds(pop, selectors[p], *draws))
            for rec in recs
        )
        # (run, round) -> regret; rows run in run-major, round-minor order
        regs = np.array([row[2] for row in rows], dtype=float).reshape(runs, rounds)
        mean = regs.mean(axis=0)
        se = regs.std(axis=0, ddof=1) / math.sqrt(runs) if runs > 1 else np.zeros(rounds)
        out[p] = PolicyCurve(
            mean_regret=tuple(mean.tolist()),
            ci95_low=tuple((mean - 1.96 * se).tolist()),
            ci95_high=tuple((mean + 1.96 * se).tolist()),
            per_run=rows,
        )
    return out
