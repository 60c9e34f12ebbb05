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

from seqselect.core import DomainError, Instance, SelectionOutcome, compute_quality, seed_entropy
from seqselect.policies import CUTOFF_VARIANTS, PolicySpec, policy_spec, run_policy

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
        if self.n + self.b > self.size:
            raise DomainError("population must hold at least n + b members")


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    resignation_mask: tuple
    sampled: tuple
    quality: float
    cutoff: Optional[int]
    outcome: SelectionOutcome

    @property
    def regret(self) -> int:
        return self.outcome.regret


def make_policy_selector(name: str) -> Callable[[int, int, int, float], PolicySpec]:
    """Map (n, b, r, q) to the PolicySpec of a policy token (policies.policy_spec)."""
    if name not in POLICY_NAMES:
        raise DomainError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    variant, cutoff = _TOKENS[name]

    def select(n: int, b: int, r: int, q: float) -> PolicySpec:
        return policy_spec(variant, n, b, r, q, None if cutoff is None else cutoff(n))

    return select


def run_chain(
    pop: PopulationSpec,
    rounds: int,
    p_res: float,
    policy_selector: Callable[[int, int, int, float], PolicySpec],
    seed,
) -> list:
    """Run one multi-round chain; fully deterministic in (arguments, seed).

    seed is an integer >= 0 or a sequence of them (core.seed_entropy).
    """
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    if not (0.0 <= p_res <= 1.0):
        raise DomainError("p_res must lie in [0, 1]")
    pop_ss, stream_ss = np.random.SeedSequence(seed_entropy(seed)).spawn(2)
    pop_rng = np.random.default_rng(pop_ss)
    scores = pop_rng.uniform(0.0, 1.0, size=pop.size)
    employed = pop_rng.choice(pop.size, size=pop.b, replace=False)  # member indices

    records = []
    for k in range(1, rounds + 1):
        employed = employed[np.argsort(-scores[employed], kind="stable")]  # best first
        resig_ss, sample_ss, policy_ss = stream_ss.spawn(1)[0].spawn(3)
        resigned = np.random.default_rng(resig_ss).uniform(size=pop.b) < p_res

        eligible = np.ones(pop.size, dtype=bool)
        eligible[employed] = False
        sampled = np.random.default_rng(sample_ss).choice(
            np.flatnonzero(eligible), size=pop.n, replace=False
        )

        instance = Instance(scores[employed], ~resigned, scores[sampled])
        q_k = compute_quality(instance)
        spec = policy_selector(pop.n, pop.b, instance.r, q_k)
        outcome = run_policy(instance, spec, rand_seed=policy_ss)

        kept = np.array(outcome.referent_decisions, dtype=bool)
        hired = np.array(outcome.candidate_decisions, dtype=bool)
        employed = np.concatenate((employed[kept], sampled[hired]))
        records.append(
            RoundRecord(
                round_index=k,
                resignation_mask=tuple(resigned.astype(int).tolist()),
                sampled=tuple(sampled.tolist()),
                quality=q_k,
                cutoff=spec.cutoff if spec.variant in CUTOFF_VARIANTS else None,
                outcome=outcome,
            )
        )
    return records


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

    Each run index derives one substream tree shared by all policies, so the
    population, resignation draws and candidate samples are paired across
    policies for variance reduction.
    """
    if not policy_names:
        raise DomainError("policy list must be non-empty")
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    # every name is checked here, before any chain runs
    selectors = {p: make_policy_selector(p) for p in policy_names}
    if len(selectors) != len(policy_names):
        raise DomainError(f"policy names must not repeat, got {tuple(policy_names)}")
    rows = {p: [] for p in policy_names}
    for i in range(runs):
        for p in policy_names:
            # a fresh SeedSequence per policy: identical identity => paired streams
            recs = run_chain(pop, rounds, p_res, selectors[p], [seed, i])
            rows[p].extend(
                (i, rec.round_index, rec.regret, rec.outcome.hires, rec.outcome.failures,
                 rec.quality, rec.cutoff)
                for rec in recs
            )
    out = {}
    for p in policy_names:
        # (run, round) -> regret; rows run in run-major, round-minor order
        regs = np.array([row[2] for row in rows[p]], dtype=float).reshape(runs, rounds)
        mean = regs.mean(axis=0)
        se = regs.std(axis=0, ddof=1) / math.sqrt(runs) if runs > 1 else np.zeros(rounds)
        out[p] = PolicyCurve(
            mean_regret=tuple(mean.tolist()),
            ci95_low=tuple((mean - 1.96 * se).tolist()),
            ci95_high=tuple((mean + 1.96 * se).tolist()),
            per_run=tuple(rows[p]),
        )
    return out
