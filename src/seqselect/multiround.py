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

from seqselect.analytics import AnalyticParams, mu_hat_curve, resolve_cutoff
from seqselect.core import DomainError, Instance, SelectionOutcome, compute_quality
from seqselect.policies import PolicySpec, ZoneConfig, run_policy

POLICY_NAMES = ("csm-star", "csm-e", "csm-0", "acsm-star", "mean", "rand")


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


def acsm_spec(n: int, b: int, r: int, q: float, c: int) -> PolicySpec:
    """Adjusted cutoff policy at cutoff c with the default zone around mu_hat.

    The zone is built at the effective cutoff the engine will use,
    min(c, n - r), so the no-failure conditioning stays well defined for
    every c.
    """
    mu = mu_hat_curve(AnalyticParams(n=n, b=b, r=r, q=q, c=min(c, n - r)))
    return PolicySpec(variant="acsm", cutoff=c, zone=ZoneConfig.default(n, b, mu))


def make_policy_selector(name: str) -> Callable[[int, int, int, float], PolicySpec]:
    """Map (n, b, r, q) to a PolicySpec for each supported policy token."""
    if name not in POLICY_NAMES:
        raise DomainError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")

    def select(n: int, b: int, r: int, q: float) -> PolicySpec:
        if name == "csm-star":
            return PolicySpec(variant="csm", cutoff=resolve_cutoff(n, b, r, q).c_target)
        if name == "csm-e":
            return PolicySpec(variant="csm", cutoff=math.floor(n / math.e))
        if name == "csm-0":
            return PolicySpec(variant="csm", cutoff=0)
        if name == "acsm-star":
            # the zone's curve needs a quality inside (0, 1); the chain's can sit on an end
            q_model = min(max(q, 1e-6), 1.0 - 1e-6)
            return acsm_spec(n, b, r, q_model, resolve_cutoff(n, b, r, q).c_target)
        if name == "mean":
            return PolicySpec(variant="mean")
        return PolicySpec(variant="rand")

    return select


def run_chain(
    pop: PopulationSpec,
    rounds: int,
    p_res: float,
    policy_selector: Callable[[int, int, int, float], PolicySpec],
    seed,
) -> list:
    """Run one multi-round chain; fully deterministic in (arguments, seed)."""
    if not (0.0 <= p_res <= 1.0):
        raise DomainError("p_res must lie in [0, 1]")
    root = np.random.SeedSequence(seed) if not isinstance(seed, np.random.SeedSequence) else seed
    pop_ss, stream_ss = root.spawn(2)
    pop_rng = np.random.default_rng(pop_ss)
    scores = pop_rng.uniform(0.0, 1.0, size=pop.size)
    employed = list(pop_rng.choice(pop.size, size=pop.b, replace=False))
    employed.sort(key=lambda i: -scores[i])

    records = []
    for k in range(1, rounds + 1):
        round_ss = stream_ss.spawn(1)[0]
        resig_ss, sample_ss, policy_ss = round_ss.spawn(3)
        resig_rng = np.random.default_rng(resig_ss)
        resigned = resig_rng.uniform(size=pop.b) < p_res
        availability = tuple(0 if resigned[i] else 1 for i in range(pop.b))

        sample_rng = np.random.default_rng(sample_ss)
        eligible = np.setdiff1d(np.arange(pop.size), np.asarray(employed, dtype=int))
        sampled = sample_rng.choice(eligible, size=pop.n, replace=False)

        instance = Instance(
            n=pop.n,
            b=pop.b,
            reference_scores=tuple(scores[i] for i in employed),
            availability=availability,
            candidate_scores=tuple(scores[i] for i in sampled),
        )
        q_k = compute_quality(instance)
        spec = policy_selector(pop.n, pop.b, instance.r, q_k)
        outcome = run_policy(instance, spec, rand_seed=policy_ss)

        kept_idx = [employed[i] for i, keep in enumerate(outcome.referent_decisions) if keep]
        hired_idx = [int(sampled[j]) for j, a in enumerate(outcome.candidate_decisions) if a]
        employed = kept_idx + hired_idx
        employed.sort(key=lambda i: -scores[i])
        records.append(
            RoundRecord(
                round_index=k,
                resignation_mask=tuple(int(x) for x in resigned),
                sampled=tuple(int(x) for x in sampled),
                quality=q_k,
                cutoff=spec.cutoff if spec.variant in ("csm", "acsm") else None,
                outcome=outcome,
            )
        )
    return records


@dataclass(frozen=True)
class PolicyCurve:
    """Per-round regret aggregate of one policy over paired runs."""

    policy: str
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
    regs = {p: np.zeros((runs, rounds)) for p in policy_names}
    rows = {p: [] for p in policy_names}
    for i in range(runs):
        for p in policy_names:
            selector = make_policy_selector(p)
            # fresh SeedSequence per policy: identical identity => paired streams
            recs = run_chain(pop, rounds, p_res, selector, np.random.SeedSequence([seed, i]))
            for rec in recs:
                regs[p][i, rec.round_index - 1] = rec.regret
                rows[p].append(
                    (
                        i,
                        rec.round_index,
                        rec.regret,
                        rec.outcome.hires,
                        rec.outcome.failures,
                        rec.quality,
                        rec.cutoff,
                    )
                )
    out = {}
    for p in policy_names:
        mean = regs[p].mean(axis=0)
        se = regs[p].std(axis=0, ddof=1) / math.sqrt(runs) if runs > 1 else np.zeros(rounds)
        out[p] = PolicyCurve(
            policy=p,
            mean_regret=tuple(mean.tolist()),
            ci95_low=tuple((mean - 1.96 * se).tolist()),
            ci95_high=tuple((mean + 1.96 * se).tolist()),
            per_run=tuple(rows[p]),
        )
    return out


def multiround_csv_rows(curves: dict):
    """Per-run CSV: run,round,policy,regret,hires,failures,q,c_used."""
    yield "run,round,policy,regret,hires,failures,q,c_used"
    for p, curve in curves.items():
        for run, rnd, regret, hires, failures, q, c_used in curve.per_run:
            c_txt = "" if c_used is None else str(c_used)
            yield f"{run},{rnd},{p},{regret},{hires},{failures},{q:.6f},{c_txt}"


def aggregate_csv_rows(curves: dict):
    """Aggregated CSV: round,policy,mean_regret,ci95_low,ci95_high."""
    yield "round,policy,mean_regret,ci95_low,ci95_high"
    for p, curve in curves.items():
        for idx in range(len(curve.mean_regret)):
            yield (
                f"{idx + 1},{p},{curve.mean_regret[idx]:.6f},"
                f"{curve.ci95_low[idx]:.6f},{curve.ci95_high[idx]:.6f}"
            )
