"""Online selection engines.

All engines share the round contract: decisions are immediate and irrevocable,
every position must be filled at the end, and once the number of hires covers
the resignations each further hire fires the worst remaining available
referent.  A hire forced purely by the fill constraint whose score is below
the step threshold counts as a failure.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from seqselect.core import (
    ContractError,
    DomainError,
    Instance,
    SelectionOutcome,
    realized_regret,
)


@dataclass(frozen=True)
class ZoneConfig:
    """Band around the expected no-failure acceptance trajectory.

    mu[j-1] is the expected number of accepted candidates at step j given no
    failure occurs; width[j-1] the band half-width; increment[j-1] the amount
    added to the relax/tighten accumulator per consecutive out-of-band step.
    """

    mu: tuple
    width: tuple
    increment: tuple

    @classmethod
    def default(cls, n: int, b: int, mu: Sequence[float]) -> "ZoneConfig":
        if len(mu) != n:
            raise DomainError("mu curve must have length n")
        width = tuple(0.5 * b * (1.0 - j / n) for j in range(1, n + 1))
        return cls(mu=tuple(float(x) for x in mu), width=width, increment=(1.0,) * n)

    @classmethod
    def infinite(cls, n: int) -> "ZoneConfig":
        """Band that never triggers an adjustment (engine coincides with the
        plain cutoff policy decision-by-decision)."""
        return cls(mu=(0.0,) * n, width=(math.inf,) * n, increment=(1.0,) * n)


@dataclass(frozen=True)
class PolicySpec:
    """Which policy to run and its parameters."""

    variant: str  # one of csm | acsm | mean | rand
    cutoff: int = 0
    zone: Optional[ZoneConfig] = None

    def __post_init__(self):
        if self.variant not in ("csm", "acsm", "mean", "rand"):
            raise DomainError(f"unknown policy variant {self.variant!r}")
        if self.variant == "acsm" and self.zone is None:
            raise DomainError("acsm requires a zone config")


def is_failure(j: int, hires_before: int, n: int, r: int, score: float,
               threshold: Optional[float]) -> bool:
    """Failure indicator: accepting a fill-forced candidate below threshold."""
    if j - hires_before < n - r + 1:
        return False
    return threshold is None or score < threshold


def _run_round(
    instance: Instance,
    start: int,
    threshold_at: Callable[[int, int], Optional[float]],
    after_step: Optional[Callable[[int, int], None]] = None,
) -> SelectionOutcome:
    """Drive one round from step start+1 to n.

    threshold_at(j, hires) returns the score to beat at step j (None when no
    regular acceptance is possible); after_step(j, hires) runs once the step-j
    decision is made.  Firing order: worst remaining available referent.
    """
    n, b, r = instance.n, instance.b, instance.r
    avail_idx = [i for i, a in enumerate(instance.availability) if a]
    kept = list(instance.availability)
    A = [0] * n
    trace = []
    l = 0
    failures = 0
    for j in range(start + 1, n + 1):
        s = instance.candidate_scores[j - 1]
        tau = threshold_at(j, l) if l < b else None
        trace.append(tau)
        forced = l < b and (j - l >= n - r + 1)
        if l < b and ((tau is not None and s > tau) or forced):
            if forced and (tau is None or s < tau):
                failures += 1
            if l >= r:
                kept[avail_idx[len(avail_idx) - 1 - (l - r)]] = 0
            l += 1
            A[j - 1] = 1
        if after_step is not None:
            after_step(j, l)
    outcome = SelectionOutcome(
        candidate_decisions=tuple(A),
        referent_decisions=tuple(kept),
        hires=l,
        failures=failures,
        regret=0,
        threshold_trace=tuple(trace),
    )
    # the regret needs the finished decisions; nothing else holds this object
    # yet, so it is set in place rather than on a second outcome
    object.__setattr__(outcome, "regret", realized_regret(instance, outcome))
    return outcome


def _learning_phase(instance: Instance, c: int):
    """Clamp the cutoff, compute the updated reference set and n_rej.

    The cutoff is clamped to n - r so the forced-fill window is never
    swallowed by the learning phase; for larger c the final r candidates are
    still force-accepted, which keeps the fill constraint satisfiable.
    """
    n, b, r = instance.n, instance.b, instance.r
    if not (0 <= c <= n):
        raise DomainError(f"cutoff must lie in [0, n], got {c}")
    c_eff = min(c, n - r)
    pool = sorted(instance.reference_scores + instance.candidate_scores[:c_eff], reverse=True)
    y_b = pool[b - 1]
    n_rej = sum(1 for s in instance.candidate_scores[:c_eff] if s > y_b)
    avail_scores = [s for s, a in zip(instance.reference_scores, instance.availability) if a]
    return c_eff, y_b, n_rej, avail_scores


def run_cutoff(instance: Instance, c: int) -> SelectionOutcome:
    """Cutoff policy: auto-reject the first c candidates, then accept above a
    learned threshold.

    While hires have not yet covered the resignations plus the learning-phase
    intruders (n_rej), the threshold is the b-th best score seen during
    learning; afterwards it is the worst remaining available referent, so no
    position is ever refilled by a worse item.
    """
    b, r = instance.b, instance.r
    c_eff, y_b, n_rej, avail_scores = _learning_phase(instance, c)

    def threshold_at(j, l):
        if l < n_rej + r:
            return y_b
        return avail_scores[b - l - 1]

    return _run_round(instance, c_eff, threshold_at)


def run_adjusted_cutoff(instance: Instance, c: int, zone: ZoneConfig) -> SelectionOutcome:
    """Cutoff policy with a feedback band on the acceptance count.

    After each step the running hire count is compared to the band
    mu[j] +- width[j]: inside, the threshold is the plain cutoff-policy one;
    below, the next threshold is relaxed by floor(D+) positions in the sorted
    list of all scores seen so far; above, tightened by floor(D-).  The two
    accumulators gain increment[j] per consecutive out-of-band step and reset
    on re-entry.  Forced acceptances are unchanged.
    """
    n, b, r = instance.n, instance.b, instance.r
    if len(zone.mu) != n:
        raise DomainError("zone mu curve length must equal n")
    c_eff, y_b, n_rej, avail_scores = _learning_phase(instance, c)
    seen = sorted(instance.reference_scores + instance.candidate_scores[:c_eff])
    state = {"d_plus": 0.0, "d_minus": 0.0, "mode": "in"}

    def adjusted_value() -> float:
        # position of the learning threshold among everything seen (1 = best)
        m = len(seen) - bisect.bisect_left(seen, y_b)
        if state["mode"] == "below":
            idx = m + math.floor(state["d_plus"])
        else:
            idx = m - math.floor(state["d_minus"])
        idx = min(max(idx, 1), len(seen))
        return seen[len(seen) - idx]

    def threshold_at(j, l):
        if state["mode"] == "below" or state["mode"] == "above":
            return adjusted_value()
        if l < n_rej + r:
            return y_b
        return avail_scores[b - l - 1]

    def after_step(j, l):
        bisect.insort(seen, instance.candidate_scores[j - 1])
        lo = zone.mu[j - 1] - zone.width[j - 1]
        hi = zone.mu[j - 1] + zone.width[j - 1]
        if l < lo:
            state["d_plus"] += zone.increment[j - 1]
            state["mode"] = "below"
        elif l > hi:
            state["d_minus"] += zone.increment[j - 1]
            state["mode"] = "above"
        else:
            state["d_plus"] = 0.0
            state["d_minus"] = 0.0
            state["mode"] = "in"

    return _run_round(instance, c_eff, threshold_at, after_step)


def run_mean_baseline(instance: Instance) -> SelectionOutcome:
    """Accept a candidate iff the score beats the mean of the remaining
    available referents (0.5 when none remain); no learning phase."""
    b, r = instance.b, instance.r
    avail_scores = [s for s, a in zip(instance.reference_scores, instance.availability) if a]

    def threshold_at(j, l):
        remaining = avail_scores[: len(avail_scores) - max(l - r, 0)]
        if not remaining:
            return 0.5
        return sum(remaining) / len(remaining)

    return _run_round(instance, 0, threshold_at)


def run_rand_baseline(instance: Instance, seed) -> SelectionOutcome:
    """Accept above a fresh Uniform(0,1) threshold drawn at every step."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(0.0, 1.0, size=instance.n)

    def threshold_at(j, l):
        return float(draws[j - 1])

    return _run_round(instance, 0, threshold_at)


def run_policy(instance: Instance, spec: PolicySpec, rand_seed=None) -> SelectionOutcome:
    """Dispatch a PolicySpec against one instance."""
    if spec.variant == "csm":
        return run_cutoff(instance, spec.cutoff)
    if spec.variant == "acsm":
        return run_adjusted_cutoff(instance, spec.cutoff, spec.zone)
    if spec.variant == "mean":
        return run_mean_baseline(instance)
    return run_rand_baseline(instance, rand_seed)
