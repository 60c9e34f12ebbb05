"""The scalar round engine: the decision reference of the batch engine.

The four policies of seqselect.policies, one round at a time, in plain
Python over an Instance's tuples, with the threshold of every step kept
(threshold_trace).  The library runs every round through its batch engine
(seqselect.policies.run_policy_batch); the tests hold that engine to this
one decision for decision (tests/test_policy_properties.py) and run
hand-checked examples and invariants against this one.  A round is scored
by its one-row RoundBatch (Instance.batch), as the batch engine scores it.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from seqselect.core import DomainError, Instance, learning_cutoff
from seqselect.policies import PolicySpec, ZoneConfig


@dataclass(frozen=True)
class SelectionOutcome:
    """Final decisions of one policy run.

    candidate_decisions[j] = 1 iff candidate j was hired; referent_decisions[i]
    = 1 iff referent i keeps the position.  threshold_trace holds the realized
    acceptance threshold of every step after the learning phase, so
    n - min(c, n - r) entries for a cutoff c and n for mean and rand; an
    entry is None once all b positions are filled.
    """

    candidate_decisions: tuple
    referent_decisions: tuple
    hires: int
    failures: int
    regret: int
    threshold_trace: tuple = field(default=())


def is_failure(j: int, hires_before: int, n: int, r: int, score: float,
               threshold: Optional[float]) -> bool:
    """Failure indicator: accepting a fill-forced candidate below threshold."""
    if j - hires_before < n - r + 1:
        return False
    return threshold is None or score < threshold


def _run_round(
    instance: Instance,
    start: int,
    threshold_at: Callable[[int, int, list], Optional[float]],
    after_step: Optional[Callable[[int, int], None]] = None,
) -> SelectionOutcome:
    """Drive one round from step start+1 to n.

    in_place lists the available referents still in place by index, best
    first; each hire past the first r fires its last entry, the worst.
    threshold_at(j, hires, in_place) returns the score to beat at step j
    (None when no regular acceptance is possible); after_step(j, hires) runs
    once the step-j decision is made.
    """
    n, b, r = instance.n, instance.b, instance.r
    in_place = [i for i, a in enumerate(instance.availability) if a]
    kept = list(instance.availability)
    A = [0] * n
    trace = []
    l = 0
    failures = 0
    for j in range(start + 1, n + 1):
        s = instance.candidate_scores[j - 1]
        tau = threshold_at(j, l, in_place) if l < b else None
        trace.append(tau)
        if l < b and ((tau is not None and s > tau) or j - l >= n - r + 1):
            failures += is_failure(j, l, n, r, s, tau)
            if l >= r:
                kept[in_place.pop()] = 0
            l += 1
            A[j - 1] = 1
        if after_step is not None:
            after_step(j, l)
    regret = instance.batch.regret(np.array([A], dtype=bool), np.array([kept], dtype=bool))
    return SelectionOutcome(
        candidate_decisions=tuple(A),
        referent_decisions=tuple(kept),
        hires=l,
        failures=failures,
        regret=int(regret[0]),
        threshold_trace=tuple(trace),
    )


def _learning_phase(instance: Instance, c: int):
    """(c_eff, y_b, n_rej, seen) for the learning phase c_eff that cutoff c
    runs: y_b is the b-th best score of the reference set and the first c_eff
    candidates, n_rej the number of those candidates strictly above it, and
    seen every one of those scores in ascending order."""
    c_eff = learning_cutoff(instance.n, instance.r, c)
    seen = sorted(instance.reference_scores + instance.candidate_scores[:c_eff])
    y_b = seen[-instance.b]
    n_rej = sum(1 for s in instance.candidate_scores[:c_eff] if s > y_b)
    return c_eff, y_b, n_rej, seen


def _cutoff_round(instance: Instance, c: int, zone: Optional[ZoneConfig]) -> SelectionOutcome:
    """The cutoff policy, with the feedback band of zone when one is given.

    Plain rule: while hires have not yet covered the resignations plus the
    learning-phase intruders (n_rej), the threshold is y_b, the b-th best
    score seen during learning; afterwards it is the worst remaining
    available referent, so no position is ever refilled by a worse item.

    Band: after each step the running hire count is compared to
    mu[j] +- width[j].  Inside, the plain rule holds; below, the next
    threshold is relaxed by D+ positions in the sorted list of all scores
    seen so far; above, tightened by D-.  The two counters count consecutive
    out-of-band steps and reset on re-entry.
    Forced acceptances are unchanged.
    """
    n, r = instance.n, instance.r
    if zone is not None and (zone.mu.shape != (n,) or zone.width.shape != (n,)):
        raise DomainError("zone mu curve length must equal n")
    c_eff, y_b, n_rej, seen = _learning_phase(instance, c)
    d_plus = d_minus = 0
    mode = "in"

    def threshold_at(j, l, in_place):
        if mode == "in":
            return y_b if l < n_rej + r else instance.reference_scores[in_place[-1]]
        # position of the learning threshold among everything seen (1 = best)
        m = len(seen) - bisect.bisect_left(seen, y_b)
        idx = m + d_plus if mode == "below" else m - d_minus
        return seen[len(seen) - min(max(idx, 1), len(seen))]

    def after_step(j, l):
        nonlocal d_plus, d_minus, mode
        bisect.insort(seen, instance.candidate_scores[j - 1])
        mu, width = zone.mu[j - 1], zone.width[j - 1]
        if l < mu - width:
            d_plus += 1
            mode = "below"
        elif l > mu + width:
            d_minus += 1
            mode = "above"
        else:
            d_plus = d_minus = 0
            mode = "in"

    return _run_round(instance, c_eff, threshold_at, None if zone is None else after_step)


def run_cutoff(instance: Instance, c: int) -> SelectionOutcome:
    """Cutoff policy: auto-reject the first c candidates, then accept above a
    learned threshold (the plain rule of _cutoff_round)."""
    return _cutoff_round(instance, c, None)


def run_adjusted_cutoff(instance: Instance, c: int, zone: ZoneConfig) -> SelectionOutcome:
    """Cutoff policy with a feedback band on the acceptance count (the band
    of _cutoff_round)."""
    return _cutoff_round(instance, c, zone)


def run_mean_baseline(instance: Instance) -> SelectionOutcome:
    """Accept a candidate iff the score beats the mean of the remaining
    available referents (0.5 when none remain); no learning phase."""
    # means[k]: mean score of the first k available referents, those in place
    # once len(in_place) = k, summed left to right as the batch engine's cumsum
    available = [s for s, a in zip(instance.reference_scores, instance.availability) if a]
    means = [0.5] + [total / k for k, total in enumerate(itertools.accumulate(available), 1)]
    return _run_round(instance, 0, lambda j, l, in_place: means[len(in_place)])


def _rand_thresholds(seeds, n: int) -> np.ndarray:
    """This engine's own RAND thresholds, drawn as the batch engine draws
    them: row t holds one Uniform(0,1) draw per step from seeds[t], a seed or
    a Generator.  A missing seed raises, so no round takes OS entropy."""
    if seeds is None or any(seed is None for seed in seeds):
        raise DomainError("the rand policy needs a seed for every round")
    return np.stack([np.random.default_rng(seed).uniform(0.0, 1.0, size=n) for seed in seeds])


def run_rand_baseline(instance: Instance, seed) -> SelectionOutcome:
    """Accept above a fresh Uniform(0,1) threshold drawn at every step."""
    draws = _rand_thresholds([seed], instance.n)[0].tolist()
    return _run_round(instance, 0, lambda j, l, in_place: draws[j - 1])


def spec_row(spec: PolicySpec, t: int) -> PolicySpec:
    """Round t's one-round PolicySpec: the cutoff and band rows that spec
    holds for round t, or the ones it holds for every round."""
    def row(values, ndim):
        values = np.asarray(values)
        return values if values.ndim == ndim else values[t if len(values) > 1 else 0]

    zone = None if spec.zone is None else ZoneConfig(row(spec.zone.mu, 1), row(spec.zone.width, 1))
    return PolicySpec(spec.variant, int(row(spec.cutoff, 0)), zone)


def run_policy(instance: Instance, spec: PolicySpec, rand_seed=None, t: int = 0) -> SelectionOutcome:
    """Run round t of a PolicySpec (spec_row) against one instance."""
    spec = spec_row(spec, t)
    if spec.variant == "csm":
        return run_cutoff(instance, spec.cutoff)
    if spec.variant == "acsm":
        return run_adjusted_cutoff(instance, spec.cutoff, spec.zone)
    if spec.variant == "mean":
        return run_mean_baseline(instance)
    return run_rand_baseline(instance, rand_seed)
