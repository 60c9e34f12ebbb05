"""Online selection engines.

All engines share the round contract: decisions are immediate and irrevocable,
every position must be filled at the end, and once the number of hires covers
the resignations each further hire fires the worst remaining available
referent.  A hire forced purely by the fill constraint whose score is below
the step threshold counts as a failure.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from seqselect.analytics import AnalyticParams, mu_hat_curve, resolve_cutoff
from seqselect.core import (
    DomainError,
    Instance,
    RoundBatch,
    SelectionOutcome,
    learning_cutoff,
)


CUTOFF_VARIANTS = ("csm", "acsm")  # the policies that run a learning cutoff
VARIANTS = CUTOFF_VARIANTS + ("mean", "rand")


@dataclass(frozen=True)
class ZoneConfig:
    """Band around the expected no-failure acceptance trajectory.

    mu[j-1] is the expected number of accepted candidates at step j given no
    failure occurs; width[j-1] the band half-width.
    """

    mu: tuple
    width: tuple

    def __post_init__(self):
        if len(self.mu) != len(self.width):
            raise DomainError("zone mu and width must have equal lengths")

    @classmethod
    def default(cls, n: int, b: int, mu: Sequence[float]) -> "ZoneConfig":
        if len(mu) != n:
            raise DomainError("mu curve must have length n")
        width = tuple(0.5 * b * (1.0 - j / n) for j in range(1, n + 1))
        return cls(mu=tuple(np.asarray(mu, dtype=float).tolist()), width=width)

    @classmethod
    def infinite(cls, n: int) -> "ZoneConfig":
        """Band that never triggers an adjustment (engine coincides with the
        plain cutoff policy decision-by-decision)."""
        return cls(mu=(0.0,) * n, width=(math.inf,) * n)


@dataclass(frozen=True)
class PolicySpec:
    """Which policy to run and its parameters."""

    variant: str  # one of VARIANTS
    cutoff: int = 0
    zone: Optional[ZoneConfig] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown policy variant {self.variant!r}")
        if self.variant == "acsm" and self.zone is None:
            raise DomainError("acsm requires a zone config")


def policy_spec(variant: str, n: int, b: int, r: int, q: float, c=None) -> PolicySpec:
    """The PolicySpec of variant in the setting (n, b, r, q): a cutoff policy
    runs c, or the translated cutoff when c is None, and acsm adds the default
    band around the model's mu_hat there; mean and rand take no parameter,
    but a given c must still lie in [0, n] for every variant."""
    if c is not None:
        learning_cutoff(n, r, c)
    if variant not in CUTOFF_VARIANTS:
        return PolicySpec(variant)
    c = resolve_cutoff(n, b, r, q).c_target if c is None else c
    if variant == "csm":
        return PolicySpec(variant, cutoff=c)
    # the model needs 0 < q < 1; a chain's measured quality can sit on an end
    mu = mu_hat_curve(AnalyticParams(n=n, b=b, r=r, q=min(max(q, 1e-6), 1.0 - 1e-6), c=c))
    return PolicySpec(variant, cutoff=c, zone=ZoneConfig.default(n, b, mu))


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
    if zone is not None and len(zone.mu) != n:
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
    """The RAND policy's thresholds: row t holds one Uniform(0,1) draw per step
    from seeds[t], a seed or a Generator.  A missing seed raises, so no round
    takes OS entropy."""
    if seeds is None or any(seed is None for seed in seeds):
        raise DomainError("the rand policy needs a seed for every round")
    return np.stack([np.random.default_rng(seed).uniform(0.0, 1.0, size=n) for seed in seeds])


def run_rand_baseline(instance: Instance, seed) -> SelectionOutcome:
    """Accept above a fresh Uniform(0,1) threshold drawn at every step."""
    draws = _rand_thresholds([seed], instance.n)[0].tolist()
    return _run_round(instance, 0, lambda j, l, in_place: draws[j - 1])


def run_policy(instance: Instance, spec: PolicySpec, rand_seed=None) -> SelectionOutcome:
    """Dispatch a PolicySpec against one instance."""
    if spec.variant == "csm":
        return run_cutoff(instance, spec.cutoff)
    if spec.variant == "acsm":
        return run_adjusted_cutoff(instance, spec.cutoff, spec.zone)
    if spec.variant == "mean":
        return run_mean_baseline(instance)
    return run_rand_baseline(instance, rand_seed)


# The batch engine: the round loop and the four policies over every round of
# a RoundBatch at once, decision for decision equal to the scalar engine above.
# A batch step is a handful of array operations whatever the number of rounds,
# so it pays from a few dozen rounds of one setting (montecarlo.run_cell); a
# batch of one costs several times a scalar round (multiround.run_chain).


def _run_batch(
    batch: RoundBatch,
    start: int,
    threshold_at: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    after_step: Optional[Callable[[int, np.ndarray], None]] = None,
) -> np.ndarray:
    """_run_round over every round of batch: (T, 3) int64 rows of (regret,
    hires, failures).

    The contract of _run_round, with one array entry per round:
    threshold_at(j, hires, in_place) returns the scores to beat at step j,
    where in_place counts the available referents still in place, which are
    the first in_place of the round's available referents, best first;
    after_step(j, hires) runs once the step-j decisions are made.  Every
    round takes part in every step; a round whose positions are all filled
    decides nothing.
    """
    n, b, r = batch.n, batch.b, batch.r
    hires = np.zeros(len(batch), dtype=np.int64)
    failures = np.zeros(len(batch), dtype=np.int64)
    hired = np.zeros((len(batch), n), dtype=bool)
    for j in range(start + 1, n + 1):
        s = batch.candidate_scores[:, j - 1]
        tau = threshold_at(j, hires, (b - r) - np.maximum(hires - r, 0))
        forced = j - hires >= n - r + 1
        hire = (hires < b) & ((s > tau) | forced)
        failures += hire & forced & (s < tau)  # is_failure
        hired[:, j - 1] = hire
        hires += hire
        if after_step is not None:
            after_step(j, hires)
    # each hire past the first r fired the worst available referent in place
    in_place = (b - r) - np.maximum(hires - r, 0)
    kept = (batch.availability == 1) & (np.cumsum(batch.availability, axis=1) <= in_place[:, None])
    return np.column_stack([batch.regret(hired, kept), hires, failures])


def _available_scores(batch: RoundBatch) -> np.ndarray:
    """(T, b - r) scores of each round's available referents, best first."""
    return batch.reference_scores[batch.availability == 1].reshape(len(batch), batch.b - batch.r)


def _cutoff_batch(batch: RoundBatch, c: int, zone: Optional[ZoneConfig]) -> np.ndarray:
    """_cutoff_round over every round of batch, band included.

    Out of the band, a round's threshold is the idx-th best of the b + j - 1
    scores seen before step j, read from those scores sorted, as the scalar
    engine reads its sorted list; tied scores share one value, so which of
    them counts first does not matter.
    """
    n, b, r = batch.n, batch.b, batch.r
    if zone is not None and len(zone.mu) != n:
        raise DomainError("zone mu curve length must equal n")
    c_eff = learning_cutoff(n, r, c)
    rows = np.arange(len(batch))
    learning = np.concatenate([batch.reference_scores, batch.candidate_scores[:, :c_eff]], axis=1)
    y_b = np.sort(learning, axis=1)[:, -b]
    n_rej = (batch.candidate_scores[:, :c_eff] > y_b[:, None]).sum(axis=1)
    # worst[:, k]: the worst of the first k available referents (none at k = 0)
    worst = np.column_stack([np.full(len(batch), np.nan), _available_scores(batch)])

    def plain(hires, in_place):
        return np.where(hires < n_rej + r, y_b, worst[rows, in_place])

    if zone is None:
        return _run_batch(batch, c_eff, lambda j, hires, in_place: plain(hires, in_place))

    pool = np.concatenate([batch.reference_scores, batch.candidate_scores], axis=1)
    d_plus = np.zeros(len(batch), dtype=np.int64)
    d_minus = np.zeros(len(batch), dtype=np.int64)
    mode = np.zeros(len(batch), dtype=np.int8)  # 0 in the band, 1 below, 2 above
    mu, width = np.asarray(zone.mu), np.asarray(zone.width)

    def threshold_at(j, hires, in_place):
        tau = plain(hires, in_place)
        out = np.flatnonzero((mode != 0) & (hires < b))
        if out.size:
            seen = np.sort(pool[out, : b + j - 1], axis=1)  # the idx-th best at b + j - 1 - idx
            # position of the learning threshold among everything seen (1 = best)
            m = (seen >= y_b[out, None]).sum(axis=1)
            idx = np.where(mode[out] == 1, m + d_plus[out], m - d_minus[out])
            tau[out] = seen[np.arange(out.size), b + j - 1 - np.clip(idx, 1, b + j - 1)]
        return tau

    def after_step(j, hires):
        below = hires < mu[j - 1] - width[j - 1]
        above = ~below & (hires > mu[j - 1] + width[j - 1])
        inside = ~below & ~above
        d_plus[:] = np.where(inside, 0, d_plus + below)
        d_minus[:] = np.where(inside, 0, d_minus + above)
        mode[:] = np.where(below, 1, np.where(above, 2, 0))

    return _run_batch(batch, c_eff, threshold_at, after_step)


def _mean_batch(batch: RoundBatch) -> np.ndarray:
    """run_mean_baseline over every round of batch."""
    # means[:, k]: mean score of the first k available referents (0.5 at k = 0),
    # summed left to right as the scalar engine sums them
    sums = np.cumsum(_available_scores(batch), axis=1)
    means = np.column_stack([np.full(len(batch), 0.5), sums / np.arange(1, batch.b - batch.r + 1)])
    rows = np.arange(len(batch))
    return _run_batch(batch, 0, lambda j, hires, in_place: means[rows, in_place])


def _rand_batch(batch: RoundBatch, seeds) -> np.ndarray:
    """run_rand_baseline over every round of batch, round t drawing from seeds[t]."""
    draws = _rand_thresholds(seeds, batch.n)
    return _run_batch(batch, 0, lambda j, hires, in_place: draws[:, j - 1])


def run_policy_batch(batch: RoundBatch, spec: PolicySpec, rand_seeds=None) -> np.ndarray:
    """run_policy over every round of batch: (T, 3) int64 rows of (regret,
    hires, failures), row t equal to run_policy's outcome on round t with
    rand_seeds[t]."""
    if spec.variant in CUTOFF_VARIANTS:
        return _cutoff_batch(batch, spec.cutoff, spec.zone if spec.variant == "acsm" else None)
    if spec.variant == "mean":
        return _mean_batch(batch)
    return _rand_batch(batch, rand_seeds)
