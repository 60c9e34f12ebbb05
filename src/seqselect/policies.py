"""Online selection: the four policies over every round of a RoundBatch.

Every policy keeps the round contract: decisions are immediate and
irrevocable, every position must be filled at the end, and once the number
of hires covers the resignations each further hire fires the worst remaining
available referent.  A hire forced purely by the fill constraint whose score
is below the step threshold counts as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from seqselect.analytics import mu_hat_rows, resolve_cutoff
from seqselect.core import DomainError, RoundBatch, learning_cutoff


CUTOFF_VARIANTS = ("csm", "acsm")  # the policies that run a learning cutoff
VARIANTS = CUTOFF_VARIANTS + ("mean", "rand")


@dataclass(frozen=True)
class ZoneConfig:
    """Band around the expected no-failure acceptance trajectory.

    mu[..., j-1] is the expected number of accepted candidates at step j
    given no failure occurs; width[..., j-1] the band half-width.  Each is a
    float array of shape (n,), one band for every round, or (T, n), one row
    per round.
    """

    mu: np.ndarray
    width: np.ndarray

    def __post_init__(self):
        for name in ("mu", "width"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if {self.mu.ndim, self.width.ndim} - {1, 2} or self.mu.shape[-1] != self.width.shape[-1]:
            raise DomainError("zone mu and width must be (n,) or (T, n) arrays of equal lengths n")

    @classmethod
    def default(cls, n: int, b: int, mu) -> "ZoneConfig":
        """The band of half-width 0.5 b (1 - j/n) at step j around mu."""
        return cls(mu=mu, width=0.5 * b * (1.0 - np.arange(1, n + 1) / n))

    @classmethod
    def infinite(cls, n: int) -> "ZoneConfig":
        """Band that never triggers an adjustment (engine coincides with the
        plain cutoff policy decision-by-decision)."""
        return cls(mu=np.zeros(n), width=np.full(n, np.inf))


@dataclass(frozen=True)
class PolicySpec:
    """Which policy to run over a batch of rounds, and its parameters: the
    cutoff is one int for every round or an int array of one per round, and
    the zone's rows are likewise one band or one per round."""

    variant: str  # one of VARIANTS
    cutoff: int | np.ndarray = 0
    zone: Optional[ZoneConfig] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown policy variant {self.variant!r}")
        if self.variant == "acsm" and self.zone is None:
            raise DomainError("acsm requires a zone config")


def policy_spec(variant: str, n: int, b: int, r: Sequence, q: Sequence, c=None) -> PolicySpec:
    """The PolicySpec of variant for the rounds of the settings (n, b, r[t],
    q[t]): a cutoff policy runs c in every round, or each round's translated
    cutoff when c is None, one entry per round, and acsm adds the default
    band around the model's mu_hat there, a row per round from one
    mu_hat_rows call; mean and rand take no parameter, but a given c must
    still lie in [0, n] for every variant."""
    if c is not None:
        learning_cutoff(n, 0, c)
    if variant not in CUTOFF_VARIANTS:
        return PolicySpec(variant)
    cutoff = np.array([resolve_cutoff(n, b, rt, qt).c_target if c is None else c
                       for rt, qt in zip(r, q)], dtype=np.int64)
    if variant == "csm":
        return PolicySpec(variant, cutoff)
    # the model needs 0 < q < 1; a chain's measured quality can sit on an end
    mu = mu_hat_rows(n, b, r, np.clip(q, 1e-6, 1.0 - 1e-6), cutoff)
    return PolicySpec(variant, cutoff, ZoneConfig.default(n, b, mu))


# The round loop and the four policies run every round of a RoundBatch at
# once.  A step is a handful of array operations whatever the number of
# rounds, so one batch serves every round of a cell (montecarlo.run_cell) and
# every chain of a policy at one round index (multiround.run_chains); rounds
# of one batch may differ in r, cutoff and band.


def _run_batch(
    batch: RoundBatch,
    start,
    threshold_at: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    after_step: Optional[Callable[[int, np.ndarray], None]] = None,
) -> tuple:
    """Drive every round of batch from step start + 1 to n: (results, hired,
    kept), results (T, 3) int64 rows of (regret, hires, failures), hired
    (T, n) and kept (T, b) the boolean candidate and referent decisions.

    start is the learning phase, one for every round or an array of one per
    round: a round decides nothing at its steps 1..start.
    threshold_at(j, hires, in_place) returns the scores to beat at step j,
    where in_place counts the available referents still in place, which are
    the first in_place of the round's available referents, best first; each
    hire past the first r fires the worst of them.  after_step(j, hires)
    runs once the step-j decisions are made.  Every round takes part in
    every step; a round still learning or whose positions are all filled
    decides nothing.
    """
    n, b, r = batch.n, batch.b, batch.r
    start = np.asarray(start)
    held, fill_from = b - r, n - r + 1  # a step j - hires >= fill_from must hire
    hires = np.zeros(len(batch), dtype=np.int64)
    failures = np.zeros(len(batch), dtype=np.int64)
    hired = np.zeros((len(batch), n), dtype=bool)
    last = int(start.max(initial=0))  # past it, no round is still learning
    for j in range(int(start.min(initial=n)) + 1, n + 1):
        s = batch.candidate_scores[:, j - 1]
        tau = threshold_at(j, hires, held - np.maximum(hires - r, 0))
        forced = j - hires >= fill_from
        hire = (hires < b) & ((s > tau) | forced)
        if j <= last:
            hire &= j > start
        failures += hire & forced & (s < tau)  # a forced hire below the threshold
        hired[:, j - 1] = hire
        hires += hire
        if after_step is not None:
            after_step(j, hires)
    in_place = held - np.maximum(hires - r, 0)
    kept = (batch.availability == 1) & (np.cumsum(batch.availability, axis=1) <= in_place[:, None])
    return np.column_stack([batch.regret(hired, kept), hires, failures]), hired, kept


def _available_scores(batch: RoundBatch) -> np.ndarray:
    """(T, b) scores of each round's available referents, best first, then
    -inf in each of its resigned referents' places."""
    out = np.full(batch.reference_scores.shape, -np.inf)
    out[np.arange(batch.b) < (batch.b - batch.r)[:, None]] = (
        batch.reference_scores[batch.availability == 1])
    return out


def _cutoff_batch(batch: RoundBatch, cutoff: np.ndarray, zone: Optional[tuple]) -> tuple:
    """The cutoff policy over every round of batch, with the feedback band
    of zone when one is given.  cutoff holds one cutoff for every round or
    one per round, and zone is None or (mu, width), each (1, n) or (T, n).

    Plain rule: round t rejects its first min(c, n - r) candidates, its
    learning phase (core.learning_cutoff).  Then, while hires have not yet
    covered the resignations plus the learning-phase intruders (n_rej), the
    threshold is y_b, the b-th best score seen during learning; afterwards it
    is the worst remaining available referent, so no position is ever
    refilled by a worse item.

    Band: after each step past its learning phase a round compares its hire
    count to mu[j] +- width[j].  Inside, the plain rule holds; below, the
    next threshold is relaxed by D+ positions among all the scores seen so
    far; above, tightened by D-.  The two counters count consecutive
    out-of-band steps and reset on re-entry.  Forced acceptances are
    unchanged.  Out of the band, a round's threshold is the idx-th best of
    the b + j - 1 scores seen before step j, read from those scores sorted;
    tied scores share one value, so which of them counts first does not
    matter.
    """
    n, b, r = batch.n, batch.b, batch.r
    c_eff = learning_cutoff(n, r, cutoff)
    rows = np.arange(len(batch))
    # the referents and each round's learning-phase candidates; a candidate
    # past a round's learning phase counts as -inf
    learning = np.concatenate(
        [batch.reference_scores, batch.candidate_scores[:, : int(c_eff.max(initial=0))]], axis=1)
    early = learning[:, b:]
    early[np.arange(early.shape[1]) >= c_eff[:, None]] = -np.inf
    y_b = np.sort(learning, axis=1)[:, -b]
    n_rej = (early > y_b[:, None]).sum(axis=1)
    # worst[:, k]: the worst of the first k available referents (none at k = 0)
    worst = np.column_stack([np.full(len(batch), np.nan), _available_scores(batch)])

    ladder_from = n_rej + r  # from this many hires on, the threshold is a referent's

    def plain(hires, in_place):
        return np.where(hires < ladder_from, y_b, worst[rows, in_place])

    if zone is None:
        return _run_batch(batch, c_eff, lambda j, hires, in_place: plain(hires, in_place))

    pool = np.concatenate([batch.reference_scores, batch.candidate_scores], axis=1)
    d_plus = np.zeros(len(batch), dtype=np.int64)
    d_minus = np.zeros(len(batch), dtype=np.int64)
    mode = np.zeros(len(batch), dtype=np.int8)  # 0 in the band, 1 below, 2 above
    mu, width = zone
    low, high = mu - width, mu + width  # the band's ends at each step

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
        live = j > c_eff  # a round's band starts after its learning phase
        below = live & (hires < low[:, j - 1])
        above = live & ~below & (hires > high[:, j - 1])
        inside = ~below & ~above
        d_plus[:] = np.where(inside, 0, d_plus + below)
        d_minus[:] = np.where(inside, 0, d_minus + above)
        mode[:] = np.where(below, 1, np.where(above, 2, 0))

    return _run_batch(batch, c_eff, threshold_at, after_step)


def _mean_batch(batch: RoundBatch) -> tuple:
    """MEAN over every round of batch: accept a candidate iff the score beats
    the mean of the available referents still in place (0.5 when none
    remain); no learning phase."""
    # means[:, k]: mean score of the first k available referents (0.5 at k = 0),
    # summed left to right once per round
    sums = np.cumsum(_available_scores(batch), axis=1)
    means = np.column_stack([np.full(len(batch), 0.5), sums / np.arange(1, batch.b + 1)])
    rows = np.arange(len(batch))
    return _run_batch(batch, 0, lambda j, hires, in_place: means[rows, in_place])


def _rand_batch(batch: RoundBatch, seeds) -> tuple:
    """RAND over every round of batch: accept above a fresh Uniform(0,1)
    threshold drawn at every step, round t drawing from seeds[t], a seed or
    a Generator.  A missing seed or one seed too few or too many raises, so
    no round takes OS entropy or another round's draws."""
    if seeds is None or len(seeds) != len(batch) or any(seed is None for seed in seeds):
        raise DomainError("the rand policy needs one seed per round")
    draws = np.stack([np.random.default_rng(seed).uniform(0.0, 1.0, size=batch.n)
                      for seed in seeds])
    return _run_batch(batch, 0, lambda j, hires, in_place: draws[:, j - 1])


def run_policy_batch(batch: RoundBatch, spec: PolicySpec, rand_seeds=None) -> tuple:
    """Run spec's policy over every round of batch: (results, hired, kept)
    as _run_batch returns them.

    The spec's cutoff and its zone's rows are one for every round or one per
    round; any other count, or a band not n long, raises DomainError.
    rand_seeds holds one RAND seed per round, round t's at t.
    """
    if spec.variant == "mean":
        return _mean_batch(batch)
    if spec.variant == "rand":
        return _rand_batch(batch, rand_seeds)
    cutoff = np.asarray(spec.cutoff)
    zone = np.atleast_2d(spec.zone.mu, spec.zone.width) if spec.variant == "acsm" else None
    if cutoff.ndim > 1 or cutoff.size not in (1, len(batch)) or zone is not None and any(
            x.shape[-1] != batch.n or len(x) not in (1, len(batch)) for x in zone):
        raise DomainError("need one cutoff and band for every round or one per round, "
                          "each band n long")
    return _cutoff_batch(batch, cutoff, zone)
