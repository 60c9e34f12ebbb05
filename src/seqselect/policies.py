"""Online selection: the four policies over every round of a RoundBatch.

Each policy is a rule made of arrays, one entry per round, and one round
loop reads the rules, so one batch may run rounds of several policies.

Every policy keeps the round contract: decisions are immediate and
irrevocable, every position must be filled at the end, and once the number
of hires covers the resignations each further hire fires the worst remaining
available referent.  A hire forced purely by the fill constraint whose score
is below the step threshold counts as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    q[t]): policy_specs of the one policy (variant, c)."""
    return policy_specs([(variant, c)], n, b, r, q)[0]


def policy_specs(policies: Sequence[tuple], n: int, b: int, r: Sequence, q: Sequence) -> list:
    """One PolicySpec per (variant, c) of policies, for the rounds of the
    settings (n, b, r[t], q[t]) split into equal blocks, block p run by
    policies[p]: a cutoff policy runs c in every round of its block, or each
    round's translated cutoff when c is None, and acsm adds the default band
    around the model's mu_hat there, a row per round from one mu_hat_rows
    call; mean and rand take no parameter, but a given c must still lie in
    [0, n] for every variant.  The translated cutoffs of every block come
    from one resolve_cutoff call, which scans the similar settings not yet
    solved in one pass."""
    if not policies or len(r) % len(policies):
        raise DomainError(f"{len(policies)} policies cannot split {len(r)} rounds into equal blocks")
    size = len(r) // len(policies)
    blocks = [slice(p * size, (p + 1) * size) for p in range(len(policies))]
    for _, c in policies:
        if c is not None:
            learning_cutoff(n, 0, c)
    translated = [block for (variant, c), block in zip(policies, blocks)
                  if variant in CUTOFF_VARIANTS and c is None]
    if translated:
        results = resolve_cutoff(n, b, [x for block in translated for x in r[block]],
                                 [x for block in translated for x in q[block]])
        resolved = iter(np.array([res.c_target for res in results],
                                 dtype=np.int64).reshape(len(translated), size))
    specs = []
    for (variant, c), block in zip(policies, blocks):
        cutoff, zone = 0, None
        if variant in CUTOFF_VARIANTS:
            cutoff = next(resolved) if c is None else np.full(size, c, dtype=np.int64)
        if variant == "acsm":
            # the model needs 0 < q < 1; a chain's measured quality can sit on an end
            mu = mu_hat_rows(n, b, r[block], np.clip(q[block], 1e-6, 1.0 - 1e-6), cutoff)
            zone = ZoneConfig.default(n, b, mu)
        specs.append(PolicySpec(variant, cutoff, zone))
    return specs


# The round loop runs every round of a RoundBatch at once.  A step is a
# handful of array operations whatever the number of rounds, so one batch
# serves every round of a cell (montecarlo.run_cell) and every chain of every
# policy at one round index (multiround.compare_policies).  Each policy is a
# rule made of arrays, one entry per round, so the rounds of one batch may
# differ in r, cutoff, band and policy.


def _run_batch(batch: RoundBatch, start, base, ladder, ladder_from, band) -> tuple:
    """Drive every round of batch from step start + 1 to n under its rule:
    (hired, kept, hires, failures), hired (T, n) and kept (T, b) the boolean
    candidate and referent decisions, hires and failures (T,) counts.

    Round t decides nothing at its steps 1..start[t], its learning phase.
    At step j its threshold is base[j - 1, t] while it holds fewer than
    ladder_from[t] hires, and ladder[t, in_place] from then on, where
    in_place counts the available referents still in place, which are the
    first in_place of the round's available referents, best first; each
    hire past the first r fires the worst of them.  Every round takes part
    in every step; a round still learning or whose positions are all filled
    decides nothing.

    band is None, or the (low, high) ends of the acsm band, each (n, T) and
    step-major, -inf and inf on the rounds that run none; a banded round's
    base is y_b at every step.  After each step past its learning phase a
    banded round compares its hire count to the band.  Inside, the rule
    above holds; below, the next threshold is relaxed by D+ positions among
    all the scores seen so far; above, tightened by D-.  The two counters
    count consecutive out-of-band steps and reset on re-entry.  Forced
    acceptances are unchanged.  Out of the band, a round's threshold is the
    idx-th best of the b + j - 1 scores seen before step j, read from those
    scores sorted; tied scores share one value, so which of them counts
    first does not matter.
    """
    n, b, r = batch.n, batch.b, batch.r
    fill_from = n - r + 1  # a step j - hires >= fill_from must hire
    hires = np.zeros(len(batch), dtype=np.int64)
    failures = np.zeros(len(batch), dtype=np.int64)
    # at[t] is the flat index of ladder[t, in_place[t]], where in_place =
    # b - r - max(hires - r, 0), kept as hires grow: one flat read a step
    rungs, first = ladder.ravel(), np.arange(0, ladder.size, b + 1)
    at = first + b - r
    # step-major: step j reads and writes one contiguous row of each
    scores = np.ascontiguousarray(batch.candidate_scores.T)
    hired = np.zeros((n, len(batch)), dtype=bool)
    if band is not None:
        low, high = band
        pool = np.concatenate([batch.reference_scores, batch.candidate_scores], axis=1)
        d_plus = np.zeros(len(batch), dtype=np.int64)
        d_minus = np.zeros(len(batch), dtype=np.int64)
        mode = np.zeros(len(batch), dtype=np.int8)  # 0 in the band, 1 below, 2 above
    last = int(start.max(initial=0))  # past it, no round is still learning
    for j in range(int(start.min(initial=n)) + 1, n + 1):
        s = scores[j - 1]
        level = base[j - 1]
        tau = np.where(hires < ladder_from, level, rungs[at])
        if band is not None:
            (out,) = ((mode != 0) & (hires < b)).nonzero()
            if out.size:
                seen = np.sort(pool[out, : b + j - 1], axis=1)  # the idx-th best at b + j - 1 - idx
                # position of the learning threshold among everything seen (1 = best)
                m = (seen >= level[out, None]).sum(axis=1)
                idx = np.where(mode[out] == 1, m + d_plus[out], m - d_minus[out])
                idx = np.minimum(np.maximum(idx, 1), b + j - 1)
                tau[out] = seen[np.arange(out.size), b + j - 1 - idx]
        forced = j - hires >= fill_from
        hire = (hires < b) & ((s > tau) | forced)
        if j <= last:
            hire &= j > start
        failures += hire & forced & (s < tau)  # a forced hire below the threshold
        hired[j - 1] = hire
        hires += hire
        at -= hire & (hires > r)
        if band is not None:
            live = j > start  # a round's band starts after its learning phase
            below = live & (hires < low[j - 1])
            above = live & ~below & (hires > high[j - 1])
            inside = ~below & ~above
            d_plus[:] = np.where(inside, 0, d_plus + below)
            d_minus[:] = np.where(inside, 0, d_minus + above)
            mode[:] = np.where(below, 1, np.where(above, 2, 0))
    hired = np.ascontiguousarray(hired.T)
    in_place = (at - first)[:, None]
    kept = (batch.availability == 1) & (np.cumsum(batch.availability, axis=1) <= in_place)
    return hired, kept, hires, failures


def _available_scores(batch: RoundBatch) -> np.ndarray:
    """(T, b) scores of each round's available referents, best first, then
    -inf in each of its resigned referents' places."""
    out = np.full(batch.reference_scores.shape, -np.inf)
    out[np.arange(batch.b) < (batch.b - batch.r)[:, None]] = (
        batch.reference_scores[batch.availability == 1])
    return out


def _cutoff_rule(batch: RoundBatch, rows: slice, cutoff: np.ndarray) -> tuple:
    """The learning phase, y_b and ladder_from of the cutoff policy on rows
    of batch, cutoff one for every round or one per round.

    Round t rejects its first min(c, n - r) candidates, its learning phase
    (core.learning_cutoff).  Then, while hires have not yet covered the
    resignations plus the learning-phase intruders (n_rej), the threshold is
    y_b, the b-th best score seen during learning; afterwards it is the
    worst remaining available referent, so no position is ever refilled by
    a worse item.
    """
    b = batch.b
    c_eff = learning_cutoff(batch.n, batch.r[rows], cutoff)
    # the referents and each round's learning-phase candidates; a candidate
    # past a round's learning phase counts as -inf
    learning = np.concatenate([batch.reference_scores[rows],
                               batch.candidate_scores[rows, : int(c_eff.max(initial=0))]], axis=1)
    early = learning[:, b:]
    early[np.arange(early.shape[1]) >= c_eff[:, None]] = -np.inf
    y_b = np.sort(learning, axis=1)[:, -b]
    n_rej = (early > y_b[:, None]).sum(axis=1)
    return c_eff, y_b, n_rej + batch.r[rows]


def _rules(batch: RoundBatch, spec, rand_seeds) -> tuple:
    """The rules of run_policy_batch's policies for _run_batch: (start, base,
    ladder, ladder_from, band), one entry per round of batch."""
    specs = [spec] if isinstance(spec, PolicySpec) else list(spec)
    n, b, count = batch.n, batch.b, len(batch)
    if not specs or count % len(specs):
        raise DomainError(f"{len(specs)} specs cannot split {count} rounds into equal blocks")
    size = count // len(specs)
    # MEAN's learning phase and ladder_from, and the cutoff policies' ladder
    start, ladder_from = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=np.int64)
    base = np.full((n, count), np.nan)
    ladder = np.column_stack([np.full(count, np.nan), _available_scores(batch)])
    band = None
    if any(spec.variant == "acsm" for spec in specs):
        band = np.full((2, n, count), np.inf)
        band[0] = -np.inf
    for p, spec in enumerate(specs):
        rows = slice(p * size, (p + 1) * size)
        if spec.variant == "mean":
            # summed left to right once per round
            ladder[rows, 1:] = np.cumsum(ladder[rows, 1:], axis=1) / np.arange(1, b + 1)
            ladder[rows, 0] = 0.5
        elif spec.variant == "rand":
            if (rand_seeds is None or len(rand_seeds) != count
                    or any(seed is None for seed in rand_seeds[rows])):
                raise DomainError("the rand policy needs one seed per round")
            base[:, rows] = np.stack([np.random.default_rng(seed).uniform(0.0, 1.0, size=n)
                                      for seed in rand_seeds[rows]], axis=1)
            ladder_from[rows] = b + 1
        else:
            cutoff = np.asarray(spec.cutoff)
            zone = np.atleast_2d(spec.zone.mu, spec.zone.width) if spec.variant == "acsm" else None
            if cutoff.ndim > 1 or cutoff.size not in (1, size) or zone is not None and any(
                    x.shape[-1] != n or len(x) not in (1, size) for x in zone):
                raise DomainError("need one cutoff and band for every round or one per round, "
                                  "each band n long")
            start[rows], base[:, rows], ladder_from[rows] = _cutoff_rule(batch, rows, cutoff)
            if zone is not None:
                mu, width = zone
                band[:, :, rows] = (mu - width).T, (mu + width).T
    return start, base, ladder, ladder_from, band


def run_policy_batch(batch: RoundBatch, spec, rand_seeds=None) -> tuple:
    """Run spec's policy over every round of batch: (results, hired, kept),
    results (T, 3) int64 rows of (regret, hires, failures), hired (T, n) and
    kept (T, b) the boolean candidate and referent decisions.

    spec is one PolicySpec, or a sequence of P of them for P equal blocks of
    rows, block p of T / P rows from row p T / P on: one batch and one round
    loop run every block, each round as its block's spec runs it alone.  A
    spec's cutoff and its zone's rows are one for every round of its block
    or one per round; any other count, or a band not n long, raises
    DomainError.  rand_seeds holds one RAND seed per round, round t's at t,
    read by the rounds that run rand.

    Each policy's rule (_run_batch): csm and acsm learn for their cutoff
    (_cutoff_rule), their base is y_b and their ladder the worst available
    referent still in place (none at k = 0); acsm adds the band of its zone.
    MEAN learns for no step and its ladder, from the first hire on, is the
    mean score of the available referents still in place (0.5 when none
    remain).  RAND learns for no step and its base is a fresh Uniform(0, 1)
    threshold at every step, round t drawing from rand_seeds[t], a seed or a
    Generator; it never reaches its ladder.  A RAND round with no seed, or
    one seed too few or too many, raises, so no round takes OS entropy or
    another round's draws.
    """
    # the rules and the round loop's arrays are dropped before the regret
    # ranks the batch, so the two are not held at once
    hired, kept, hires, failures = _run_batch(batch, *_rules(batch, spec, rand_seeds))
    return np.column_stack([batch.regret(hired, kept), hires, failures]), hired, kept
