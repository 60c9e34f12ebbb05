"""Domain model for one warm-start selection round.

A round starts with b job positions held by scored referents (some of whom may
have resigned) and interviews n candidates one by one.  Everything downstream
is evaluated on absolute ranks over the combined pool of n + b scores, where
rank 1 is the best score.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DomainError(ValueError):
    """Invalid parameters or inputs outside an operation's domain."""


class ContractError(RuntimeError):
    """An internal invariant or caller contract was violated."""


def seed_entropy(seed) -> tuple:
    """A seed as SeedSequence entropy: an integer >= 0 or a non-empty sequence of them."""
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    if not entropy or not all(isinstance(x, numbers.Integral) and x >= 0 for x in entropy):
        raise DomainError(f"seeds must be >= 0 and whole, got {seed!r}")
    return tuple(int(x) for x in entropy)


def check_quality(q: float) -> None:
    """The one check of a reference quality: it must lie in (0, 1)."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"need 0 < q < 1, got q={q}")


def check_setting(n: int, b: int, r: int) -> None:
    """The one check of a setting: b >= 1 positions, r of them resigned, and
    at least b candidates."""
    if not (0 <= r <= b <= n and b >= 1):
        raise DomainError("need 0 <= r <= b <= n and b >= 1")


def learning_cutoff(n: int, r: int, c: int) -> int:
    """The learning phase that cutoff c runs, min(c, n - r), in every layer;
    DomainError when c lies outside [0, n].  The last r steps stay open: they
    are the forced-fill window, and a longer learning phase would leave fewer
    than r candidates for the r empty positions."""
    if not (0 <= c <= n):
        raise DomainError(f"need 0 <= c <= n, got c={c} n={n}")
    return min(c, n - r)


def check_rounds(reference_scores, availability, candidate_scores) -> tuple:
    """The one check of T rounds of one setting, one row per round: (T, b)
    reference scores and availability, (T, n) candidate scores.  Returns the
    setting (n, b, r) the rows share, r counted from the availability."""
    refs, avail, cands = reference_scores, availability, candidate_scores
    if not ((avail == 0) | (avail == 1)).all():
        raise DomainError("availability entries must be 0 or 1")
    b = refs.shape[1]
    held = set(avail.sum(axis=1).tolist())
    if len(held) != 1:
        got = sorted(b - h for h in held)
        raise DomainError(f"every round must have the same r, got r in {got}")
    n, r = cands.shape[1], b - int(held.pop())
    check_setting(n, b, r)
    if not (np.isfinite(refs).all() and np.isfinite(cands).all()):
        raise DomainError("scores must be finite")
    if (refs[:, :-1] <= refs[:, 1:]).any():
        raise DomainError("reference_scores must be strictly descending")
    return n, b, r


@dataclass(frozen=True)
class Instance:
    """One selection round: reference set, availability, and candidate sequence.

    reference_scores are strictly descending (best first).  availability[i] = 1
    means the i-th best referent still holds the position.  n, b and r (the
    number of resignations) are derived from the arrays (check_rounds).
    """

    reference_scores: tuple
    availability: tuple
    candidate_scores: tuple
    n: int = field(init=False)
    b: int = field(init=False)
    r: int = field(init=False)

    def __post_init__(self):
        names = ("reference_scores", "availability", "candidate_scores")
        refs, avail, cands = map(self._array, names)
        if avail.size != refs.size:
            raise DomainError("availability must have length b")
        setting = check_rounds(refs[None], avail[None], cands[None])
        # the one place a round's arrays become its frozen tuples of Python numbers
        frozen = (tuple(values.tolist()) for values in (refs, avail.astype(int), cands))
        for name, value in zip(names + ("n", "b", "r"), (*frozen, *setting)):
            object.__setattr__(self, name, value)

    def _array(self, name: str) -> np.ndarray:
        """Field name as one float array: the checks see the values as given."""
        try:
            values = np.asarray(getattr(self, name), dtype=float)
        except (TypeError, ValueError):  # a ragged nesting or a non-number
            values = np.empty((0, 0))
        if values.ndim != 1:
            raise DomainError(f"{name} must be one-dimensional and numeric")
        return values

    @cached_property
    def ranks(self) -> "RankContext":
        """The joint ranking, computed on first use and kept: every consumer of
        one round (quality, oracle, regret) reads the same ranks."""
        return build_rank_context(self)


@dataclass(frozen=True)
class RankContext:
    """Absolute ranks of every score in the combined pool (rank 1 = best)."""

    rank_of_referent: tuple
    rank_of_candidate: tuple


@dataclass(frozen=True)
class SelectionOutcome:
    """Final decisions of one policy run.

    candidate_decisions[j] = 1 iff candidate j was hired; referent_decisions[i]
    = 1 iff referent i keeps the position.  threshold_trace holds the realized
    acceptance threshold per selection step (None once selection is closed or
    during the learning phase).
    """

    candidate_decisions: tuple
    referent_decisions: tuple
    hires: int
    failures: int
    regret: int
    threshold_trace: tuple = field(default=())


def build_rank_context(instance: Instance) -> RankContext:
    """Rank all n + b scores jointly; ranks form a permutation of 1..n+b.

    Ties (possible only in user-supplied instances) break toward the earlier
    item: referents before candidates, then arrival order.
    """
    pool = np.asarray(instance.reference_scores + instance.candidate_scores)
    order = np.argsort(-pool, kind="stable")
    ranks = np.empty(len(pool), dtype=np.int64)
    ranks[order] = np.arange(1, len(pool) + 1)
    b = instance.b
    return RankContext(
        rank_of_referent=tuple(ranks[:b].tolist()),
        rank_of_candidate=tuple(ranks[b:].tolist()),
    )


def compute_quality(instance: Instance) -> float:
    """Normalized average rank of the reference set; 1 is best, 1/2 is medium.

    q = 1 - (mean referent rank - x_min) / (x_max - x_min) with
    x_min = (b+1)/2 and x_max = n + (b+1)/2, so the denominator is n and
    a mean rank of (n+b+1)/2 gives exactly q = 1/2.
    """
    mean_rank = float(np.mean(instance.ranks.rank_of_referent))
    x_min = (instance.b + 1) / 2.0
    return 1.0 - (mean_rank - x_min) / instance.n


def _draw_round(rng: np.random.Generator, n: int, b: int, q: float, r: int):
    """One round's draws from rng, as arrays: (reference_scores, availability,
    candidate_scores).  The one home of the sampling law that
    generate_instance documents."""
    cands = rng.uniform(0.0, 1.0, size=n)
    lo, hi = max(0.0, 2.0 * q - 1.0), min(1.0, 2.0 * q)
    refs = np.sort(rng.uniform(lo, hi, size=b))[::-1]
    avail = np.ones(b, dtype=int)
    if r > 0:
        avail[rng.choice(b, size=r, replace=False)] = 0
    return refs, avail, cands


def generate_instance(n: int, b: int, q: float, r: int, seed) -> Instance:
    """Sample a round with target reference quality q.

    Candidates are i.i.d. Uniform(0,1).  Referents are i.i.d. Uniform on
    (max(0, 2q-1), min(1, 2q)), sorted descending, which yields quality q in
    expectation; exactly r of the b positions are marked resigned, uniformly
    at random.
    """
    check_quality(q)
    check_setting(n, b, r)
    refs, avail, cands = _draw_round(np.random.default_rng(seed), n, b, q, r)
    return Instance(refs, avail, cands)


def offline_optimum(instance: Instance) -> int:
    """Minimal rank sum achievable choosing b items from candidates plus
    available referents, by an oracle that sees every rank (check_rounds
    holds n >= b, so there are always b to choose)."""
    ctx = instance.ranks
    selectable = [
        rank for rank, avail in zip(ctx.rank_of_referent, instance.availability) if avail
    ]
    selectable.extend(ctx.rank_of_candidate)
    selectable.sort()
    return int(sum(selectable[: instance.b]))


def realized_regret(instance: Instance, candidate_decisions, referent_decisions) -> int:
    """Rank sum of a final assignment minus the offline optimum (always >= 0).

    candidate_decisions and referent_decisions are as in SelectionOutcome.
    """
    A, K = candidate_decisions, referent_decisions
    if sum(A) + sum(K) != instance.b:
        raise ContractError("fill constraint violated: assignments != b")
    if any(k and not a for k, a in zip(K, instance.availability)):
        raise ContractError("a resigned referent cannot keep the position")
    ctx = instance.ranks
    online = sum(rank for rank, keep in zip(ctx.rank_of_referent, K) if keep)
    online += sum(rank for rank, hire in zip(ctx.rank_of_candidate, A) if hire)
    return int(online) - offline_optimum(instance)


@dataclass(frozen=True, eq=False)
class RoundBatch:
    """T rounds of one setting (n, b, r) as arrays, one row per round: the
    batch twin of Instance, with its checks run over every row.

    reference_scores and availability are (T, b), candidate_scores (T, n);
    n, b and r are derived, and every row of availability must mark the same
    r resignations.
    """

    reference_scores: np.ndarray
    availability: np.ndarray
    candidate_scores: np.ndarray
    n: int = field(init=False)
    b: int = field(init=False)
    r: int = field(init=False)

    def __post_init__(self):
        refs, avail, cands = self.reference_scores, self.availability, self.candidate_scores
        if refs.ndim != 2 or avail.shape != refs.shape:
            raise DomainError("reference_scores and availability must be (T, b) arrays")
        if cands.ndim != 2 or len(cands) != len(refs):
            raise DomainError("candidate_scores must be a (T, n) array")
        for name, value in zip(("n", "b", "r"), check_rounds(refs, avail, cands)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.candidate_scores)

    @cached_property
    def ranks(self) -> np.ndarray:
        """(T, b + n) joint ranks, referents first, each row ranked as
        build_rank_context ranks one round (ties toward the earlier item)."""
        pool = np.concatenate([self.reference_scores, self.candidate_scores], axis=1)
        order = np.argsort(-pool, axis=1, kind="stable")
        ranks = np.empty(pool.shape, dtype=np.int64)
        np.put_along_axis(ranks, order, np.arange(1, pool.shape[1] + 1)[None, :], axis=1)
        return ranks

    def offline_optimum(self) -> np.ndarray:
        """offline_optimum of every round: the b smallest selectable ranks."""
        n, b = self.n, self.b
        selectable = self.ranks.copy()
        # a resigned referent gets a rank past every rank: never among the b best
        selectable[:, :b][self.availability == 0] = n + b + 1
        return np.partition(selectable, b - 1, axis=1)[:, :b].sum(axis=1)

    def regret(self, hired: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """realized_regret of every round: hired (T, n) and kept (T, b) are the
        boolean candidate and referent decisions."""
        b = self.b
        if np.any(hired.sum(axis=1) + kept.sum(axis=1) != b):
            raise ContractError("fill constraint violated: assignments != b")
        if np.any(kept & (self.availability == 0)):
            raise ContractError("a resigned referent cannot keep the position")
        ranks = self.ranks
        online = (ranks[:, :b] * kept).sum(axis=1) + (ranks[:, b:] * hired).sum(axis=1)
        return online - self.offline_optimum()


def sample_rounds(n: int, b: int, q: float, r: int, seeds) -> RoundBatch:
    """One round per seed, stacked: row t holds the round that
    generate_instance(n, b, q, r, seeds[t]) draws."""
    check_quality(q)
    check_setting(n, b, r)
    draws = [_draw_round(np.random.default_rng(seed), n, b, q, r) for seed in seeds]
    refs, avail, cands = (np.stack(field) for field in zip(*draws))
    return RoundBatch(refs, avail, cands)
