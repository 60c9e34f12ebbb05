"""Domain model for one warm-start selection round.

A round starts with b job positions held by scored referents (some of whom may
have resigned) and interviews n candidates one by one.  Everything downstream
is evaluated on absolute ranks over the combined pool of n + b scores, where
rank 1 is the best score.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Invalid parameters or inputs outside an operation's domain."""


class ContractError(RuntimeError):
    """An internal invariant or caller contract was violated."""


@dataclass(frozen=True)
class Instance:
    """One selection round: reference set, availability, and candidate sequence.

    reference_scores are strictly descending (best first).  availability[i] = 1
    means the i-th best referent still holds the position; r, the number of
    resignations, is derived.
    """

    n: int
    b: int
    reference_scores: tuple
    availability: tuple
    candidate_scores: tuple

    def __post_init__(self):
        object.__setattr__(self, "reference_scores", tuple(float(s) for s in self.reference_scores))
        object.__setattr__(self, "availability", tuple(int(a) for a in self.availability))
        object.__setattr__(self, "candidate_scores", tuple(float(s) for s in self.candidate_scores))
        if not (0 < self.b <= self.n):
            raise DomainError(f"need 0 < b <= n, got b={self.b} n={self.n}")
        if len(self.reference_scores) != self.b:
            raise DomainError("reference_scores must have length b")
        if len(self.availability) != self.b:
            raise DomainError("availability must have length b")
        if len(self.candidate_scores) != self.n:
            raise DomainError("candidate_scores must have length n")
        if any(a not in (0, 1) for a in self.availability):
            raise DomainError("availability entries must be 0 or 1")
        scores = self.reference_scores + self.candidate_scores
        if not all(np.isfinite(scores)):
            raise DomainError("scores must be finite")
        if any(x <= y for x, y in zip(self.reference_scores, self.reference_scores[1:])):
            raise DomainError("reference_scores must be strictly descending")

    @property
    def r(self) -> int:
        """Number of resignations (empty positions at the start)."""
        return self.b - sum(self.availability)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "b": self.b,
                "reference_scores": list(self.reference_scores),
                "availability": list(self.availability),
                "candidate_scores": list(self.candidate_scores),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        d = json.loads(text)
        return cls(
            n=d["n"],
            b=d["b"],
            reference_scores=tuple(d["reference_scores"]),
            availability=tuple(d["availability"]),
            candidate_scores=tuple(d["candidate_scores"]),
        )


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "decisions": list(self.candidate_decisions),
                "referent_decisions": list(self.referent_decisions),
                "hires": self.hires,
                "failures": self.failures,
                "regret": self.regret,
                "thresholds": [t if t is None else float(t) for t in self.threshold_trace],
            }
        )


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
        rank_of_referent=tuple(int(x) for x in ranks[:b]),
        rank_of_candidate=tuple(int(x) for x in ranks[b:]),
    )


def compute_quality(instance: Instance) -> float:
    """Normalized average rank of the reference set; 1 is best, 1/2 is medium.

    q = 1 - (mean referent rank - x_min) / (x_max - x_min) with
    x_min = (b+1)/2 and x_max = n + (b+1)/2, so the denominator is n and
    a mean rank of (n+b+1)/2 gives exactly q = 1/2.
    """
    ctx = build_rank_context(instance)
    mean_rank = float(np.mean(ctx.rank_of_referent))
    x_min = (instance.b + 1) / 2.0
    return 1.0 - (mean_rank - x_min) / instance.n


def generate_instance(n: int, b: int, q: float, r: int, seed) -> Instance:
    """Sample a round with target reference quality q.

    Candidates are i.i.d. Uniform(0,1).  Referents are i.i.d. Uniform on
    (max(0, 2q-1), min(1, 2q)), sorted descending, which yields quality q in
    expectation; exactly r of the b positions are marked resigned, uniformly
    at random.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"need 0 < q < 1, got {q}")
    if not (0 <= r <= b <= n):
        raise DomainError(f"need 0 <= r <= b <= n, got n={n} b={b} r={r}")
    rng = np.random.default_rng(seed)
    cands = rng.uniform(0.0, 1.0, size=n)
    lo, hi = max(0.0, 2.0 * q - 1.0), min(1.0, 2.0 * q)
    refs = np.sort(rng.uniform(lo, hi, size=b))[::-1]
    avail = np.ones(b, dtype=int)
    if r > 0:
        avail[rng.choice(b, size=r, replace=False)] = 0
    return Instance(
        n=n,
        b=b,
        reference_scores=tuple(refs.tolist()),
        availability=tuple(avail.tolist()),
        candidate_scores=tuple(cands.tolist()),
    )


def offline_optimum(instance: Instance) -> int:
    """Minimal rank sum achievable choosing b items from candidates plus
    available referents, by an oracle that sees every rank."""
    return _offline_optimum(instance, build_rank_context(instance))


def _offline_optimum(instance: Instance, ctx: RankContext) -> int:
    selectable = [
        rank for rank, avail in zip(ctx.rank_of_referent, instance.availability) if avail
    ]
    selectable.extend(ctx.rank_of_candidate)
    if len(selectable) < instance.b:
        raise ContractError("fewer selectable items than positions")
    selectable.sort()
    return int(sum(selectable[: instance.b]))


def realized_regret(instance: Instance, outcome: SelectionOutcome) -> int:
    """Rank sum of the final assignment minus the offline optimum (always >= 0)."""
    A = outcome.candidate_decisions
    K = outcome.referent_decisions
    if sum(A) + sum(K) != instance.b:
        raise ContractError("fill constraint violated: assignments != b")
    if any(k and not a for k, a in zip(K, instance.availability)):
        raise ContractError("a resigned referent cannot keep the position")
    ctx = build_rank_context(instance)
    online = sum(rank for rank, keep in zip(ctx.rank_of_referent, K) if keep)
    online += sum(rank for rank, hire in zip(ctx.rank_of_candidate, A) if hire)
    return int(online) - _offline_optimum(instance, ctx)
