"""Seed-reproducible trial harness.

Every trial draws its generator from a documented substream derivation:
child = SeedSequence([*cell_seed, trial_index]), split once for instance
sampling and once for policy randomness.  Aggregation reduces per-trial
integer results in trial-index order, so results are bit-identical for any
worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from seqselect.analytics import translate_cutoff
from seqselect.core import DomainError, generate_instance, learning_cutoff, seed_entropy
from seqselect.multiround import acsm_spec
from seqselect.policies import PolicySpec, run_policy


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep description: which cells to run and with how many trials."""

    n: int
    b_values: tuple
    c_values: tuple
    q: float
    r_values: tuple  # resignation count of each entry of b_values
    policy: str = "csm"
    trials: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if not self.b_values or not self.c_values:
            raise DomainError("b and c ranges must be non-empty")
        for name, values in (("b", self.b_values), ("c", self.c_values)):
            if len(set(values)) < len(values):
                raise DomainError(f"{name} values must not repeat, got {values}")
        if len(self.r_values) != len(self.b_values):
            raise DomainError(f"need one r per b, got r={self.r_values} for b={self.b_values}")
        if not all(1 <= b <= self.n for b in self.b_values):
            raise DomainError(f"b values must lie in [1, n={self.n}], got {self.b_values}")
        for r in self.r_values:
            for c in self.c_values:
                learning_cutoff(self.n, r, c)


@dataclass(frozen=True)
class CellStats:
    """Aggregates over the trials of one parameter cell.

    failure_rate is the total number of failures divided by the number of
    trials (failures per run; with r close to b it can exceed 1).
    """

    mean_regret: float
    stderr: float
    mean_hires: float
    failure_rate: float
    trials: int


def trial_seed(cell_seed: Sequence[int], trial_index: int) -> np.random.SeedSequence:
    """Documented, stable substream derivation for one trial."""
    return np.random.SeedSequence([*cell_seed, trial_index])


def clamp_workers(workers: int, cpus: Optional[int]) -> int:
    """Worker processes to start: at least 1 requested, at most cpus (the
    machine's processor count, None when unknown)."""
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    return min(workers, cpus or 1)


def _run_trials(n, b, q, r, spec: PolicySpec, cell_seed, indices):
    out = np.empty((len(indices), 3), dtype=np.int64)
    for row, i in enumerate(indices):
        ss = trial_seed(cell_seed, i)
        inst_ss, policy_ss = ss.spawn(2)
        inst = generate_instance(n, b, q, r, inst_ss)
        res = run_policy(inst, spec, rand_seed=policy_ss)
        out[row] = (res.regret, res.hires, res.failures)
    return out


def run_cell(
    n: int,
    b: int,
    c: int,
    q: float,
    r: int,
    policy: str,
    trials: int,
    seed,
    workers: int = 1,
) -> CellStats:
    """Run one parameter cell; deterministic in (arguments, seed) for any workers."""
    cell_seed = seed_entropy(seed)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    workers = clamp_workers(workers, os.cpu_count())
    spec = acsm_spec(n, b, r, q, c) if policy == "acsm" else PolicySpec(variant=policy, cutoff=c)
    if workers == 1 or trials < 2 * workers:
        data = _run_trials(n, b, q, r, spec, cell_seed, range(trials))
    else:
        chunks = np.array_split(np.arange(trials), workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            run = partial(_run_trials, n, b, q, r, spec, cell_seed)
            parts = list(pool.map(run, [chunk.tolist() for chunk in chunks]))
        data = np.concatenate(parts, axis=0)  # chunks are in trial-index order
    regrets = data[:, 0].astype(float)
    mean = float(regrets.mean())
    stderr = float(regrets.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return CellStats(
        mean_regret=mean,
        stderr=stderr,
        mean_hires=float(data[:, 1].mean()),
        failure_rate=float(data[:, 2].sum() / trials),
        trials=trials,
    )


@dataclass(frozen=True)
class HeatmapResult:
    cells: dict  # (b, c) -> CellStats
    sim_path: dict  # b -> empirical argmin cutoff
    analytic_path: dict  # b -> analytic optimal cutoff


def regret_heatmap(spec: ExperimentSpec, workers: int = 1) -> HeatmapResult:
    """Mean empirical regret per (b, c) cell plus both optimal-cutoff paths."""
    cells = {}
    sim_path = {}
    analytic_path = {}
    for b, r in zip(spec.b_values, spec.r_values):
        best_c, best_val = None, math.inf
        for c in spec.c_values:
            st = run_cell(
                spec.n, b, c, spec.q, r, spec.policy, spec.trials,
                (spec.master_seed, b, c), workers=workers,
            )
            cells[(b, c)] = st
            if st.mean_regret < best_val:
                best_val, best_c = st.mean_regret, c
        sim_path[b] = best_c
        analytic_path[b] = translate_cutoff(spec.n, b, spec.q, r).c_target
    return HeatmapResult(cells=cells, sim_path=sim_path, analytic_path=analytic_path)
