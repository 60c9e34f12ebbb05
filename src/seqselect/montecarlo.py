"""Seed-reproducible trial harness.

Every trial draws its generator from a documented substream derivation:
child = SeedSequence([*cell_seed, trial_index]), split once for instance
sampling and once for policy randomness.  Aggregation reduces per-trial
integer results in trial-index order, so results are bit-identical for any
worker count.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from seqselect.analytics import translate_cutoff
from seqselect.core import DomainError, generate_instance
from seqselect.multiround import acsm_spec
from seqselect.policies import PolicySpec, run_policy


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep description: which cells to run and with how many trials."""

    n: int
    b_values: tuple
    c_values: tuple
    q: float
    r_rule: float  # integer: absolute count; otherwise a fraction of b in [0, 1]
    policy: str = "csm"
    trials: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if not self.b_values or not self.c_values:
            raise DomainError("b and c ranges must be non-empty")
        if not self._r_is_count() and not (0.0 <= self.r_rule <= 1.0):
            raise DomainError(f"a resignation fraction must lie in [0, 1], got {self.r_rule}")

    def _r_is_count(self) -> bool:
        # bool is an Integral, but True is read as the fraction 1, not the count 1
        return isinstance(self.r_rule, numbers.Integral) and not isinstance(self.r_rule, bool)

    def r_for(self, b: int) -> int:
        """Resignations for one b: integers are absolute, anything else is a
        fraction of b."""
        if self._r_is_count():
            return int(self.r_rule)
        return round(float(self.r_rule) * b)


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


def _run_trials(n, b, c, q, r, spec: PolicySpec, cell_seed, indices):
    out = np.empty((len(indices), 3), dtype=np.int64)
    for row, i in enumerate(indices):
        ss = trial_seed(cell_seed, i)
        inst_ss, policy_ss = ss.spawn(2)
        inst = generate_instance(n, b, q, r, inst_ss)
        res = run_policy(inst, spec, rand_seed=policy_ss)
        out[row] = (res.regret, res.hires, res.failures)
    return out


def _worker(args):
    return _run_trials(*args)


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
    cell_seed = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    workers = clamp_workers(workers, os.cpu_count())
    spec = acsm_spec(n, b, r, q, c) if policy == "acsm" else PolicySpec(variant=policy, cutoff=c)
    if workers == 1 or trials < 2 * workers:
        data = _run_trials(n, b, c, q, r, spec, cell_seed, range(trials))
    else:
        chunks = np.array_split(np.arange(trials), workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    _worker,
                    [(n, b, c, q, r, spec, cell_seed, chunk.tolist()) for chunk in chunks],
                )
            )
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
    spec: ExperimentSpec
    cells: dict  # (b, c) -> CellStats
    sim_path: dict  # b -> empirical argmin cutoff
    analytic_path: dict  # b -> analytic optimal cutoff

    def rows(self):
        for (b, c), st in sorted(self.cells.items()):
            yield b, c, st


def regret_heatmap(spec: ExperimentSpec, workers: int = 1) -> HeatmapResult:
    """Mean empirical regret per (b, c) cell plus both optimal-cutoff paths."""
    cells = {}
    sim_path = {}
    analytic_path = {}
    for b in spec.b_values:
        r = spec.r_for(b)
        best_c, best_val = None, math.inf
        for c in spec.c_values:
            if c > spec.n:
                continue
            st = run_cell(
                spec.n, b, c, spec.q, r, spec.policy, spec.trials,
                (spec.master_seed, b, c), workers=workers,
            )
            cells[(b, c)] = st
            if st.mean_regret < best_val:
                best_val, best_c = st.mean_regret, c
        sim_path[b] = best_c
        analytic_path[b] = translate_cutoff(spec.n, b, spec.q, r).c_target
    return HeatmapResult(spec=spec, cells=cells, sim_path=sim_path, analytic_path=analytic_path)


def cutoff_curves(
    n: int,
    r_rule,
    q_list: Sequence[float],
    b_values: Sequence[int],
    c_values: Sequence[int],
    trials: int = 1000,
    master_seed: int = 0,
    workers: int = 1,
):
    """Empirical and analytic optimal-cutoff curves c*(b) for each quality.

    Returns rows (q, b, c_star_sim, c_star_analytic).
    """
    rows = []
    for q in q_list:
        spec = ExperimentSpec(
            n=n, b_values=tuple(b_values), c_values=tuple(c_values), q=q,
            r_rule=r_rule, policy="csm", trials=trials, master_seed=master_seed,
        )
        hm = regret_heatmap(spec, workers=workers)
        for b in spec.b_values:
            rows.append((q, b, hm.sim_path[b], hm.analytic_path[b]))
    return rows


def cell_csv_rows(cells):
    """CSV rows for (b, c, CellStats) triples:
    b,c,mean_regret,stderr,mean_hires,failure_rate,trials."""
    yield "b,c,mean_regret,stderr,mean_hires,failure_rate,trials"
    for b, c, st in cells:
        yield (
            f"{b},{c},{st.mean_regret:.6f},{st.stderr:.6f},"
            f"{st.mean_hires:.6f},{st.failure_rate:.6f},{st.trials}"
        )


def heatmap_csv_rows(result: HeatmapResult):
    """Rows for the heatmap CSV, one per (b, c) cell."""
    yield from cell_csv_rows(result.rows())


def cutoff_csv_rows(rows):
    """Rows for the cutoff-curve CSV: q,b,c_star_sim,c_star_analytic."""
    yield "q,b,c_star_sim,c_star_analytic"
    for q, b, cs, ca in rows:
        yield f"{q:.6f},{b},{cs},{ca}"
