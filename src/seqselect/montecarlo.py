"""Seed-reproducible trial harness.

Every trial draws from a documented substream derivation: the two children
of SeedSequence([*cell_seed, trial_index]), one for instance sampling and one
for policy randomness, each built directly from its spawn key (trial_stream).
A batch derives the state words of all its streams at once as arrays
(stream_words), equal to the words SeedSequence generates, and hands each
trial its row as a PCG64 seed (trial_streams), not a Generator:
sample_rounds draws the resigned positions of a batch's fresh seeds
together, from the raw words that choice would read.  A cell's trials run
through the batch engine in batches of CHUNK, and aggregation reduces
per-trial integer results in trial-index order, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from seqselect.analytics import resolve_cutoff, warn_degenerate
from seqselect.core import (
    DomainError,
    check_quality,
    check_scan_size,
    check_setting,
    entropy_words,
    learning_cutoff,
    sample_rounds,
    seed_entropy,
    similar_n,
    spawn_state_words,
    state_seeds,
)
from seqselect.policies import CUTOFF_VARIANTS, PolicySpec, policy_spec, run_policy_batch

CHUNK = 512  # trials per batch: a batch's memory is bounded whatever the trial count

@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep description: which cells to run and with how many trials.  The
    policy is a cutoff policy: the sweep's argmin over c is its c_star."""

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
        seed_entropy(self.master_seed)
        if self.policy not in CUTOFF_VARIANTS:
            raise DomainError(
                f"a sweep needs a cutoff policy {CUTOFF_VARIANTS}, got {self.policy!r}")
        check_quality(self.q)
        if not self.b_values or not self.c_values:
            raise DomainError("b and c ranges must be non-empty")
        for name, values in (("b", self.b_values), ("c", self.c_values)):
            if len(set(values)) < len(values):
                raise DomainError(f"{name} values must not repeat, got {values}")
        if len(self.r_values) != len(self.b_values):
            raise DomainError(f"need one r per b, got r={self.r_values} for b={self.b_values}")
        for b, r in zip(self.b_values, self.r_values):
            check_setting(self.n, b, r)
            check_scan_size(similar_n(self.n, b, self.q))  # the analytic path's scan
        learning_cutoff(self.n, 0, np.array(self.c_values))


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


def clamp_workers(workers: int, cpus: Optional[int]) -> int:
    """Worker processes to start: at least 1 requested, at most cpus (the
    machine's processor count, None when unknown)."""
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    return min(workers, cpus or 1)


def trial_stream(cell_seed: Sequence[int], trial_index: int, child: int) -> np.random.SeedSequence:
    """SeedSequence([*cell_seed, trial_index]).spawn(2)[child] (0 samples
    the instance, 1 drives the policy), built directly from its spawn key,
    which skips the parent's own mix.  The documented reference: a batch of
    trials derives the same streams' state words at once with stream_words."""
    return np.random.SeedSequence([*cell_seed, trial_index], spawn_key=(child,))


def stream_words(cell_seed: Sequence[int], start: int, stop: int, child) -> np.ndarray:
    """(stop - start, core.STATE_WORDS) uint32: row k is
    trial_stream(cell_seed, start + k, child).generate_state(STATE_WORDS),
    for every trial of start..stop-1 at once.  child is an int or a
    spawn-key tuple: a tuple key gives the words of
    SeedSequence([*cell_seed, start + k], spawn_key=child).

    The entropy is assembled as SeedSequence assembles it: the words of each
    element of [*cell_seed, i], zeros up to the pool size, then the words of
    the spawn key (core.spawn_state_words).  Trial indices must lie below
    2**32, so that each is one word.
    """
    if not 0 <= start <= stop <= 2**32:
        raise DomainError(f"trial indices must lie in [0, 2**32), got {start}..{stop}")
    index = np.arange(start, stop, dtype=np.uint32)
    prefix = [np.full(len(index), word, dtype=np.uint32) for word in entropy_words(cell_seed)]
    return spawn_state_words([*prefix, index], child)


def trial_streams(cell_seed: Sequence[int], start: int, stop: int, child: int) -> list:
    """The seeds of trials start..stop-1, built from stream_words: seed i
    seeds the PCG64 that trial_stream(cell_seed, i, child) seeds, so
    default_rng of it draws what default_rng(trial_stream(...)) draws."""
    return state_seeds(stream_words(cell_seed, start, stop, child))


def _run_chunk(n, b, q, r, spec: PolicySpec, cell_seed, trials: int, start: int) -> np.ndarray:
    """(regret, hires, failures) of the trials from start to the next batch's
    start or the last trial, one row each, run as one batch."""
    stop = min(start + CHUNK, trials)
    batch = sample_rounds(n, b, q, r, trial_streams(cell_seed, start, stop, 0))
    rand_seeds = trial_streams(cell_seed, start, stop, 1) if spec.variant == "rand" else None
    return run_policy_batch(batch, spec, rand_seeds)[0]


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
    """Run one parameter cell; deterministic in (arguments, seed) for any workers.

    The trials run in batches of CHUNK, which workers share out.  Only the
    (trials, 3) int64 results, 24 bytes a trial, grow with the trial count;
    they are allocated first, so a count that cannot fit fails at once.
    """
    cell_seed = seed_entropy(seed)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    workers = clamp_workers(workers, os.cpu_count())
    spec = policy_spec(policy, n, b, [r], [q], c)
    data = np.empty((trials, 3), dtype=np.int64)
    starts = range(0, trials, CHUNK)
    run = partial(_run_chunk, n, b, q, r, spec, cell_seed, trials)

    def collect(parts):
        for start, part in zip(starts, parts):
            data[start : start + CHUNK] = part

    if workers == 1 or len(starts) == 1:
        collect(map(run, starts))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            collect(pool.map(run, starts))
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
    """Mean empirical regret per (b, c) cell plus both optimal-cutoff paths.
    The analytic path of every b is resolved first, in one resolve_cutoff
    call, with translate_cutoff's warning for a degenerate setting."""
    analytic = resolve_cutoff(spec.n, spec.b_values, spec.r_values, spec.q)
    warn_degenerate(spec.b_values, analytic)
    cells = {}
    sim_path = {}
    for b, r in zip(spec.b_values, spec.r_values):
        best_c, best_val = None, math.inf
        for c in spec.c_values:
            st = run_cell(
                spec.n, b, c, spec.q, r, spec.policy, spec.trials,
                (*seed_entropy(spec.master_seed), b, c), workers=workers,
            )
            cells[(b, c)] = st
            if st.mean_regret < best_val:
                best_val, best_c = st.mean_regret, c
        sim_path[b] = best_c
    analytic_path = {b: res.c_target for b, res in zip(spec.b_values, analytic)}
    return HeatmapResult(cells=cells, sim_path=sim_path, analytic_path=analytic_path)
