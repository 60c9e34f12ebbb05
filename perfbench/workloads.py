"""The three benchmark workloads: CLI arguments from a seed, and output checks.

Each workload stresses a different part of seqselect, so an optimisation of
one layer shows on the workload that uses it and leaves the others unchanged:

* sim-heatmap: the per-trial simulation path (core, policies, montecarlo);
  the analytic solver runs only twice.
* analytic-table: the closed-form cutoff solver on cold caches; no trial runs.
* multiround-chain: chained rounds, which cannot be batched across trials; all
  four engines run and the analytic solver runs warm on many small settings.

Every workload fixes each flag it depends on, so a change of a CLI default
does not change the workload.  ``check`` returns a list of problems, empty
when the outputs are correct.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar


def _rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class SimHeatmap:
    n: int = 100
    b_values: tuple = (5, 20)
    c_step: int = 5
    trials: int = 400
    name: ClassVar[str] = "sim-heatmap"

    def c_values(self):
        return range(0, self.n + 1, self.c_step)

    def argv(self, seed: int, out: Path):
        return [
            "heatmap", "--n", str(self.n), "--q", "0.5", "--r-frac", "0.2",
            "--b-values", ",".join(map(str, self.b_values)), "--c-step", str(self.c_step),
            "--policy", "csm", "--trials", str(self.trials), "--seed", str(seed),
            "--workers", "1", "--out", str(out / "heatmap.csv"),
        ]

    def items(self):
        """Trials run."""
        return len(self.b_values) * len(self.c_values()) * self.trials

    def check(self, out: Path):
        problems = []
        rows = _rows(out / "heatmap.csv")
        cells = sorted((int(r["b"]), int(r["c"])) for r in rows)
        if cells != sorted((b, c) for b in self.b_values for c in self.c_values()):
            problems.append("heatmap.csv: not one row per (b, c) cell")
        for r in rows:
            b = int(r["b"])
            if not 0 <= float(r["mean_hires"]) <= b:
                problems.append(f"heatmap.csv: mean_hires {r['mean_hires']} outside [0, {b}]")
            if float(r["mean_regret"]) < 0:
                problems.append(f"heatmap.csv: negative mean_regret {r['mean_regret']}")
            if float(r["failure_rate"]) < 0:
                problems.append(f"heatmap.csv: negative failure_rate {r['failure_rate']}")
            if int(r["trials"]) != self.trials:
                problems.append(f"heatmap.csv: trials {r['trials']} != {self.trials}")
        paths = _rows(out / "heatmap_cutoffs.csv")
        if sorted(int(r["b"]) for r in paths) != sorted(self.b_values):
            problems.append("heatmap_cutoffs.csv: not one row per b")
        for r in paths:
            for key in ("c_star_sim", "c_star_analytic"):
                if not 0 <= int(r[key]) <= self.n:
                    problems.append(f"heatmap_cutoffs.csv: {key} {r[key]} outside [0, n]")
        return problems


@dataclass(frozen=True)
class AnalyticTable:
    """The seed only shuffles the grid order: every run does the same 24 cold scans."""

    n_values: tuple = (100, 200, 300, 400)
    b_values: tuple = (5, 20, 50)
    r_values: tuple = (0, 5)
    name: ClassVar[str] = "analytic-table"

    def _grid(self, seed: int):
        rng = random.Random(seed)
        return [rng.sample(values, len(values))
                for values in (self.n_values, self.b_values, self.r_values)]

    def argv(self, seed: int, out: Path):
        ns, bs, rs = (",".join(map(str, v)) for v in self._grid(seed))
        return ["cutoff-table", "--n-values", ns, "--b-values", bs, "--r-values", rs,
                "--out", str(out / "cutoff_table.csv")]

    def keys(self):
        return sorted((n, b, r) for n in self.n_values for b in self.b_values
                      for r in self.r_values if b <= n and r <= b)

    def items(self):
        """Table rows, one full cutoff scan each."""
        return len(self.keys())

    def check(self, out: Path):
        problems = []
        rows = _rows(out / "cutoff_table.csv")
        if sorted((int(r["n"]), int(r["b"]), int(r["r"])) for r in rows) != self.keys():
            problems.append(f"cutoff_table.csv: {len(rows)} rows, expected {self.items()}")
        for r in rows:
            if not 0 <= int(r["c_star"]) <= int(r["n"]):
                problems.append(f"cutoff_table.csv: c_star {r['c_star']} outside [0, n]")
            if not math.isfinite(float(r["expected_regret"])):
                problems.append(f"cutoff_table.csv: expected_regret {r['expected_regret']}")
        return problems


@dataclass(frozen=True)
class MultiroundChain:
    n: int = 100
    b: int = 5
    pop_size: int = 1000
    rounds: int = 10
    runs: int = 40
    policies: tuple = ("csm-star", "acsm-star", "mean", "rand")
    name: ClassVar[str] = "multiround-chain"

    def argv(self, seed: int, out: Path):
        return [
            "multiround", "--n", str(self.n), "--b", str(self.b),
            "--pop-size", str(self.pop_size), "--rounds", str(self.rounds),
            "--runs", str(self.runs), "--p-res", "0.2", "--policies", ",".join(self.policies),
            "--seed", str(seed), "--out", str(out / "multiround.csv"),
        ]

    def items(self):
        """Chain rounds run, over every run and policy."""
        return self.runs * self.rounds * len(self.policies)

    def check(self, out: Path):
        problems = []
        rows = _rows(out / "multiround.csv")
        if len(rows) != self.items():
            problems.append(f"multiround.csv: {len(rows)} rows, expected {self.items()}")
        for r in rows:
            if not 0 <= int(r["hires"]) <= self.b:
                problems.append(f"multiround.csv: hires {r['hires']} outside [0, b]")
            if int(r["regret"]) < 0:
                problems.append(f"multiround.csv: negative regret {r['regret']}")
            if not 0.0 <= float(r["q"]) <= 1.0:
                problems.append(f"multiround.csv: q {r['q']} outside [0, 1]")
        agg = _rows(out / "multiround_agg.csv")
        if len(agg) != self.rounds * len(self.policies):
            problems.append(f"multiround_agg.csv: {len(agg)} rows, expected rounds x policies")
        return problems


WORKLOADS = {w.name: w for w in (SimHeatmap(), AnalyticTable(), MultiroundChain())}
