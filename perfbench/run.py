"""seqselect benchmark: run one workload for a fixed time and report its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim-heatmap --seed 1 --seconds 30 --trace 0

Each repetition is one fresh process that imports the CLI from ``src/`` and
runs it once, single-threaded (a closed loop with one client).  Repetitions start
until ``--seconds`` have passed, and every one has its outputs checked.

Times are scaled to a nominal host speed.  On a shared host the speed of the
processor drifts by tens of percent within seconds, so a probe thread in each
repetition measures it (see child.py) and every time is multiplied by the
measured speed over NOMINAL_SPEED.  The raw times are in the information line.

``--trace 0`` reports the end-to-end metrics: medians over the repetitions.
``--trace 1`` alternates traced and untraced repetitions (at least two traced
and one untraced), times one ``python -X importtime`` import and reports the
per-layer metrics.  Traced outputs must be byte-identical to untraced ones and
count metrics must repeat exactly between traced repetitions.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is an information record (samples, output
digests and whether they match those in ``reference.json``, layer shares,
versions).  A readable table goes to stderr.  ``--workload all`` runs every
workload in turn, with one information line and one result line each.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYERS, PER_LAYER, UNITS, parse_importtime, trace_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
TIME_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says
# Times are reported as they would read on a host that runs the reference loop
# in child.py at this many iterations per second (see README.md).
NOMINAL_SPEED = 1.0e7

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def child_env():
    """The environment of a repetition: the checkout's src first, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def child_cmd(result_path: Path, mode: str, *argv, python_flags=()):
    return [sys.executable, *python_flags, str(HERE / "child.py"), str(result_path), mode, *argv]


def scale_times(metrics: dict, speed: float) -> dict:
    """Scale the metrics measured in seconds to the nominal host speed."""
    return {name: value * speed / NOMINAL_SPEED if UNITS[name] == "s" else value
            for name, value in metrics.items()}


def output_files(out: Path):
    """The CLI's data files; manifests hold the wall time, so they are left out."""
    return sorted(p for p in out.iterdir() if not p.name.endswith(".manifest.json"))


class Run:
    """Repetitions of one workload on one seed, in a scratch directory of the checkout."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = SCRATCH / f"{workload.name}-{os.getpid()}"
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.reps = []
        self.problems = []

    def rep(self, trace: bool) -> dict:
        """Run and check one repetition in a fresh process."""
        rep_dir = self.dir / f"rep{len(self.reps)}"
        out = rep_dir / "out"
        out.mkdir(parents=True)
        rec = {"trace": trace, "problems": []}
        self.reps.append(rec)
        cmd = child_cmd(rep_dir / "result.json", "trace" if trace else "plain",
                        *self.workload.argv(self.seed, out))
        with open(rep_dir / "stdout.txt", "wb") as so, open(rep_dir / "stderr.txt", "wb") as se:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(cmd, stdout=so, stderr=se, env=child_env(), cwd=ROOT,
                                      timeout=max(self.deadline - spawned, 1.0))
            except subprocess.TimeoutExpired:
                rec["problems"].append("timed out")
        if not rec["problems"] and proc.returncode != 0:
            tail = (rep_dir / "stderr.txt").read_text(errors="replace").strip()[-500:]
            rec["problems"].append(f"exit code {proc.returncode}: {tail}")
        if not rec["problems"]:
            result = json.loads((rep_dir / "result.json").read_text())
            rec["raw_wall_s"] = result["wall_s"]
            rec["raw_setup_s"] = result["imported_at"] - spawned
            rec["wall_speed"] = result["wall_speed"]
            rec["setup_speed"] = result["setup_speed"]
            rec["wall_s"] = rec["raw_wall_s"] * result["wall_speed"] / NOMINAL_SPEED
            rec["setup_s"] = rec["raw_setup_s"] * result["setup_speed"] / NOMINAL_SPEED
            rec["rss_mb"] = result["maxrss_kb"] / 1024.0
            try:
                rec["problems"] += self.workload.check(out)
            except (OSError, ValueError, KeyError) as exc:
                rec["problems"].append(f"unreadable output: {exc!r}")
            files = output_files(out)
            rec["digests"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
            if trace:
                t = result["trace"]
                layer = trace_metrics(t["spans"], t["counts"], t["cache_hits"],
                                      sum(p.stat().st_size for p in files), result["wall_s"])
                rec["layer"] = scale_times(layer, result["wall_speed"])
        shutil.rmtree(rep_dir)
        return rec

    def check_repeats(self):
        """Every repetition of one seed must write the same bytes, and traced
        repetitions must report the same counts."""
        done = [r for r in self.reps if "digests" in r]
        for r in done[1:]:
            if r["digests"] != done[0]["digests"]:
                r["problems"].append("outputs differ from the first repetition")
        traced = [r for r in done if r["trace"]]
        for r in traced[1:]:
            for name, unit, _ in PER_LAYER:
                if unit == "count" and r["layer"][name] != traced[0]["layer"][name]:
                    r["problems"].append(f"count {name} differs between traced repetitions")

    def ok(self, trace: bool):
        return [r for r in self.reps if r["trace"] == trace and not r["problems"]]

    def importtime(self):
        """Per-layer import seconds from one ``python -X importtime`` run."""
        result_path = self.dir / "import.json"
        proc = subprocess.run(child_cmd(result_path, "import", python_flags=("-X", "importtime")),
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=max(self.deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            self.problems.append(f"importtime run failed: {proc.stderr.strip()[-500:]}")
            return {}
        speed = json.loads(result_path.read_text())["setup_speed"]
        return scale_times(parse_importtime(proc.stderr), speed)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Run repetitions for `seconds` and return the metrics of the run."""
    started = time.monotonic()
    while True:
        n_traced = sum(r["trace"] for r in run.reps)
        n_plain = len(run.reps) - n_traced
        enough = n_traced >= 2 and n_plain >= 1 if trace else n_plain >= 1
        if enough and time.monotonic() - started >= seconds:
            break
        run.rep(trace=trace and n_traced <= n_plain)
    run.check_repeats()
    plain = run.ok(False)
    if not plain:
        return {}
    walls = [r["wall_s"] for r in plain]
    if not trace:
        items = run.workload.items()
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "items_per_s": statistics.median(items / w for w in walls),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
    traced = run.ok(True)
    if not traced:
        return {}
    metrics = {}
    for name, unit, _ in PER_LAYER:
        values = [r["layer"][name] for r in traced if name in r["layer"]]
        if values:
            metrics[name] = values[0] if unit == "count" else statistics.median(values)
    metrics["trace_overhead"] = metrics["traced_wall_s"] / statistics.median(walls) - 1.0
    metrics.update(run.importtime())
    return metrics


SAMPLE_KEYS = ("trace", "wall_s", "setup_s", "raw_wall_s", "raw_setup_s",
               "wall_speed", "setup_speed", "rss_mb")


def environment():
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def reference_match(workload: str, seed: int, digests: dict):
    """True/False against the digests recorded for this seed, None if none are."""
    if not REFERENCE.is_file():
        return None
    recorded = json.loads(REFERENCE.read_text()).get("digests", {})
    expected = recorded.get(workload, {}).get(str(seed))
    return None if expected is None else expected == digests


def report(run: Run, trace: bool, metrics: dict) -> int:
    """Print the information line and the result line; 0 when a result was printed."""
    units = dict(UNITS) if trace else {name: unit for name, unit, _ in END_TO_END}
    failed = sum(bool(r["problems"]) for r in run.reps)
    problems = run.problems + [p for r in run.reps for p in r["problems"]]
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: {run.workload.name}: no result; missing {missing}; problems: {problems}",
              file=sys.stderr)
        return 1
    done = [r for r in run.reps if "digests" in r]
    info = {
        "workload": run.workload.name,
        "seed": run.seed,
        "argv": run.workload.argv(run.seed, Path("OUT")),
        "items": run.workload.items(),
        "repetitions": {"untraced": len(run.ok(False)), "traced": len(run.ok(True))},
        "error_rate": failed / len(run.reps),
        "problems": problems,
        "samples": [{k: r[k] for k in SAMPLE_KEYS} for r in done],
        "digests": done[0]["digests"],
        "reference_digests_match": reference_match(run.workload.name, run.seed,
                                                   done[0]["digests"]),
        "environment": environment(),
    }
    if trace:
        info["layer_share"] = {layer: metrics[f"{layer}.self_s"] / metrics["traced_wall_s"]
                               for layer in LAYERS}
    for name, unit in units.items():
        print(f"{run.workload.name:>16}  {name:<38} {metrics[name]:>14.6g} {unit}",
              file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": len(run.reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seqselect" / "cli.py").is_file():
        print(f"error: no seqselect source under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "seqselect", quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rc = 0
    for name in names:
        run = Run(WORKLOADS[name], args.seed)
        try:
            rc = max(rc, report(run, bool(args.trace), measure(run, args.seconds, bool(args.trace))))
        finally:
            run.close()
    return rc


if __name__ == "__main__":
    sys.exit(main())
