"""Record the SHA-256 of every workload's outputs, per seed, in reference.json.

Usage, from the root of a git checkout:

    python3 perfbench/record.py FIRST_SEED LAST_SEED

run.py reports whether a run's outputs match these digests, as information,
not as a failure.  Record again when a change is meant to alter the outputs
(a correctness fix, say), and say why in that change.  The file also keeps the
environment the digests were recorded in and the last commit that touched
``src/``.
"""

import json
import platform
import subprocess
import sys

from run import REFERENCE, ROOT, Run, environment
from workloads import WORKLOADS


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(first: int, last: int) -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        for seed in range(first, last + 1):
            run = Run(workload, seed)
            try:
                rec = run.rep(trace=False)
            finally:
                run.close()
            if rec["problems"]:
                print(f"error: {name} seed {seed}: {rec['problems']}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = rec["digests"]
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
    source = subprocess.run(["git", "log", "-1", "--format=%H", "--", "src"],
                            capture_output=True, text=True, cwd=ROOT).stdout.strip()
    record = {
        "environment": {**environment(), "cpu_model": cpu_model()},
        "source_commit": source or None,
        "digests": digests,
    }
    REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
