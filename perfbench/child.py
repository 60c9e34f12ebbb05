"""One benchmark repetition: import the seqselect CLI, run it once, report.

Usage: python child.py RESULT_JSON MODE [CLI_ARG...]

MODE is ``plain`` (run the CLI), ``trace`` (run it under the span tracer) or
``import`` (only import it; run.py starts this mode with ``-X importtime``).
The result file gets the monotonic clock reading right after ``import
seqselect.cli`` (the parent subtracts its own reading taken before it started
the process, which gives the set-up time), the wall time of
``seqselect.cli.main``, the peak RSS, the host speed while importing and while
running, and, when traced, the per-span totals.  The exit code is the CLI's.

The speed of a shared host drifts by tens of percent within seconds, so a
probe thread measures it throughout: every PROBE_INTERVAL_S it times
PROBE_ITERATIONS turns of a fixed pure-Python loop.  The CLI itself runs in
the main thread alone; the probe holds the interpreter lock for about half a
millisecond per sample.  The process is pinned to one processor so that the
probe measures the processor the CLI runs on.
"""

import contextlib
import os
import sys
import threading
import time

PROBE_ITERATIONS = 5000
PROBE_INTERVAL_S = 0.02


class SpeedProbe:
    """Samples the host's speed, in reference-loop iterations per second."""

    def __init__(self):
        self._samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._samples.append(burst())

    def start(self):
        self._thread.start()

    def mark(self):
        """Median speed since the previous mark (one extra sample if there was none)."""
        samples, self._samples = sorted(self._samples), []
        return samples[len(samples) // 2] if samples else burst()

    def stop(self):
        self._stop.set()
        self._thread.join()


def burst():
    """Speed of one timed run of the reference loop, in iterations per second."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return PROBE_ITERATIONS / (time.perf_counter() - started)


def main(result_path, mode, argv):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()
    import seqselect.cli

    result = {"imported_at": time.monotonic(), "setup_speed": probe.mark(), "rc": 0}
    if mode in ("plain", "trace"):
        if mode == "trace":
            import tracer

            rec = tracer.Tracer()
            patched = rec.patched()
        else:
            patched = contextlib.nullcontext()
        probe.mark()
        with patched:
            started = time.perf_counter()
            result["rc"] = seqselect.cli.main(argv)
            result["wall_s"] = time.perf_counter() - started
        result["wall_speed"] = probe.mark()
        if mode == "trace":
            result["trace"] = {
                "spans": tracer.span_table(rec.spans),
                "counts": dict(rec.counts),
                "cache_hits": seqselect.analytics.optimal_cutoff.cache_info().hits,
            }
    probe.stop()

    import json
    import resource

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
