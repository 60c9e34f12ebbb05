"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of the six seqselect layers from the
outside: every module binding of a traced function (including the copies that
``from ... import`` makes in other modules) is replaced by a wrapper that
records a span, and the original bindings are put back afterwards.  Nothing
under ``src/`` is changed.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for the root).  Spans stay in memory until the run ends and
are then reduced to per-name totals.  ``analytics.g_fn`` runs about 1.5 million
times per analytic-table run at about 2 us a call, so it is counted, not timed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("core", "policies", "analytics", "montecarlo", "multiround", "cli")
COUNT_ONLY = frozenset({"analytics.g_fn"})

# (name, unit, better).  Unit "count" marks a metric that must repeat exactly
# between two traced runs of one seed; every other metric is a median.
PER_LAYER = (
    ("core.generate_instance.calls", "count", "lower"),
    ("core.generate_instance.self_s", "s", "lower"),
    ("core.Instance.post_init.self_s", "s", "lower"),
    ("core.build_rank_context.calls", "count", "lower"),
    ("core.build_rank_context.per_item", "count", "lower"),
    ("core.build_rank_context.total_s", "s", "lower"),
    ("core.realized_regret.self_s", "s", "lower"),
    ("core.offline_optimum.self_s", "s", "lower"),
    ("core.compute_quality.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.import_s", "s", "lower"),
    ("policies.run_policy.calls", "count", "lower"),
    ("policies.steps", "count", "lower"),
    ("policies.run_cutoff.self_s", "s", "lower"),
    ("policies.run_adjusted_cutoff.self_s", "s", "lower"),
    ("policies.run_mean_baseline.self_s", "s", "lower"),
    ("policies.run_rand_baseline.self_s", "s", "lower"),
    ("policies.self_s", "s", "lower"),
    ("policies.import_s", "s", "lower"),
    ("montecarlo.run_cell.calls", "count", "lower"),
    ("montecarlo.trial_seed.calls", "count", "lower"),
    ("montecarlo.trial_seed.total_s", "s", "lower"),
    ("montecarlo.self_s", "s", "lower"),
    ("montecarlo.import_s", "s", "lower"),
    ("analytics.threshold_curve.calls", "count", "lower"),
    ("analytics.threshold_curve.self_s", "s", "lower"),
    ("analytics.g_fn.calls", "count", "lower"),
    ("analytics.optimal_cutoff.calls", "count", "lower"),
    ("analytics.optimal_cutoff.hits", "count", "higher"),
    ("analytics.optimal_cutoff.hit_ratio", "ratio", "higher"),
    ("analytics.translate_cutoff.calls", "count", "lower"),
    ("analytics.mu_hat_curve.calls", "count", "lower"),
    ("analytics.mu_hat_curve.self_s", "s", "lower"),
    ("analytics.self_s", "s", "lower"),
    ("analytics.import_s", "s", "lower"),
    ("multiround.run_chain.calls", "count", "lower"),
    ("multiround.self_s", "s", "lower"),
    ("multiround.select.calls", "count", "lower"),
    ("multiround.select.total_s", "s", "lower"),
    ("multiround.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("import.total_s", "s", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Tracer:
    """Records spans and counts for one traced CLI invocation."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._clock = clock

    def span(self, name, fn, post=None):
        """Wrap fn so each call records a span; post(result) may replace the result."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            return result if post is None else post(result)

        return traced

    def counter(self, name, fn):
        """Wrap fn so each call is counted but not timed."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_steps(self, outcome):
        self.counts["policies.steps"] += len(outcome.threshold_trace)
        return outcome

    def _trace_selector(self, select):
        return self.span("multiround.select", select)

    def wrap(self, name, fn):
        """The wrapper installed for the traced function called name."""
        if name in COUNT_ONLY:
            return self.counter(name, fn)
        post = {
            "policies.run_policy": self._count_steps,
            "multiround.make_policy_selector": self._trace_selector,
        }.get(name)
        return self.span(name, fn, post)

    @contextlib.contextmanager
    def patched(self):
        """Install wrappers on every binding of every traced function; restore on exit."""
        undo = []
        try:
            wrappers = {id(fn): (fn, self.wrap(name, fn)) for name, fn in traced_functions()}
            for module in package_modules():
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        undo.append((module, attr, value))
                        setattr(module, attr, hit[1])
            instance = importlib.import_module("seqselect.core").Instance
            post_init = vars(instance)["__post_init__"]
            undo.append((instance, "__post_init__", post_init))
            instance.__post_init__ = self.span("core.Instance.post_init", post_init)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


def package_modules():
    """Every loaded seqselect module, the package itself included."""
    return [
        module for name, module in list(sys.modules.items())
        if name == "seqselect" or name.startswith("seqselect.")
    ]


def traced_functions():
    """(span name, function) for the public functions each layer defines.

    Generator functions are left out: a span around one would close before
    the generator runs, so their work is charged to whoever iterates them.
    """
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"seqselect.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            plain = inspect.isfunction(value) and not inspect.isgeneratorfunction(value)
            if plain or hasattr(value, "cache_info"):
                out.append((f"{layer}.{attr}", value))
    return out


def span_table(spans):
    """Per span name: calls, total_s (summed durations) and self_s.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    table = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_s[i]
    return table


def layer_self_s(table):
    """Self time summed per layer; the layers together cover the root span."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, row in table.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return out


def trace_metrics(table, counts, cache_hits, output_bytes, wall_s):
    """Per-layer metrics of one traced repetition (import times are added later)."""

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    calls = {name: r["calls"] for name, r in table.items()}
    layers = layer_self_s(table)
    items = calls.get("policies.run_policy", 0)
    lookups = calls.get("analytics.optimal_cutoff", 0)
    m = {
        "core.build_rank_context.per_item":
            calls.get("core.build_rank_context", 0) / items if items else 0.0,
        "core.build_rank_context.total_s": row("core.build_rank_context")["total_s"],
        "policies.steps": counts.get("policies.steps", 0),
        "montecarlo.trial_seed.total_s": row("montecarlo.trial_seed")["total_s"],
        "analytics.g_fn.calls": counts.get("analytics.g_fn", 0),
        "analytics.optimal_cutoff.hits": cache_hits,
        "analytics.optimal_cutoff.hit_ratio": cache_hits / lookups if lookups else 0.0,
        "multiround.select.total_s": row("multiround.select")["total_s"],
        "cli.output_bytes": output_bytes,
        "traced_wall_s": wall_s,
    }
    for name, _, _ in PER_LAYER:
        if name in m:
            continue
        head, _, stat = name.rpartition(".")
        if head in LAYERS and stat == "self_s":
            m[name] = layers[head]
        elif stat == "calls":
            m[name] = row(head)["calls"]
        elif stat == "self_s":
            m[name] = row(head)["self_s"]
    return m


def parse_importtime(text):
    """Import seconds per seqselect layer from ``python -X importtime`` output.

    Each layer is charged the cumulative time of its own module minus that of
    the seqselect modules it imports, so third-party modules go to the layer
    that imports them first and the layers add up to ``import.total_s``.
    """
    stack = []  # (depth, node) of finished imports not yet given a parent
    for line in text.splitlines():
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        _, cumulative, field = line.split("|", 2)
        name = field.lstrip()
        node = {"name": name, "cum": int(cumulative), "children": []}
        depth = len(field) - len(name)
        while stack and stack[-1][0] > depth:
            node["children"].append(stack.pop()[1])
        stack.append((depth, node))

    def ours(nodes):
        """The seqselect modules among nodes, or nearest below them."""
        for node in nodes:
            if node["name"].partition(".")[0] == "seqselect":
                yield node
            else:
                yield from ours(node["children"])

    out = {f"{layer}.import_s": 0.0 for layer in LAYERS}
    todo = list(ours(node for _, node in stack))
    out["import.total_s"] = sum(node["cum"] for node in todo) / 1e6
    while todo:
        node = todo.pop()
        nested = list(ours(node["children"]))
        key = node["name"].partition(".")[2] + ".import_s"
        if key in out:
            out[key] = (node["cum"] - sum(child["cum"] for child in nested)) / 1e6
        todo.extend(nested)
    return out
