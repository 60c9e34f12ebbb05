"""Tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from seqselect import cli, core, multiround, policies  # noqa: E402

# Small sizes of the three workloads, so a repetition takes about a second.
SMALL = (
    workloads.SimHeatmap(trials=3, c_step=50),
    workloads.AnalyticTable(n_values=(20, 30), b_values=(5,), r_values=(0, 2)),
    workloads.MultiroundChain(runs=2, rounds=3),
)


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["montecarlo.run_cell", 1.0, 7.0, 0],
        ["core.generate_instance", 2.0, 3.5, 1],
        ["policies.run_policy", 4.0, 6.0, 1],
        ["core.realized_regret", 4.5, 5.0, 3],
        ["core.generate_instance", 6.0, 6.5, 1],
        ["analytics.optimal_cutoff", 8.0, 9.0, 0],
    ]
    table = tracer.span_table(spans)
    assert table["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["montecarlo.run_cell"]["self_s"] == pytest.approx(2.0)
    assert table["policies.run_policy"]["self_s"] == pytest.approx(1.5)
    assert table["core.generate_instance"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    layers = tracer.layer_self_s(table)
    assert layers == pytest.approx({"cli": 3.0, "montecarlo": 2.0, "core": 2.5,
                                    "policies": 1.5, "analytics": 1.0, "multiround": 0.0})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_span_wrapper_records_nesting():
    ticks = iter(range(100))
    rec = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = rec.span("core.inner", lambda: 7)
    outer = rec.span("policies.outer", lambda: inner() + inner())
    assert outer() == 14
    assert rec.spans == [["policies.outer", 0.0, 5.0, -1],
                         ["core.inner", 1.0, 2.0, 0],
                         ["core.inner", 3.0, 4.0, 0]]
    assert tracer.span_table(rec.spans)["policies.outer"]["self_s"] == 3.0


def _bindings():
    state = {(m.__name__, attr): value
             for m in tracer.package_modules() for attr, value in vars(m).items()}
    state[("Instance", "__post_init__")] = vars(core.Instance)["__post_init__"]
    return state


def test_patching_replaces_every_binding_and_restores_them():
    before = _bindings()
    originals = {id(fn) for _, fn in tracer.traced_functions()}
    rec = tracer.Tracer()
    with rec.patched():
        during = _bindings()
        assert [key for key, value in during.items() if id(value) in originals] == []
        for key in [("seqselect.policies", "realized_regret"),
                    ("seqselect.montecarlo", "generate_instance"),
                    ("seqselect.multiround", "mu_hat_curve"),
                    ("seqselect.cli", "translate_cutoff"),
                    ("seqselect", "threshold_curve"),
                    ("Instance", "__post_init__")]:
            assert during[key] is not before[key]
        select = multiround.make_policy_selector("csm-0")
        assert select(100, 5, 0, 0.5) == policies.PolicySpec(variant="csm", cutoff=0)
        assert cli.main is not before[("seqselect.cli", "main")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    names = [name for name, *_ in rec.spans]
    assert names == ["multiround.make_policy_selector", "multiround.select"]


def test_metric_names_and_benchmark_json_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in declared]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    produced = set(tracer.trace_metrics({}, {}, 0, 0, 1.0)) | set(tracer.parse_importtime(""))
    assert produced | {"trace_overhead"} == set(tracer.UNITS)


def test_parse_importtime_charges_each_layer_its_first_imports():
    text = "\n".join(
        f"import time: {self_us:>9} | {cum:>10} | {' ' * (2 * depth)}{name}"
        for self_us, cum, depth, name in [
            (500, 500, 1, "encodings"),
            (100, 100, 4, "numpy"),
            (50, 150, 3, "seqselect.core"),
            (20, 20, 3, "seqselect.policies"),
            (30, 30, 4, "scipy"),
            (40, 70, 3, "seqselect.analytics"),
            (10, 250, 2, "seqselect"),
            (5, 5, 3, "argparse"),
            (12, 17, 2, "seqselect.montecarlo"),
            (8, 8, 2, "seqselect.multiround"),
            (7, 282, 1, "seqselect.cli"),
        ]
    )
    got = tracer.parse_importtime("import time: self [us] | cumulative | imported package\n" + text)
    assert got == pytest.approx({
        "core.import_s": 150e-6, "policies.import_s": 20e-6, "analytics.import_s": 70e-6,
        "montecarlo.import_s": 17e-6, "multiround.import_s": 8e-6, "cli.import_s": 7e-6,
        "import.total_s": 282e-6,
    })


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_runs_repeat_counts_and_outputs(workload):
    bench = run.Run(workload, seed=3)
    try:
        first, plain, second = bench.rep(True), bench.rep(False), bench.rep(True)
        bench.check_repeats()
    finally:
        bench.close()
    for rec in (first, plain, second):
        assert rec["problems"] == []
    assert first["digests"] == plain["digests"] == second["digests"]
    counts = [name for name, unit, _ in tracer.PER_LAYER if unit == "count"]
    assert {n: first["layer"][n] for n in counts} == {n: second["layer"][n] for n in counts}
    assert first["layer"]["policies.run_policy.calls"] == (
        0 if workload.name == "analytic-table" else workload.items())


def _write(path, header, rows):
    path.write_text("\n".join([header, *(",".join(map(str, r)) for r in rows)]) + "\n")


def test_sim_heatmap_check_catches_bad_rows(tmp_path):
    w = workloads.SimHeatmap(n=10, b_values=(5,), c_step=5, trials=3)
    header = "b,c,mean_regret,stderr,mean_hires,failure_rate,trials"
    _write(tmp_path / "heatmap_cutoffs.csv", "b,c_star_sim,c_star_analytic", [(5, 5, 10)])
    _write(tmp_path / "heatmap.csv", header,
           [(5, 0, 1.0, 0.1, 5.0, 0.0, 3), (5, 5, 0.0, 0.0, 4.0, 0.0, 3),
            (5, 10, 2.0, 0.1, 3.0, 0.5, 3)])
    assert w.check(tmp_path) == []
    _write(tmp_path / "heatmap.csv", header,
           [(5, 0, -1.0, 0.1, 6.0, -0.5, 3), (5, 5, 0.0, 0.0, 4.0, 0.0, 2)])
    _write(tmp_path / "heatmap_cutoffs.csv", "b,c_star_sim,c_star_analytic", [(5, 11, -1)])
    assert len(w.check(tmp_path)) == 7


def test_analytic_table_check_catches_bad_rows(tmp_path):
    w = workloads.AnalyticTable(n_values=(20,), b_values=(5,), r_values=(0, 2))
    header = "n,b,r,c_star,expected_regret"
    _write(tmp_path / "cutoff_table.csv", header, [(20, 5, 2, 7, 3.5), (20, 5, 0, 0, 1.25)])
    assert w.check(tmp_path) == []
    _write(tmp_path / "cutoff_table.csv", header, [(20, 5, 0, 21, "nan")])
    assert len(w.check(tmp_path)) == 3


def test_multiround_check_catches_bad_rows(tmp_path):
    w = workloads.MultiroundChain(runs=1, rounds=1, policies=("mean",))
    header = "run,round,policy,regret,hires,failures,q,c_used"
    _write(tmp_path / "multiround_agg.csv", "round,policy,mean_regret,ci95_low,ci95_high",
           [(1, "mean", 3.0, 3.0, 3.0)])
    _write(tmp_path / "multiround.csv", header, [(0, 1, "mean", 3, 2, 0, 0.5, "")])
    assert w.check(tmp_path) == []
    _write(tmp_path / "multiround.csv", header,
           [(0, 1, "mean", -3, 6, 0, 1.5, ""), (0, 2, "mean", 3, 2, 0, 0.5, "")])
    assert len(w.check(tmp_path)) == 4
