"""CLI surface tests: subcommands, file emission, reproducibility, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqselect
from seqselect.cli import _csv_lines, build_parser, main


def run_cli(args):
    return main(args)


class TestAnalyze:
    def test_prints_the_translated_optimum(self, capsys):
        assert run_cli(["analyze", "--n", "100", "--b", "5", "--r", "0", "--q", "0.75"]) == 0
        out = capsys.readouterr().out
        assert "c_star = 38" in out
        assert "similar_setting: n_source=48 c_source=19" in out

    def test_full_resignations(self, capsys):
        assert run_cli(["analyze", "--n", "100", "--b", "5", "--r", "5", "--q", "0.75"]) == 0
        out = capsys.readouterr().out
        assert "c_star = 28" in out
        assert "expected_hires = 5.000000" in out

    def test_given_cutoff_full_learning(self, capsys):
        assert run_cli(
            ["analyze", "--n", "100", "--b", "5", "--r", "0", "--q", "0.5", "--c", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "expected_hires = 0.000000" in out

    def test_bad_params_exit_code(self):
        assert run_cli(["analyze", "--n", "5", "--b", "9", "--r", "0", "--q", "0.5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["analyze", "--n", "10", "--b", "2", "--r", "-1"],
        ["translate", "--n", "10", "--b", "2", "--q", "0.7", "--r", "3"],
    ], ids=lambda argv: argv[0])
    def test_domain_message_names_the_flags(self, argv, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == "error: need 0 <= r <= b <= n and b >= 1\n"

    @pytest.mark.parametrize("argv", [
        ["analyze", "--n", "10", "--b", "2", "--q", "1.5"],
        ["translate", "--n", "10", "--b", "2", "--q", "1.5"],
    ], ids=lambda argv: argv[0])
    def test_quality_message_names_the_flag(self, argv, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == "error: need 0 < q < 1, got q=1.5\n"

    def test_cutoff_outside_range_exit_code(self, capsys):
        for q in ("0.5", "0.75", "0.99"):
            for c in ("500", "-1", "101"):
                argv = ["analyze", "--n", "100", "--b", "5", "--q", q, "--c", c]
                assert run_cli(argv) == 2
        assert capsys.readouterr().out == ""


class TestTranslate:
    def test_published_example(self, capsys):
        assert run_cli(["translate", "--n", "100", "--b", "15", "--q", "0.8", "--r", "0"]) == 0
        out = capsys.readouterr().out
        assert "n_source = 31" in out
        assert "c_star_source = 9" in out
        assert "c_star_target = 22" in out

    def test_identity(self, capsys):
        assert run_cli(["translate", "--n", "40", "--b", "4", "--q", "0.5", "--r", "0"]) == 0
        out = capsys.readouterr().out
        src = [l for l in out.splitlines() if l.startswith("c_star_source")][0]
        tgt = [l for l in out.splitlines() if l.startswith("c_star_target")][0]
        assert src.split("=")[1].strip() == tgt.split("=")[1].strip()

    def test_degenerate_warns(self, capsys):
        with pytest.warns(UserWarning):
            assert run_cli(
                ["translate", "--n", "100", "--b", "15", "--q", "0.99", "--r", "0"]
            ) == 0
        out = capsys.readouterr().out
        assert "c_star_target = 0" in out
        assert "warning" in out


class TestSimulate:
    def test_csv_and_manifest(self, tmp_path):
        out = tmp_path / "cell.csv"
        argv = [
            "simulate", "--n", "20", "--b", "3", "--c", "5", "--q", "0.5", "--r", "1",
            "--trials", "50", "--seed", "4", "--out", str(out),
        ]
        assert run_cli(argv) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "b,c,mean_regret,stderr,mean_hires,failure_rate,trials"
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["seed"] == 4 and "version" in manifest

    def test_byte_identical_reruns(self, tmp_path):
        argv = lambda p: [
            "simulate", "--n", "20", "--b", "3", "--c", "5", "--q", "0.5", "--r", "1",
            "--trials", "50", "--seed", "4", "--out", p,
        ]
        run_cli(argv(str(tmp_path / "a.csv")))
        run_cli(argv(str(tmp_path / "b.csv")))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_workers_below_one_exit_code(self, tmp_path):
        for workers in ("0", "-2"):
            assert run_cli(
                ["simulate", "--n", "15", "--b", "2", "--c", "3", "--trials", "20",
                 "--workers", workers, "--out", str(tmp_path / "w.csv")]
            ) == 2
        assert not (tmp_path / "w.csv").exists()

    def test_zero_trials_exit_code(self, tmp_path):
        assert run_cli(
            ["simulate", "--n", "10", "--b", "2", "--c", "3", "--trials", "0",
             "--out", str(tmp_path / "t.csv")]
        ) == 2
        assert not (tmp_path / "t.csv").exists()

    def test_cutoff_outside_range_exit_code_for_every_policy(self, tmp_path):
        # mean and rand take no cutoff, but a given --c is checked for them too
        out = tmp_path / "s.csv"
        for policy in ("csm", "acsm", "mean", "rand"):
            for c in ("50", "-1"):
                assert run_cli(
                    ["simulate", "--n", "10", "--b", "2", "--c", c, "--policy", policy,
                     "--trials", "5", "--seed", "1", "--out", str(out)]
                ) == 2, (policy, c)
        assert not out.exists()

    def test_tied_referents_draw(self, tmp_path):
        # near q = 1 the sampler can round two referents to one double
        assert run_cli(
            ["simulate", "--n", "2000", "--b", "1000", "--c", "100", "--q", "0.999999999",
             "--trials", "5", "--seed", "1", "--out", str(tmp_path / "t.csv")]
        ) == 0

    def test_json_format(self, capsys):
        assert run_cli(
            ["simulate", "--n", "15", "--b", "2", "--c", "3", "--trials", "20",
             "--seed", "1", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"mean_regret", "failure_rate", "trials"}


class TestHeatmap:
    def test_files_and_determinism(self, tmp_path):
        argv = lambda p: [
            "heatmap", "--n", "12", "--q", "0.5", "--r", "0", "--b-values", "2,3",
            "--c-values", "0,4,8,12", "--trials", "30", "--seed", "7", "--out", p,
        ]
        assert run_cli(argv(str(tmp_path / "h1.csv"))) == 0
        assert run_cli(argv(str(tmp_path / "h2.csv"))) == 0
        assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()
        lines = (tmp_path / "h1.csv").read_text().splitlines()
        assert lines[0] == "b,c,mean_regret,stderr,mean_hires,failure_rate,trials"
        assert len(lines) == 1 + 2 * 4
        cut = (tmp_path / "h1_cutoffs.csv").read_text().splitlines()
        assert cut[0] == "b,c_star_sim,c_star_analytic"


    def test_cutoffs_outside_range_exit_code(self, tmp_path):
        out = tmp_path / "h.csv"
        base = ["heatmap", "--n", "5", "--b-values", "2", "--trials", "5", "--out", str(out)]
        for extra in (["--c-values", "0,-3"], ["--c-values", "6,7"], ["--c-step", "0"]):
            assert run_cli(base + extra) == 2
        assert not out.exists() and not (tmp_path / "h_cutoffs.csv").exists()

    def test_non_cutoff_policy_rejected(self, tmp_path, capsys):
        # the argmin of a mean or rand sweep over c is noise, not a c_star
        out = tmp_path / "h.csv"
        for policy in ("mean", "rand"):
            assert exit_code(
                ["heatmap", "--n", "20", "--b-values", "2", "--c-values", "0,5,10",
                 "--policy", policy, "--trials", "5", "--out", str(out)]
            ) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "h_cutoffs.csv").exists()

    def test_quality_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(seqselect.montecarlo, "run_cell", lambda *a, **k: pytest.fail("ran"))
        out = tmp_path / "h.csv"
        assert run_cli(["heatmap", "--n", "10", "--q", "1.5", "--b-values", "2",
                        "--c-values", "0", "--trials", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: need 0 < q < 1, got q=1.5\n"
        assert not out.exists() and not (tmp_path / "h_cutoffs.csv").exists()


class TestSweepsCheckEverySettingFirst:
    @pytest.mark.parametrize("argv, error", [
        (["heatmap", "--n", "20", "--r", "3", "--b-values", "5,2"],
         "error: need 0 <= r <= b <= n and b >= 1\n"),
        (["cutoff-curves", "--n", "20", "--q-values", "0.5,1.5", "--b-values", "3"],
         "error: need 0 < q < 1, got q=1.5\n"),
    ], ids=["heatmap-r-above-a-later-b", "cutoff-curves-later-q"])
    def test_no_cell_runs(self, argv, error, tmp_path, capsys, monkeypatch):
        # a bad later setting must not cost the cells of the earlier ones
        calls = []
        real = seqselect.montecarlo.run_cell
        monkeypatch.setattr(seqselect.montecarlo, "run_cell",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        out = tmp_path / "x.csv"
        assert run_cli(argv + ["--c-values", "0,5", "--trials", "5", "--out", str(out)]) == 2
        assert len(calls) == 0
        assert capsys.readouterr().err == error
        assert list(tmp_path.iterdir()) == []


def main_under_memory_limit(argv, tmp_path, limit=1 << 30):
    """main(argv) in a child process whose address space is capped at limit
    bytes once seqselect is imported (RLIMIT_AS), so a run that asks for
    more memory than that fails in the child alone."""
    code = ("import resource, sys\n"
            "from seqselect.cli import main\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(seqselect.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


class TestSizesThatCannotFit:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10", "--b", "2", "--c", "3", "--trials", "100000000000000"],
        ["multiround", "--p-res", "0.5", "--runs", "1000000000", "--out", "x.csv"],
        ["multiround", "--p-res", "0.5", "--rounds", "100000000", "--runs", "1",
         "--out", "x.csv"],
    ], ids=["simulate-trials", "multiround-runs", "multiround-rounds"])
    def test_fail_at_once_with_an_error_line(self, argv, tmp_path):
        # the results (simulate) and the draws of every run and every round
        # (multiround) are allocated before any Python list grows with the
        # count
        res = main_under_memory_limit(argv, tmp_path)
        assert (res.returncode, res.stdout) == (5, "")
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestScanSizeBound:
    # the cutoff scan's cost grows as n^2: a day at n = 1,000,000
    @pytest.mark.parametrize("argv, error", [
        (["analyze", "--n", "1000000", "--b", "5"],
         "error: the cutoff scan takes n <= 5000, got n=1000000\n"),
        (["cutoff-table", "--n-values", "1000000", "--b-values", "5", "--out", "x.csv"],
         "error: the cutoff scan takes n <= 5000, got n=1000000\n"),
    ], ids=["analyze", "cutoff-table"])
    def test_fail_at_once(self, argv, error, tmp_path):
        # in a child process, so a scan that did start would time out alone
        res = main_under_memory_limit(argv, tmp_path)
        assert (res.returncode, res.stdout, res.stderr) == (2, "", error)
        assert list(tmp_path.iterdir()) == []

    def test_sweep_and_chains_fail_before_they_start(self, tmp_path, capsys, monkeypatch):
        # the similar setting of q = 0.1 at n = 3,000 has n = 5,403; a
        # multiround round's quality can be near 0, so n = 3,000 can need 6,003
        calls = []
        for module, name in ((seqselect.montecarlo, "run_cell"),
                             (seqselect.multiround, "_draw_chains")):
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
        out = str(tmp_path / "x.csv")
        assert run_cli(["heatmap", "--n", "3000", "--q", "0.1", "--b-values", "5",
                        "--c-values", "0", "--out", out]) == 2
        assert run_cli(["multiround", "--n", "3000", "--pop-size", "4000", "--p-res", "0.5",
                        "--policies", "mean,csm-star", "--out", out]) == 2
        assert calls == []
        assert capsys.readouterr().err.splitlines() == [
            "error: the cutoff scan takes n <= 5000, got n=5403",
            "error: the cutoff scan takes n <= 5000, got n=6003",
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "6000", "--b", "2", "--c", "100", "--trials", "2"],
        ["failure", "--n", "6000", "--b", "2", "--r", "1", "--q", "0.5", "--c", "100",
         "--trials", "2"],
    ], ids=["simulate", "failure"])
    def test_a_given_cutoff_runs_no_scan(self, argv, capsys):
        assert run_cli(argv) == 0


class TestCutoffCurves:
    def test_curve_file(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run_cli(
            ["cutoff-curves", "--n", "12", "--q-values", "0.5", "--b-values", "3",
             "--c-values", "0,4,8,12", "--trials", "25", "--seed", "2", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,b,c_star_sim,c_star_analytic"
        assert len(lines) == 2


class TestResignationFlags:
    def test_r_and_r_frac_exclusive(self, tmp_path, capsys):
        for command in (["heatmap"], ["cutoff-curves"]):
            for r in ("0", "1"):
                argv = command + ["--n", "12", "--b-values", "3", "--c-values", "0,6",
                                  "--trials", "5", "--r", r, "--r-frac", "0.5",
                                  "--out", str(tmp_path / "x.csv")]
                with pytest.raises(SystemExit) as exc:
                    run_cli(argv)
                assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_r_defaults_to_zero(self, tmp_path):
        out = tmp_path / "h.csv"
        argv = ["heatmap", "--n", "12", "--b-values", "3", "--c-values", "0,6",
                "--trials", "5", "--out", str(out)]
        assert run_cli(argv) == 0
        explicit = tmp_path / "e.csv"
        assert run_cli(argv[:-1] + [str(explicit), "--r", "0"]) == 0
        assert out.read_bytes() == explicit.read_bytes()
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["flags"]["r"] == 0 and manifest["flags"]["r_frac"] is None

    def test_r_frac_manifest_records_no_r(self, tmp_path):
        # the counts come from the fraction, one per b, so no single r is recorded
        out = tmp_path / "f.csv"
        assert run_cli(["heatmap", "--n", "12", "--b-values", "3", "--c-values", "0,6",
                        "--trials", "5", "--r-frac", "0.5", "--out", str(out)]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["flags"]["r"] is None and manifest["flags"]["r_frac"] == 0.5


class TestBadCounts:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10", "--b", "2", "--c", "3", "--trials", "5"],
        ["heatmap", "--n", "10", "--b-values", "2", "--c-values", "0,5", "--trials", "5"],
        ["cutoff-curves", "--n", "10", "--b-values", "2", "--c-values", "0,5",
         "--trials", "5"],
        ["failure", "--n", "10", "--b", "2", "--r", "1", "--q", "0.6", "--trials", "5"],
        ["multiround", "--n", "10", "--b", "2", "--pop-size", "30", "--rounds", "2",
         "--runs", "2", "--p-res", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exit_code(self, argv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run_cli(argv + ["--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()
        # the message names the seed as given, not a cell's or a chain's seed
        assert capsys.readouterr().err == "error: seeds must be >= 0 and whole, got -1\n"

    def test_zero_runs_and_rounds_exit_code(self, tmp_path):
        out = tmp_path / "m.csv"
        base = ["multiround", "--n", "10", "--b", "2", "--pop-size", "30", "--p-res", "0.5",
                "--out", str(out)]
        assert run_cli(base + ["--runs", "0", "--rounds", "2"]) == 2
        assert run_cli(base + ["--runs", "2", "--rounds", "0"]) == 2
        assert not out.exists()


class TestCutoffTable:
    def test_table_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli(
            ["cutoff-table", "--n-values", "20,25", "--b-values", "3", "--r-values",
             "0,3", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,b,r,c_star,expected_regret"
        assert len(lines) == 5


class TestMultiround:
    def test_files(self, tmp_path, capsys):
        out = tmp_path / "mssp.csv"
        assert run_cli(
            ["multiround", "--n", "20", "--b", "3", "--pop-size", "60", "--rounds", "3",
             "--runs", "4", "--p-res", "0.5", "--policies", "csm-star,rand",
             "--seed", "3", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "run,round,policy,regret,hires,failures,q,c_used"
        agg = (tmp_path / "mssp_agg.csv").read_text().splitlines()
        assert agg[0] == "round,policy,mean_regret,ci95_low,ci95_high"
        assert "final-round mean regret" in capsys.readouterr().out

    @pytest.mark.parametrize("n, b", [(-1, 5), (10, 0), (3, 5)])
    def test_bad_sizes_exit_code_before_any_draw(self, n, b, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["multiround", "--n", str(n), "--b", str(b), "--pop-size", "50", "--rounds", "2",
                "--runs", "2", "--p-res", "0.2", "--out", str(tmp_path / "x.csv")]
        assert exit_code(argv) == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == "error: need 0 <= r <= b <= n and b >= 1\n"

    def test_unknown_policy(self, tmp_path):
        assert run_cli(
            ["multiround", "--p-res", "0.5", "--policies", "nope",
             "--out", str(tmp_path / "x.csv")]
        ) == 2

    def test_policies_parse_like_every_list_flag(self, tmp_path, capsys):
        # spaces around a name and a trailing comma are dropped, as for --b-values
        base = ["multiround", "--n", "10", "--b", "2", "--pop-size", "30", "--rounds", "2",
                "--runs", "2", "--p-res", "0.5", "--seed", "1"]
        outputs = []
        for i, policies in enumerate(("csm-star,rand", "csm-star, rand", " csm-star,rand,")):
            out = tmp_path / f"m{i}.csv"
            assert run_cli(base + ["--policies", policies, "--out", str(out)]) == 0
            outputs.append((out.read_text(), out.with_name(f"m{i}_agg.csv").read_text()))
            manifest = json.loads(out.with_name(f"m{i}.csv.manifest.json").read_text())
            assert manifest["flags"]["policies"] == ["csm-star", "rand"]
        assert outputs[0] == outputs[1] == outputs[2]


class TestFailure:
    def test_reports_rate(self, capsys, tmp_path):
        out = tmp_path / "fail.csv"
        assert run_cli(
            ["failure", "--n", "30", "--b", "5", "--r", "5", "--q", "0.6",
             "--c", "10", "--trials", "200", "--seed", "5", "--out", str(out)]
        ) == 0
        txt = capsys.readouterr().out
        assert "failure_rate = " in txt
        lines = out.read_text().splitlines()
        assert lines[0] == "policy,c,failure_rate,mean_regret,mean_hires,trials"

    def test_acsm_variant(self, capsys):
        assert run_cli(
            ["failure", "--n", "30", "--b", "5", "--r", "5", "--q", "0.6",
             "--c", "10", "--policy", "acsm", "--trials", "100", "--seed", "5"]
        ) == 0
        assert "policy=acsm" in capsys.readouterr().out


# parsed flags (func aside) of a minimal argv per subcommand; the manifest's
# "flags" holds the same keys
PARSED_DEFAULTS = {
    "analyze": (
        ["analyze", "--n", "10", "--b", "2"],
        {"command": "analyze", "n": 10, "b": 2, "r": 0, "q": 0.5, "c": None},
    ),
    "translate": (
        ["translate", "--n", "10", "--b", "2", "--q", "0.7"],
        {"command": "translate", "n": 10, "b": 2, "q": 0.7, "r": 0},
    ),
    "simulate": (
        ["simulate", "--n", "10", "--b", "2", "--c", "3"],
        {"command": "simulate", "n": 10, "b": 2, "c": 3, "q": 0.5, "r": 0, "policy": "csm",
         "trials": 1000, "seed": 0, "workers": 1, "out": None, "format": "csv"},
    ),
    "heatmap": (
        ["heatmap", "--n", "10", "--out", "h.csv"],
        {"command": "heatmap", "n": 10, "q": 0.5, "r": None, "r_frac": None,
         "b_values": (5, 20, 50), "c_values": None, "c_step": 1, "policy": "csm",
         "trials": 1000, "seed": 0, "workers": 1, "out": "h.csv"},
    ),
    "cutoff-table": (
        ["cutoff-table", "--n-values", "10", "--b-values", "2", "--out", "t.csv"],
        {"command": "cutoff-table", "n_values": (10,), "b_values": (2,), "r_values": (0,),
         "out": "t.csv"},
    ),
    "cutoff-curves": (
        ["cutoff-curves", "--n", "10", "--out", "c.csv"],
        {"command": "cutoff-curves", "n": 10, "q_values": (0.5,), "r": None, "r_frac": None,
         "b_values": (5, 20, 50), "c_values": None, "c_step": 1, "trials": 1000, "seed": 0,
         "workers": 1, "out": "c.csv"},
    ),
    "multiround": (
        ["multiround", "--p-res", "0.5", "--out", "m.csv"],
        {"command": "multiround", "n": 100, "b": 5, "pop_size": 1000, "rounds": 10,
         "runs": 200, "p_res": 0.5, "policies": ("csm-star", "rand"), "seed": 0,
         "out": "m.csv"},
    ),
    "failure": (
        ["failure", "--n", "10", "--b", "2", "--r", "1", "--q", "0.6"],
        {"command": "failure", "n": 10, "b": 2, "r": 1, "q": 0.6, "c": None, "policy": "csm",
         "trials": 10000, "seed": 0, "workers": 1, "out": None},
    ),
}

# small runs of the six file-writing subcommands, without --out
FILE_RUNS = {
    "simulate": ["simulate", "--n", "10", "--b", "2", "--c", "3", "--trials", "5"],
    "heatmap": ["heatmap", "--n", "6", "--b-values", "2", "--c-values", "0,3",
                "--trials", "5"],
    "cutoff-table": ["cutoff-table", "--n-values", "10", "--b-values", "2"],
    "cutoff-curves": ["cutoff-curves", "--n", "6", "--b-values", "2", "--c-values", "0,3",
                      "--trials", "5"],
    "multiround": ["multiround", "--n", "10", "--b", "2", "--pop-size", "30",
                   "--rounds", "2", "--runs", "2", "--p-res", "0.5"],
    "failure": ["failure", "--n", "10", "--b", "2", "--r", "1", "--q", "0.6", "--c", "3",
                "--trials", "5"],
}


class TestRunProtocol:
    @pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
    def test_parsed_defaults(self, command):
        argv, expected = PARSED_DEFAULTS[command]
        flags = vars(build_parser().parse_args(argv))
        assert callable(flags.pop("func"))
        assert flags == expected

    @pytest.mark.parametrize("command", sorted(FILE_RUNS))
    def test_one_manifest_per_file_run(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "run" / "out.csv"
        assert run_cli(FILE_RUNS[command] + ["--out", str(out)]) == 0
        manifests = sorted(tmp_path.rglob("*.manifest.json"))
        assert manifests == [tmp_path / "run" / "out.csv.manifest.json"]
        manifest = json.loads(manifests[0].read_text())
        assert set(manifest) == {"flags", "seed", "version", "wall_time_s"}
        assert set(manifest["flags"]) == set(PARSED_DEFAULTS[command][1])
        assert manifest["seed"] == manifest["flags"].get("seed")

    @pytest.mark.parametrize("command", ["simulate", "failure"])
    def test_no_manifest_without_out(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(FILE_RUNS[command]) == 0
        assert capsys.readouterr().out != ""
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("command", sorted(FILE_RUNS))
    def test_no_manifest_on_domain_error(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = ["--r-values", "-1"] if command == "cutoff-table" else ["--n", "1"]
        assert run_cli(FILE_RUNS[command] + bad + ["--out", str(tmp_path / "out.csv")]) == 2
        assert list(tmp_path.rglob("*.manifest.json")) == []



class TestRejectsBelowOnePosition:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--n", "10", "--b", "0"],
        ["translate", "--n", "10", "--b", "0", "--q", "0.7"],
    ], ids=lambda argv: argv[0])
    def test_printing_commands(self, argv, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["cutoff-table", "--n-values", "10", "--b-values", "0"],
        ["heatmap", "--n", "10", "--b-values", "-3", "--c-values", "0,5", "--trials", "5"],
        ["heatmap", "--n", "10", "--b-values", "0", "--c-values", "0,5", "--trials", "5"],
    ], ids=["cutoff-table", "heatmap-negative", "heatmap-zero"])
    def test_file_commands(self, argv, tmp_path, capsys):
        assert run_cli(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert "seeds" not in capsys.readouterr().err


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, seqselect.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(seqselect.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "False"


def exit_code(argv):
    """main's return value, or the code of the SystemExit an argparse error raises."""
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code


class TestSweepSpec:
    def test_r_frac_outside_unit_interval_exit_code(self, tmp_path, capsys):
        for command in ("heatmap", "cutoff-curves"):
            for frac in ("1.5", "-0.1", "nan"):
                argv = [command, "--n", "12", "--b-values", "3", "--c-values", "0,6",
                        "--trials", "5", "--r-frac", frac, "--out", str(tmp_path / "x.csv")]
                assert run_cli(argv) == 2
                assert "--r-frac must lie in [0, 1]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_r_frac_rounds_per_b(self, tmp_path):
        # round(0.5 * b) for b = 3, 5, 20 is 2, 2, 10 (ties go to the even count)
        def heatmap(name, b_values, r_flags):
            out = tmp_path / f"{name}.csv"
            argv = ["heatmap", "--n", "24", "--b-values", b_values, "--c-values", "0,12",
                    "--trials", "5", "--seed", "3", "--out", str(out)] + r_flags
            assert run_cli(argv) == 0
            cutoffs = out.with_name(f"{name}_cutoffs.csv")
            return out.read_text().splitlines(), cutoffs.read_text().splitlines()

        frac = heatmap("frac", "3,5,20", ["--r-frac", "0.5"])
        small = heatmap("small", "3,5", ["--r", "2"])
        large = heatmap("large", "20", ["--r", "10"])
        for got, low, high in zip(frac, small, large):
            assert got == low + high[1:]


class TestCutoffCurvesRows:
    def test_one_row_per_q_and_b(self, tmp_path):
        sweep = ["--n", "12", "--b-values", "2,3", "--c-values", "0,6,12", "--r-frac", "0.5",
                 "--trials", "5", "--seed", "4"]
        out = tmp_path / "curves.csv"
        assert run_cli(["cutoff-curves", "--q-values", "0.5,0.75"] + sweep
                       + ["--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "q,b,c_star_sim,c_star_analytic"
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["0.500000", "2"], ["0.500000", "3"], ["0.750000", "2"], ["0.750000", "3"]
        ]
        # each quality's rows are the paths of the csm heatmap at that quality
        for q, own in (("0.5", rows[1:3]), ("0.75", rows[3:5])):
            hm = tmp_path / f"h{q}.csv"
            assert run_cli(["heatmap", "--q", q, "--policy", "csm"] + sweep
                           + ["--out", str(hm)]) == 0
            paths = hm.with_name(hm.stem + "_cutoffs.csv").read_text().splitlines()
            assert [row.split(",", 1)[1] for row in own] == paths[1:]


class TestEmptyLists:
    @pytest.mark.parametrize("argv", [
        ["heatmap", "--n", "6", "--b-values", "2", "--c-values", ",", "--trials", "5"],
        ["heatmap", "--n", "6", "--b-values", ",", "--c-values", "0,3", "--trials", "5"],
        ["cutoff-curves", "--n", "6", "--q-values", ",", "--b-values", "2",
         "--c-values", "0,3", "--trials", "5"],
        ["cutoff-table", "--n-values", "10", "--b-values", ","],
        ["cutoff-table", "--n-values", "3,4", "--b-values", "5,6"],
        ["cutoff-table", "--n-values", "10", "--b-values", "2,3", "--r-values", "4,5"],
    ], ids=["heatmap-c", "heatmap-b", "cutoff-curves-q", "cutoff-table-b",
            "cutoff-table-n-below-b", "cutoff-table-r-above-b"])
    def test_exit_code_and_no_file(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert exit_code(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""


class TestRepeatedValues:
    @pytest.mark.parametrize("argv", [
        ["heatmap", "--n", "12", "--b-values", "3,3", "--c-values", "0,6", "--trials", "5"],
        ["heatmap", "--n", "12", "--b-values", "3", "--c-values", "0,6,6", "--trials", "5"],
        ["cutoff-curves", "--n", "12", "--q-values", "0.5,0.5", "--b-values", "3",
         "--c-values", "0,6", "--trials", "5"],
        ["cutoff-table", "--n-values", "20,20", "--b-values", "3"],
        ["cutoff-table", "--n-values", "20", "--b-values", "3", "--r-values", "0,0"],
        ["multiround", "--n", "10", "--b", "2", "--pop-size", "30", "--rounds", "2",
         "--runs", "2", "--p-res", "0.5", "--policies", "rand,csm-0, rand"],
    ], ids=["b-values", "c-values", "q-values", "n-values", "r-values", "policies"])
    def test_exit_code_and_no_file(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert exit_code(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert "must not repeat" in capsys.readouterr().err


class TestCsvLines:
    def test_one_rule_per_field_type(self):
        rows = [(1.5, np.float64(2.0) / 3, 7, np.int64(-4), None, "csm"), (0.0,)]
        assert _csv_lines("a,b,c,d,e,f", rows) == [
            "a,b,c,d,e,f",
            "1.500000,0.666667,7,-4,,csm",
            "0.000000",
        ]

    def test_header_only(self):
        assert _csv_lines("q,b", []) == ["q,b"]
