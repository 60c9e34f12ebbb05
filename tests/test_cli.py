"""CLI surface tests: subcommands, file emission, reproducibility, exit codes."""

import json
from pathlib import Path

import pytest

from seqselect.cli import main


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

    def test_unknown_policy(self, tmp_path):
        assert run_cli(
            ["multiround", "--p-res", "0.5", "--policies", "nope",
             "--out", str(tmp_path / "x.csv")]
        ) == 2


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
