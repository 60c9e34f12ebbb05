"""Pinned outputs of small CLI runs.

Each case runs one subcommand in-process and compares SHA-256 digests: of
every data file it writes (manifests are left out, they carry the wall time),
or of its stdout for analyze and translate.  A change that keeps the numbers
keeps these digests; a change that moves an output on purpose must update the
digest here and say why in CHANGES.md.
"""

import hashlib

import pytest

from seqselect.cli import main

ALL_POLICIES = "csm-star,csm-e,csm-0,acsm-star,mean,rand"

# name -> (argv without --out, data files written next to --out <tmp>/out.csv)
FILE_CASES = {
    "simulate-csm": (
        ["simulate", "--n", "20", "--b", "3", "--c", "5", "--q", "0.5", "--r", "1",
         "--trials", "50", "--seed", "4"],
        ["out.csv"],
    ),
    "simulate-acsm-json": (
        ["simulate", "--n", "20", "--b", "3", "--c", "6", "--q", "0.75", "--r", "1",
         "--policy", "acsm", "--trials", "40", "--seed", "2", "--format", "json"],
        ["out.csv"],
    ),
    "simulate-mean": (
        ["simulate", "--n", "15", "--b", "2", "--c", "3", "--r", "1", "--policy", "mean",
         "--trials", "30", "--seed", "1"],
        ["out.csv"],
    ),
    "simulate-rand": (
        ["simulate", "--n", "15", "--b", "2", "--c", "3", "--policy", "rand",
         "--trials", "30", "--seed", "1"],
        ["out.csv"],
    ),
    "heatmap-medium": (
        ["heatmap", "--n", "12", "--q", "0.5", "--r-frac", "0.5", "--b-values", "2,3",
         "--c-values", "0,4,8,12", "--trials", "30", "--seed", "7"],
        ["out.csv", "out_cutoffs.csv"],
    ),
    "heatmap-acsm-q075": (
        ["heatmap", "--n", "16", "--q", "0.75", "--r", "1", "--b-values", "2,4",
         "--c-step", "4", "--policy", "acsm", "--trials", "20", "--seed", "5"],
        ["out.csv", "out_cutoffs.csv"],
    ),
    "heatmap-degenerate-q099": (
        ["heatmap", "--n", "12", "--q", "0.99", "--r", "0", "--b-values", "3",
         "--c-values", "0,6", "--trials", "20", "--seed", "1"],
        ["out.csv", "out_cutoffs.csv"],
    ),
    "cutoff-curves": (
        ["cutoff-curves", "--n", "12", "--q-values", "0.5,0.75", "--r-frac", "0.5",
         "--b-values", "2,3", "--c-values", "0,4,8,12", "--trials", "25", "--seed", "2"],
        ["out.csv"],
    ),
    "cutoff-table": (
        ["cutoff-table", "--n-values", "20,25", "--b-values", "3,5", "--r-values", "0,3,5"],
        ["out.csv"],
    ),
    # the grid of the analytic-table benchmark workload
    "cutoff-table-bench": (
        ["cutoff-table", "--n-values", "100,200,300,400", "--b-values", "5,20,50",
         "--r-values", "0,5"],
        ["out.csv"],
    ),
    "multiround-half": (
        ["multiround", "--n", "20", "--b", "3", "--pop-size", "60", "--rounds", "3",
         "--runs", "4", "--p-res", "0.5", "--policies", ALL_POLICIES, "--seed", "3"],
        ["out.csv", "out_agg.csv"],
    ),
    "multiround-none": (
        ["multiround", "--n", "20", "--b", "3", "--pop-size", "60", "--rounds", "4",
         "--runs", "3", "--p-res", "0.0", "--policies", ALL_POLICIES, "--seed", "1"],
        ["out.csv", "out_agg.csv"],
    ),
    "multiround-all": (
        ["multiround", "--n", "20", "--b", "3", "--pop-size", "60", "--rounds", "3",
         "--runs", "3", "--p-res", "1.0", "--policies", ALL_POLICIES, "--seed", "2"],
        ["out.csv", "out_agg.csv"],
    ),
    # pop-size = n + b: every member not employed is sampled in every round
    "multiround-tight": (
        ["multiround", "--n", "20", "--b", "3", "--pop-size", "23", "--rounds", "4",
         "--runs", "3", "--p-res", "0.5", "--policies", ALL_POLICIES, "--seed", "6"],
        ["out.csv", "out_agg.csv"],
    ),
    "failure-translated": (
        ["failure", "--n", "30", "--b", "5", "--r", "5", "--q", "0.6",
         "--trials", "200", "--seed", "5"],
        ["out.csv"],
    ),
    "failure-medium": (
        ["failure", "--n", "30", "--b", "5", "--r", "2", "--q", "0.5",
         "--trials", "200", "--seed", "5"],
        ["out.csv"],
    ),
    "failure-acsm": (
        ["failure", "--n", "30", "--b", "5", "--r", "5", "--q", "0.6", "--c", "10",
         "--policy", "acsm", "--trials", "100", "--seed", "5"],
        ["out.csv"],
    ),
}


def _stdout_cases():
    """analyze (optimal and given cutoff) and translate at three qualities."""
    cases = {}
    for q in ("0.5", "0.75", "0.99"):
        for b, r in (("5", "0"), ("5", "5"), ("15", "2")):
            base = ["--n", "100", "--b", b, "--r", r, "--q", q]
            cases[f"analyze-b{b}r{r}-q{q}"] = ["analyze", *base]
            cases[f"analyze-b{b}r{r}-c30-q{q}"] = ["analyze", *base, "--c", "30"]
            cases[f"translate-b{b}r{r}-q{q}"] = ["translate", *base]
    return cases


STDOUT_CASES = _stdout_cases()

# recorded before the four quality-to-cutoff paths were merged into resolve_cutoff
GOLDEN = {
    "analyze-b15r2-c30-q0.5":
        "26c9f96ba3aa83ae490b94de464381ec4a34a3b078e36e9b93e8a50552b3a04f",
    "analyze-b15r2-c30-q0.75":
        "6199f38b1197ffd62043aac0fb40f9995aee03bac040317bb2217fb59558fdfc",
    "analyze-b15r2-c30-q0.99":
        "9b13772164d7558c6e378299ddb5c3f074014b02c722d503c9c8cdbf77322d9f",
    "analyze-b15r2-q0.5":
        "adc1e8a814e0959614144b88617b922d34aa53cf13ecf56fbd5a55578bf2dfdc",
    "analyze-b15r2-q0.75":
        "3819f7f3b46ea897398ede84f74314ab71cf33e1495f2daa47e0c4a5228b34a8",
    "analyze-b15r2-q0.99":
        "ee4e5ec853501c945272845b1d1231c3247d56b322fbdd5671ba5a4734188c58",
    "analyze-b5r0-c30-q0.5":
        "34a8ad6beb911ae9efca6df23ef7c86918675111f5932b0bfdf5eac846a5b390",
    "analyze-b5r0-c30-q0.75":
        "12a6ef7f51c9c0a483350ef7acb863f0f5c42acb8d5e73184ef23162fd333072",
    "analyze-b5r0-c30-q0.99":
        "7d1af2bef1f6e2d84a96389761068bb569e6503579653f085c7485d575c59870",
    "analyze-b5r0-q0.5":
        "fc8b90e6809dca17b1ec5129aa77c654f6c74c88eb5e725a42f166e13bbf33ad",
    "analyze-b5r0-q0.75":
        "6d4e0fb7496a28895c924405066b2270fc4e8ae24d4cd7a37082f1e1442e2545",
    "analyze-b5r0-q0.99":
        "b31f83f81d96448ae6059ba31492b71e1d8c713aea5b8602f20089e8032ab644",
    "analyze-b5r5-c30-q0.5":
        "03462a6a763424c60427cc06e38710f19ba79542949047c4aa527818895bd3a2",
    "analyze-b5r5-c30-q0.75":
        "6e0653e336b79b86e5cba4c7f636dc86fc5fdbad005def8d2f4e3cc624c1aa34",
    "analyze-b5r5-c30-q0.99":
        "a7ab11b5a26a31327855bf469e0c505f674ca09e540f5eaba67c62852804472d",
    "analyze-b5r5-q0.5":
        "fd4452ba3ee4b18b3e1db9c7daf692c09af2a4ce69327015b8c62b5b0f97140b",
    "analyze-b5r5-q0.75":
        "b86ea62c4c296799f63d396210ea3a319f1044e7f8dddfeded105a8a6978e154",
    "analyze-b5r5-q0.99":
        "4b4a9b1f8568624676a97f7b099a624fa9641d146d9c09244ad1966bb36eba9c",
    "cutoff-curves:out.csv":
        "7b61cbc197c36e99bb5170f0df684f0ff7d179b0d3a643320a347289cc8a6073",
    "cutoff-table:out.csv":
        "460d982554f758d281a53ee90a80e9d76deeaf3deab2a196a2d64f62ae3442b0",
    "cutoff-table-bench:out.csv":
        "228ff87df51171de62f7b9ccd0555fac10bb40ff39eb29516243e604a073d5e3",
    "failure-acsm:out.csv":
        "2a5c310e1522cfd9742e3e0cc23682b60a5abbab5cb463758a57ba178d43322f",
    "failure-medium:out.csv":
        "076eb50c064d091a1d8dd2a0b66e157097d51cdc3d5777329944e0c94e41ad89",
    "failure-translated:out.csv":
        "e7aede0b77e1ff1a40f927ac629c6c8c2e00c14c390a3027a293782e951f4c1d",
    "heatmap-acsm-q075:out.csv":
        "ddeda7d59b066ba9a79692a33f7c57af4fe2d31cc0f7645558c18e5aa7fd8b37",
    "heatmap-acsm-q075:out_cutoffs.csv":
        "022af940cb47a8eb30ca9158a870720d035138a62d1090957f75178a44baf699",
    "heatmap-degenerate-q099:out.csv":
        "c9eadc0507883b12f253000d94288c54db9cd486cbeab895e90e2c02fc210501",
    "heatmap-degenerate-q099:out_cutoffs.csv":
        "7d31e75b0a930bae9ad9371e233868ad9dea0434b837f19ca7383646596fe817",
    "heatmap-medium:out.csv":
        "3b42f806c08a60db262206ae7293e52ac6b330b4ecdee17c0236e868cf686b87",
    "heatmap-medium:out_cutoffs.csv":
        "97dd51d8be2df67db4f8c978494a014bf65888b430e41987163052a7c54a3464",
    "multiround-all:out.csv":
        "17eea796844f319e1c0d2e82389dce71bd2630b2eeebb3d7b1f17712c79a444c",
    "multiround-all:out_agg.csv":
        "1a17ccd1951d23576003d63b48d9914e8b27e7cff1211d53f45f4536c37d6d49",
    "multiround-half:out.csv":
        "8dba0ea45e3a67a6d252ba2ad1249fb0dd99465b069e115b62584fcde7dbec1e",
    "multiround-half:out_agg.csv":
        "3afe6e2499b24542b432de4ac91476f0b87a88c28b220f73c7d39c8fb09f2177",
    "multiround-none:out.csv":
        "adcb76150320e4f7817e74e1771e1e8e2d778156c571dde8c934983cd860b14a",
    "multiround-none:out_agg.csv":
        "e2319ee674908dd4457a485ec70aac083608520b9df3b9a4982bc3901792b56f",
    "multiround-tight:out.csv":
        "64f8285a13627d4f7f9d8204ac3ee60c7ba3dd9bddf1cdeb908ba6dd8e086fb9",
    "multiround-tight:out_agg.csv":
        "660b7444eff357c117007285fd3d7761512562d547ebdb6821721cda694342fe",
    "simulate-acsm-json:out.csv":
        "91f36d53911bd99d09961b50ca0891c56fba153c3938fbd2c4e12b7db174a477",
    "simulate-csm:out.csv":
        "04f39721f55afc20ba4596582790e72bc83b5ebb131a344957234a0056e645d4",
    "simulate-mean:out.csv":
        "791f204c098782c040d8b539f531ba7e86492e1ca86dc1f0898df7d8055b292b",
    "simulate-rand:out.csv":
        "a7430fecba079aa746597583f4ebc197e1270fa55759596eec117aaee027c803",
    "translate-b15r2-q0.5":
        "2c98a89dc09ad636180af7dd22ad27fe6fc855c2552f1c5a18aae503400fa84e",
    "translate-b15r2-q0.75":
        "baba139b40a214c93780b2a7a492aa369a312966707b2064a2f2b8f9642a15ce",
    "translate-b15r2-q0.99":
        "603e912959c0c395c930416b498475bbbb15bf324b02442dc0d9896340ff9513",
    "translate-b5r0-q0.5":
        "50de31728c217effdeb2e464d1b822017e3aef58136102215dc68fe099ce7ab2",
    "translate-b5r0-q0.75":
        "00150e8b667431b18bd6f34cabc8cb7d17b1c553ce420edbffcfad2340bda6fc",
    "translate-b5r0-q0.99":
        "d61a1f7de2eeefd29cfb3b675342aa51b3d92e7697dc88a6e511ce8f31ef4061",
    "translate-b5r5-q0.5":
        "c229793b6d177a7d07e437e4e27adff1a9f6850be90dfb7f350da7a1db367775",
    "translate-b5r5-q0.75":
        "76ff468b9b3e1579af9ed0137dd3a61ecac14e50cb0a4f00b98bba7cf29ef48c",
    "translate-b5r5-q0.99":
        "d61a1f7de2eeefd29cfb3b675342aa51b3d92e7697dc88a6e511ce8f31ef4061",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(name, tmp_path):
    argv, files = FILE_CASES[name]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    return {f"{name}:{f}": _sha((tmp_path / f).read_bytes()) for f in files}


def stdout_digest(name, capsys):
    assert main(STDOUT_CASES[name]) == 0
    return {name: _sha(capsys.readouterr().out.encode())}


@pytest.mark.filterwarnings("ignore:degenerate similar setting")
@pytest.mark.parametrize("name", sorted(FILE_CASES))
def test_data_files(name, tmp_path, capsys):
    got = file_digests(name, tmp_path)
    assert got == {key: GOLDEN[key] for key in got}


@pytest.mark.filterwarnings("ignore:degenerate similar setting")
@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout(name, capsys):
    got = stdout_digest(name, capsys)
    assert got == {name: GOLDEN[name]}
