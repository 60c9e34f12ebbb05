"""Command-line front end.

Every file-emitting subcommand also writes a JSON run manifest
(<output>.manifest.json) carrying the flags, seed, package version and wall
time; identical flags and seed always reproduce the data files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from seqselect import __version__
from seqselect.analytics import (
    analyze_setting,
    cutoff_table_rows,
    translate_cutoff,
)
from seqselect.core import ContractError, DomainError
from seqselect.montecarlo import (
    ExperimentSpec,
    cell_csv_rows,
    cutoff_csv_rows,
    cutoff_curves,
    heatmap_csv_rows,
    regret_heatmap,
    run_cell,
)
from seqselect.multiround import (
    POLICY_NAMES,
    PopulationSpec,
    aggregate_csv_rows,
    compare_policies,
    multiround_csv_rows,
)


def _int_list(text: str):
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


def _float_list(text: str):
    return tuple(float(x) for x in text.split(",") if x.strip() != "")


def _write_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_manifest(out: Path, args: argparse.Namespace, started: float) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "flags": flags,
        "seed": flags.get("seed"),
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
    }
    with open(out.with_suffix(out.suffix + ".manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def cmd_analyze(args) -> int:
    rep = analyze_setting(args.n, args.b, args.r, args.q, c=args.c)
    print(f"n={rep.n} b={rep.b} r={rep.r} q={rep.q}")
    print(f"gamma0 = {rep.gamma_0:.6f}")
    print(f"expected_offline = {rep.e_offline:.6f}")
    if rep.q != 0.5:
        print(f"similar_setting: n_source={rep.n_source} c_source={rep.c_source}")
    label = "c" if rep.cutoff_given else "c_star"
    print(f"{label} = {rep.c_star}")
    print(f"gamma_at_c = {rep.gamma_at_c:.6f}")
    print(f"expected_hires = {rep.e_hires:.6f}")
    print(f"expected_regret = {rep.e_regret:.6f}")
    print(f"expected_regret_per_item = {rep.e_regret_per_item:.6f}")
    return 0


def cmd_translate(args) -> int:
    res = translate_cutoff(args.n, args.b, args.q, args.r)
    print(f"n_source = {res.n_source}")
    print(f"c_star_source = {res.c_source}")
    print(f"c_star_target = {res.c_target}")
    if res.degenerate:
        print("warning: degenerate similar setting (n_source < b); cutoff forced to 0")
    return 0


def cmd_simulate(args) -> int:
    started = time.time()
    stats = run_cell(
        args.n, args.b, args.c, args.q, args.r, args.policy,
        args.trials, args.seed, workers=args.workers,
    )
    lines = list(cell_csv_rows([(args.b, args.c, stats)]))
    if args.format == "json":
        payload = {
            "b": args.b, "c": args.c,
            "mean_regret": round(stats.mean_regret, 6),
            "stderr": round(stats.stderr, 6),
            "mean_hires": round(stats.mean_hires, 6),
            "failure_rate": round(stats.failure_rate, 6),
            "trials": stats.trials,
        }
        lines = [json.dumps(payload, sort_keys=True)]
    if args.out:
        out = Path(args.out)
        _write_lines(out, lines)
        _write_manifest(out, args, started)
    else:
        for line in lines:
            print(line)
    return 0


def cmd_heatmap(args) -> int:
    started = time.time()
    c_values = args.c_values or tuple(range(0, args.n + 1, args.c_step))
    spec = ExperimentSpec(
        n=args.n, b_values=args.b_values, c_values=c_values, q=args.q,
        r_rule=args.r_frac if args.r_frac is not None else args.r,
        policy=args.policy, trials=args.trials, master_seed=args.seed,
    )
    result = regret_heatmap(spec, workers=args.workers)
    out = Path(args.out)
    _write_lines(out, heatmap_csv_rows(result))
    path_lines = ["b,c_star_sim,c_star_analytic"]
    for b in spec.b_values:
        path_lines.append(f"{b},{result.sim_path[b]},{result.analytic_path[b]}")
    _write_lines(out.with_name(out.stem + "_cutoffs" + out.suffix), path_lines)
    _write_manifest(out, args, started)
    return 0


def cmd_cutoff_table(args) -> int:
    started = time.time()
    out = Path(args.out)
    _write_lines(out, cutoff_table_rows(args.n_values, args.b_values, args.r_values))
    _write_manifest(out, args, started)
    return 0


def cmd_cutoff_curves(args) -> int:
    started = time.time()
    c_values = args.c_values or tuple(range(0, args.n + 1, args.c_step))
    rows = cutoff_curves(
        n=args.n,
        r_rule=args.r_frac if args.r_frac is not None else args.r,
        q_list=args.q_values,
        b_values=args.b_values,
        c_values=c_values,
        trials=args.trials,
        master_seed=args.seed,
        workers=args.workers,
    )
    out = Path(args.out)
    _write_lines(out, cutoff_csv_rows(rows))
    _write_manifest(out, args, started)
    return 0


def cmd_multiround(args) -> int:
    started = time.time()
    pop = PopulationSpec(size=args.pop_size, n=args.n, b=args.b)
    policies = tuple(args.policies.split(","))
    for p in policies:
        if p not in POLICY_NAMES:
            raise DomainError(f"unknown policy {p!r}; choose from {','.join(POLICY_NAMES)}")
    curves = compare_policies(pop, args.rounds, args.p_res, policies, args.runs, args.seed)
    out = Path(args.out)
    _write_lines(out, multiround_csv_rows(curves))
    _write_lines(out.with_name(out.stem + "_agg" + out.suffix), aggregate_csv_rows(curves))
    _write_manifest(out, args, started)
    for p in policies:
        final = curves[p].mean_regret[-1]
        print(f"{p}: final-round mean regret = {final:.3f}")
    return 0


def cmd_failure(args) -> int:
    started = time.time()
    c = args.c
    if c is None:
        c = translate_cutoff(args.n, args.b, args.q, args.r).c_target
    stats = run_cell(
        args.n, args.b, c, args.q, args.r, args.policy,
        args.trials, args.seed, workers=args.workers,
    )
    print(f"policy={args.policy} c={c}")
    print(f"failure_rate = {stats.failure_rate:.6f}")
    print(f"mean_regret = {stats.mean_regret:.6f}")
    print(f"mean_hires = {stats.mean_hires:.6f}")
    if args.out:
        out = Path(args.out)
        _write_lines(
            out,
            [
                "policy,c,failure_rate,mean_regret,mean_hires,trials",
                f"{args.policy},{c},{stats.failure_rate:.6f},"
                f"{stats.mean_regret:.6f},{stats.mean_hires:.6f},{stats.trials}",
            ],
        )
        _write_manifest(out, args, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqselect",
        description="Warm-start sequential selection: analytics, simulation, multi-round runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form summary and optimal cutoff")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--c", type=int, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("translate", help="translate the optimal cutoff across qualities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=int, default=0)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("simulate", help="Monte Carlo estimate for one parameter cell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--policy", choices=["csm", "acsm", "mean", "rand"], default="csm")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("heatmap", help="regret heatmap over (b, c) cells")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--r", type=int, default=0, help="absolute resignations per b")
    p.add_argument("--r-frac", type=float, default=None, help="resignations as a fraction of b")
    p.add_argument("--b-values", type=_int_list, default=(5, 20, 50))
    p.add_argument("--c-values", type=_int_list, default=None)
    p.add_argument("--c-step", type=int, default=1)
    p.add_argument("--policy", choices=["csm", "acsm", "mean", "rand"], default="csm")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("cutoff-table", help="analytic optimal-cutoff table over (n, b, r)")
    p.add_argument("--n-values", type=_int_list, required=True)
    p.add_argument("--b-values", type=_int_list, required=True)
    p.add_argument("--r-values", type=_int_list, default=(0,))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cutoff_table)

    p = sub.add_parser(
        "cutoff-curves", help="empirical vs analytic optimal-cutoff curves per quality"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q-values", type=_float_list, default=(0.5,))
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--r-frac", type=float, default=None)
    p.add_argument("--b-values", type=_int_list, default=(5, 20, 50))
    p.add_argument("--c-values", type=_int_list, default=None)
    p.add_argument("--c-step", type=int, default=1)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cutoff_curves)

    p = sub.add_parser("multiround", help="chained rounds over a fixed population")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--b", type=int, default=5)
    p.add_argument("--pop-size", type=int, default=1000)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--p-res", type=float, required=True)
    p.add_argument("--policies", default="csm-star,rand")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_multiround)

    p = sub.add_parser("failure", help="failure rate of a policy at its optimal cutoff")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--policy", choices=["csm", "acsm"], default="csm")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_failure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
