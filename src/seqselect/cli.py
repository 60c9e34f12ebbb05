"""Command-line front end.

Each subcommand returns the path of the data file it wrote, or None when it
wrote none; main then writes a JSON run manifest next to it
(<output>.manifest.json) carrying the flags, seed, package version and wall
time.  Identical flags and seed always reproduce the data files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, astuple
from pathlib import Path
from typing import Optional

from seqselect import __version__
from seqselect.analytics import analyze_setting, cutoff_table, translate_cutoff
from seqselect.core import ContractError, DomainError
from seqselect.montecarlo import ExperimentSpec, regret_heatmap, run_cell
from seqselect.multiround import PopulationSpec, compare_policies
from seqselect.policies import CUTOFF_VARIANTS, VARIANTS

CELL_HEADER = "b,c,mean_regret,stderr,mean_hires,failure_rate,trials"


def _list(text: str, convert) -> tuple:
    values = tuple(convert(x) for x in text.split(",") if x.strip() != "")
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"values must not repeat, got {text!r}")
    return values


def _int_list(text: str):
    return _list(text, int)


def _float_list(text: str):
    return _list(text, float)


def _name_list(text: str):
    return _list(text, str.strip)


def _c_values(args):
    """The swept cutoffs: --c-values, else 0..n in steps of --c-step."""
    if args.c_values is not None:
        return args.c_values
    if args.c_step < 1:
        raise DomainError(f"--c-step must be >= 1, got {args.c_step}")
    return tuple(range(0, args.n + 1, args.c_step))


def _sweep_spec(args, q: float, policy: str) -> ExperimentSpec:
    """The (b, c) sweep of heatmap and cutoff-curves at quality q, with --r or
    round(r_frac * b) resignations per b.  Without either, --r is 0; it is set
    here, not in argparse, because the exclusive group would read an explicit
    "--r 0" as absent."""
    if args.r_frac is None:
        if args.r is None:
            args.r = 0
        r_values = (args.r,) * len(args.b_values)
    elif 0.0 <= args.r_frac <= 1.0:
        r_values = tuple(round(args.r_frac * b) for b in args.b_values)
    else:
        raise DomainError(f"--r-frac must lie in [0, 1], got {args.r_frac}")
    return ExperimentSpec(
        n=args.n, b_values=args.b_values, c_values=_c_values(args), q=q,
        r_values=r_values, policy=policy, trials=args.trials, master_seed=args.seed,
    )


def _add_run_flags(p, trials: int) -> None:
    """--trials, --seed and --workers of a simulating subcommand."""
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)


def _add_sweep_flags(p) -> None:
    """The (b, c, r) grid of heatmap and cutoff-curves."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--r", type=int, default=None,
                       help="absolute resignations per b (default 0)")
    group.add_argument("--r-frac", type=float, default=None,
                       help="resignations as a fraction of b")
    p.add_argument("--b-values", type=_int_list, default=(5, 20, 50))
    p.add_argument("--c-values", type=_int_list, default=None)
    p.add_argument("--c-step", type=int, default=1)


def _csv_lines(header: str, rows) -> list:
    """The one CSV format of every data file: the header line, then one line
    per row, with a float to six decimals, None as an empty field and any
    other value through str.  The lines are built before any file opens, so
    a failing run leaves no file."""
    def field(value) -> str:
        if value is None:
            return ""
        return f"{value:.6f}" if isinstance(value, float) else str(value)

    return [header, *(",".join(map(field, row)) for row in rows)]


def _write_lines(path: Path, lines: list) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
    return path


def _write_manifest(out: Path, args: argparse.Namespace, started: float) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "flags": flags,
        "seed": flags.get("seed"),
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    with open(out.with_suffix(out.suffix + ".manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def cmd_analyze(args) -> None:
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


def cmd_translate(args) -> None:
    res = translate_cutoff(args.n, args.b, args.q, args.r)
    print(f"n_source = {res.n_source}")
    print(f"c_star_source = {res.c_source}")
    print(f"c_star_target = {res.c_target}")
    if res.degenerate:
        print("warning: degenerate similar setting (n_source < b); cutoff forced to 0")


def cmd_simulate(args) -> Optional[Path]:
    stats = run_cell(
        args.n, args.b, args.c, args.q, args.r, args.policy,
        args.trials, args.seed, workers=args.workers,
    )
    lines = _csv_lines(CELL_HEADER, [(args.b, args.c, *astuple(stats))])
    if args.format == "json":
        payload = {k: round(v, 6) for k, v in asdict(stats).items()}  # trials stays an int
        lines = [json.dumps({"b": args.b, "c": args.c, **payload}, sort_keys=True)]
    if args.out:
        return _write_lines(Path(args.out), lines)
    print("\n".join(lines))
    return None


def cmd_heatmap(args) -> Path:
    spec = _sweep_spec(args, args.q, args.policy)
    result = regret_heatmap(spec, workers=args.workers)
    cells = [(b, c, *astuple(st)) for (b, c), st in sorted(result.cells.items())]
    out = _write_lines(Path(args.out), _csv_lines(CELL_HEADER, cells))
    paths = [(b, result.sim_path[b], result.analytic_path[b]) for b in spec.b_values]
    _write_lines(out.with_name(out.stem + "_cutoffs" + out.suffix),
                 _csv_lines("b,c_star_sim,c_star_analytic", paths))
    return out


def cmd_cutoff_table(args) -> Path:
    rows = cutoff_table(args.n_values, args.b_values, args.r_values)
    return _write_lines(Path(args.out), _csv_lines("n,b,r,c_star,expected_regret", rows))


def cmd_cutoff_curves(args) -> Path:
    """The csm heatmap's two optimal-cutoff paths, one sweep per quality."""
    rows = []
    for q in args.q_values:
        spec = _sweep_spec(args, q, "csm")
        result = regret_heatmap(spec, workers=args.workers)
        rows.extend((q, b, result.sim_path[b], result.analytic_path[b]) for b in spec.b_values)
    return _write_lines(Path(args.out), _csv_lines("q,b,c_star_sim,c_star_analytic", rows))


def cmd_multiround(args) -> Path:
    pop = PopulationSpec(size=args.pop_size, n=args.n, b=args.b)
    curves = compare_policies(pop, args.rounds, args.p_res, args.policies, args.runs, args.seed)
    per_run = [(run, rnd, p, *rest)
               for p, curve in curves.items() for run, rnd, *rest in curve.per_run]
    out = _write_lines(Path(args.out),
                       _csv_lines("run,round,policy,regret,hires,failures,q,c_used", per_run))
    agg = [(k, p, *ci) for p, curve in curves.items()
           for k, ci in enumerate(zip(curve.mean_regret, curve.ci95_low, curve.ci95_high), 1)]
    _write_lines(out.with_name(out.stem + "_agg" + out.suffix),
                 _csv_lines("round,policy,mean_regret,ci95_low,ci95_high", agg))
    for p in args.policies:
        final = curves[p].mean_regret[-1]
        print(f"{p}: final-round mean regret = {final:.3f}")
    return out


def cmd_failure(args) -> Optional[Path]:
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
    if not args.out:
        return None
    row = (args.policy, c, stats.failure_rate, stats.mean_regret, stats.mean_hires, stats.trials)
    return _write_lines(Path(args.out), _csv_lines(
        "policy,c,failure_rate,mean_regret,mean_hires,trials", [row]))


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
    p.add_argument("--policy", choices=VARIANTS, default="csm")
    _add_run_flags(p, trials=1000)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("heatmap", help="regret heatmap over (b, c) cells")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=0.5)
    _add_sweep_flags(p)
    p.add_argument("--policy", choices=CUTOFF_VARIANTS, default="csm")
    _add_run_flags(p, trials=1000)
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
    _add_sweep_flags(p)
    _add_run_flags(p, trials=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cutoff_curves)

    p = sub.add_parser("multiround", help="chained rounds over a fixed population")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--b", type=int, default=5)
    p.add_argument("--pop-size", type=int, default=1000)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--p-res", type=float, required=True)
    p.add_argument("--policies", type=_name_list, default=("csm-star", "rand"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_multiround)

    p = sub.add_parser("failure", help="failure rate of a policy at its optimal cutoff")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--policy", choices=CUTOFF_VARIANTS, default="csm")
    _add_run_flags(p, trials=10000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_failure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        out = args.func(args)
        if out is not None:
            _write_manifest(out, args, started)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
