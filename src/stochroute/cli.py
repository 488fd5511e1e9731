"""Command-line front end: generate | solve | vss | plot | suite.

Exit codes: 0 for success / certified optimum, 2 for an uncertified
incumbent (time limit, or an LP that kept failing), 1 for errors. Records
are strict JSON: a bound or gap that is not finite (a solve stopped before
any node closed) is written as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bnc, recourse
from .instance import (GenerationConfig, generate_instance, load_instance,
                       save_instance)
from .plotting import render_svg
from .tsplib import parse_tsplib

SUITE_GRID = [(1, 0)] + [(n, f) for n in (2, 3, 4, 5) for f in (1, 3, 5)]


def _range_pair(text):
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


def _add_gen_flags(p):
    p.add_argument("--scenarios", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--service-range", type=_range_pair, default=(5.0, 15.0),
                   metavar="LO:HI")
    p.add_argument("--tau-bar-offset", type=_range_pair, default=(-3.0, 3.0),
                   metavar="LO:HI")
    p.add_argument("--gamma", type=float, default=1000.0)


def _add_solver_flags(p):
    p.add_argument("--time-limit", type=float, default=3600.0)
    p.add_argument("--gap", type=float, default=1e-6)
    p.add_argument("--node-log", type=int, default=0)


def _solver_params(args) -> bnc.SolveParams:
    return bnc.SolveParams(
        time_limit_s=args.time_limit, rel_gap=args.gap, node_log=args.node_log,
    )


def _config_from(args, base_name) -> GenerationConfig:
    return GenerationConfig(
        service_range=args.service_range, tau_bar_offset=args.tau_bar_offset,
        gamma=args.gamma, base_name=base_name,
    )


def _generate_one(coords, n, f, args, base_name, out_dir: Path) -> Path:
    inst = generate_instance(coords, n, f, args.scenarios, args.seed,
                             _config_from(args, base_name))
    path = out_dir / f"{inst.name}.json"
    path.write_text(save_instance(inst))
    return path


def cmd_generate(args) -> int:
    coords = [(x, y) for _, x, y in parse_tsplib(Path(args.tsplib).read_text())]
    base_name = Path(args.tsplib).stem
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.suite:
        for n, f in SUITE_GRID:
            print(_generate_one(coords, n, f, args, base_name, out_dir))
    else:
        print(_generate_one(coords, args.n, args.f, args, base_name, out_dir))
    return 0


def _dumps(record) -> str:
    return json.dumps(record, indent=1, allow_nan=False)


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def _solution_record(instance, solution, mode):
    return {
        "instance": instance.name,
        "mode": mode,
        "objective": solution.objective,
        "first_stage_cost": solution.travel,
        "expected_penalty": solution.objective - solution.travel,
        "gap": _finite_or_none(solution.gap),
        "bound": _finite_or_none(solution.bound),
        "status": solution.status,
        "nodes": solution.stats.get("nodes"),
        "cuts_added": solution.stats.get("cuts_added"),
        "lp_solves": solution.stats.get("lp_solves"),
        "lp_failures": solution.stats.get("lp_failures"),
        "wall_time_s": solution.stats.get("wall_time_s"),
        "tours": [list(map(int, t)) for t in solution.tours],
        "assignment": [
            [int(round(v)) for v in row] for row in solution.assignment
        ],
    }


def cmd_solve(args) -> int:
    instance = load_instance(Path(args.instance).read_text())
    solution = bnc.solve(instance, _solver_params(args), model_kind=args.mode)
    record = _solution_record(instance, solution, args.mode)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{instance.name}.{args.mode}.solution.json"
    out_path.write_text(_dumps(record))
    print(_dumps({k: record[k] for k in (
        "instance", "mode", "objective", "first_stage_cost",
        "expected_penalty", "gap", "status", "nodes", "cuts_added",
        "wall_time_s")}))
    print(f"record written to {out_path}")
    return 0 if solution.certified else 2


def _vss_row(report, instance_name):
    return {
        "instance": instance_name,
        "d_star": report.d_star,
        "s_star": report.s_star,
        "vss": report.vss,
        "evp_objective": report.evp_objective,
        "certified": report.certified,
        "stochastic_time_s": report.stochastic_solution.stats.get("wall_time_s"),
        "evp_time_s": report.evp_solution.stats.get("wall_time_s"),
    }


def _append_vss_tables(out_dir: Path, rows):
    csv_path = out_dir / "vss_table.csv"
    md_path = out_dir / "vss_table.md"
    header = "instance,D_star,S_star,VSS\n"
    existing = csv_path.read_text() if csv_path.exists() else header
    for r in rows:
        existing += (f"{r['instance']},{r['d_star']:.2f},"
                     f"{r['s_star']:.2f},{r['vss']:.2f}\n")
    csv_path.write_text(existing)
    lines = existing.strip().splitlines()
    md = ["| instance | D* | S* | VSS |", "| --- | --- | --- | --- |"]
    for line in lines[1:]:
        md.append("| " + " | ".join(line.split(",")) + " |")
    md_path.write_text("\n".join(md) + "\n")
    return csv_path, md_path


def cmd_vss(args) -> int:
    instance = load_instance(Path(args.instance).read_text())
    report = recourse.compute_vss(instance, _solver_params(args))
    row = _vss_row(report, instance.name)
    row["extra_time_s"] = (row["stochastic_time_s"] or 0.0) - (row["evp_time_s"] or 0.0)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{instance.name}.vss.json").write_text(_dumps(row))
    _append_vss_tables(out_dir, [row])
    print(_dumps(row))
    return 0 if report.certified else 2


def cmd_plot(args) -> int:
    instance = load_instance(Path(args.instance).read_text())
    record = json.loads(Path(args.solution).read_text())
    if record.get("instance") != instance.name:
        print(f"solution record is for {record.get('instance')!r}, "
              f"not {instance.name!r}", file=sys.stderr)
        return 1
    svg = render_svg(instance, record["tours"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{instance.name}.{record.get('mode', 'tour')}.svg"
    out_path.write_text(svg)
    print(out_path)
    return 0


def cmd_suite(args) -> int:
    coords = [(x, y) for _, x, y in parse_tsplib(Path(args.tsplib).read_text())]
    base_name = Path(args.tsplib).stem
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = _solver_params(args)
    rows = []
    all_certified = True
    for n, f in SUITE_GRID:
        inst = generate_instance(coords, n, f, args.scenarios, args.seed,
                                 _config_from(args, base_name))
        (out_dir / f"{inst.name}.json").write_text(save_instance(inst))
        report = recourse.compute_vss(inst, params)
        record = _solution_record(inst, report.stochastic_solution, "stochastic")
        (out_dir / f"{inst.name}.stochastic.solution.json").write_text(
            _dumps(record))
        evp_record = _solution_record(inst, report.evp_solution, "evp")
        (out_dir / f"{inst.name}.evp.solution.json").write_text(
            _dumps(evp_record))
        row = _vss_row(report, inst.name)
        rows.append(row)
        all_certified = all_certified and report.certified
        print(f"{inst.name}: S*={row['s_star']:.1f} D*={row['d_star']:.1f} "
              f"VSS={row['vss']:.1f} cuts={record['cuts_added']} "
              f"time={row['stochastic_time_s']:.1f}s"
              f"{'' if report.certified else ' (NOT certified)'}")
    _append_vss_tables(out_dir, rows)
    (out_dir / "suite.json").write_text(_dumps(rows))
    return 0 if all_certified else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochroute",
        description="Exact solver for multi-depot Dubins-vehicle routing "
                    "with random service times",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build instance files from TSPLIB")
    p.add_argument("tsplib")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--suite", action="store_true",
                   help="emit the full 13-instance grid")
    _add_gen_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("instance")
    p.add_argument("--mode", choices=("stochastic", "evp"),
                   default="stochastic")
    _add_solver_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("vss", help="value of the stochastic solution")
    p.add_argument("instance")
    _add_solver_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_vss)

    p = sub.add_parser("plot", help="render tours to SVG")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("suite", help="generate and solve the full grid")
    p.add_argument("tsplib")
    _add_gen_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
