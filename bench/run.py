"""Solver benchmark: complete VSS studies (`recourse.compute_vss`), timed.

    python3 bench/run.py --workload bays29-vss --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1

Workloads (see workloads.py for how the seed shapes their inputs):

  bays29-vss    bays29 cells (2,1), (3,1), (4,1) at 100 scenarios. LP-bound:
                most time is in LpWorkspace.solve, the rest in fractional
                separation; warm-start LP, max-flow and branching changes show
                here.
  bays29-s1000  bays29 cell (2,1) at 1000 scenarios: few, large LPs with 2000
                service rows. A master LP that stops growing with the scenario
                count shows here, and so does any cost a change aimed at
                bays29-vss adds to large LPs.
  small-vss     30 small random studies (4-8 targets, 1-3 vehicles, 1-10
                scenarios), the shapes of acceptance criterion 1. Fixed
                per-solve costs dominate: Dubins matrices, model build, tiny
                LPs. Separation is a small share, so a separation change
                should leave it unchanged.

One process runs one workload as a closed loop with a single caller: studies
run back to back, and the run makes the whole number of passes over the
workload (at least one) that ends closest to --seconds. Every study is
checked by checks.py; a failed check counts against its solve in `failed`.

--trace 0 reports the end-to-end metrics, medians over passes:
  total_s       wall time of all studies of a pass
  stochastic_s  summed wall time of the stochastic bnc.solve calls of a pass
  evp_s         summed wall time of the EVP bnc.solve calls of a pass
                (a timer around bnc.solve is the only hook in these passes)
  setup_s       script start to ready to time: imports, instance generation,
                references and one warm-up study; median of this process's
                set-up and two more in child processes
  peak_rss_mb   peak resident set size of this process

--trace 1 alternates untraced and traced passes and reports per-layer
metrics (tracing.py) from the traced ones, `instance.generate.s` from
set-up, and `trace.overhead`: the median over pairs of traced over untraced
total_s, minus 1.
It also checks that traced counts equal the solver's own stats.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record, with the environment and,
when traced, every span, is written to bench/out/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3

WORKLOADS = ("bays29-vss", "bays29-s1000", "small-vss")
END_TO_END = {"total_s": "s", "stochastic_s": "s", "evp_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def import_solver():
    """Import stochroute from this checkout's sources, never from elsewhere."""
    package = SRC / "stochroute"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: solver sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import stochroute
    if Path(stochroute.__file__).resolve().parent != package:
        sys.exit(f"error: imported stochroute from {stochroute.__file__}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them one after another, "
                        "each in its own process")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit")
    return p.parse_args(argv)


def setup(workload):
    """(problems, references, generation seconds), after one warm-up study."""
    import workloads
    from stochroute import SolveParams, recourse

    t = time.perf_counter()
    studies = workloads.build(workload)
    generate_s = time.perf_counter() - t
    refs = json.loads((BENCH / "references.json").read_text())[workload]
    recourse.compute_vss(workloads.warmup_instance(), SolveParams())
    return studies, refs, generate_s


def child_setup_seconds(args):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(out.stdout.split()[-1])


def run_pass(studies, refs, tracer):
    """Every study once under `tracer`, then the correctness gate."""
    from stochroute import SolveParams, recourse
    from tracing import solve_seconds
    import checks

    lo = len(tracer.spans)
    total = 0.0
    reports = []
    with tracer.installed():
        for key, instance in studies:
            tracer.trace += 1
            t = time.perf_counter()
            try:
                report = recourse.compute_vss(instance, SolveParams())
            except Exception:  # a crashed study is a failed one; keep going
                traceback.print_exc()
                report = None
            total += time.perf_counter() - t
            reports.append(report)
    hi = len(tracer.spans)

    failed = 0
    stats = Counter()
    rows = []
    for (key, instance), report in zip(studies, reports):
        if report is None:
            failed += 2
            continue
        fails = checks.check_study(instance, report, refs[key])
        for kind, msg in fails:
            print(f"FAIL {key} {kind}: {msg}", file=sys.stderr)
        failed += len({kind for kind, _ in fails})
        for sol in (report.stochastic_solution, report.evp_solution):
            for name in ("lp_solves", "nodes", "cuts_added"):
                stats[name] += sol.stats[name]
            stats["integer_separation_calls"] += (
                sol.stats["integer_separations"] * instance.num_vehicles)
        rows.append({"study": key, "s_star": report.s_star,
                     "d_star": report.d_star, "vss": report.vss,
                     "evp_objective": report.evp_objective,
                     "stochastic": _sol_record(report.stochastic_solution),
                     "evp": _sol_record(report.evp_solution)})
    by_kind = solve_seconds(tracer.spans, lo, hi)
    return {"total_s": total, "stochastic_s": by_kind["stochastic"],
            "evp_s": by_kind["evp"], "attempted": 2 * len(studies),
            "failed": failed, "stats": dict(stats), "studies": rows,
            "spans": (lo, hi)}


def _sol_record(sol):
    return {"status": sol.status, "objective": sol.objective,
            "bound": sol.bound, **{k: sol.stats[k] for k in (
                "nodes", "lp_solves", "cuts_added", "integer_separations",
                "fractional_separations")}}


def coverage_errors(metrics, stats, min_self):
    """Mismatches between traced counts and the solver's own stats."""
    pairs = [("lp.solves", "lp_solves"), ("bnc.nodes", "nodes"),
             ("separation.cuts_added", "cuts_added"),
             ("separation.integer.calls", "integer_separation_calls")]
    errors = [f"{m} = {metrics[m]} but solver stats say {stats[s]}"
              for m, s in pairs if m in metrics and metrics[m] != stats[s]]
    if min_self < -1e-9:
        errors.append(f"negative self time {min_self!r}")
    return errors


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has only the digest
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "stochroute").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".tsp"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def measure(args, studies, refs, timer, tracer):
    """Passes until the next would end further past --seconds than half a
    pass; pass p solves reordering p of the problems. With a tracer, each
    untraced pass is followed by a traced pass over the same inputs."""
    from workloads import pass_inputs

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        inputs = pass_inputs(studies, args.seed, len(plain))
        plain.append(run_pass(inputs, refs, timer))
        if tracer is not None:
            traced.append(run_pass(inputs, refs, tracer))
        step = time.perf_counter() - t
        if time.perf_counter() - start + step / 2 > args.seconds:
            return plain, traced


def end_to_end(plain, setup_s, timer):
    metrics = {name: statistics.median(p[name] for p in plain)
               for name in ("total_s", "stochastic_s", "evp_s")}
    if timer.missing:
        del metrics["stochastic_s"], metrics["evp_s"]
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, END_TO_END


def per_layer(plain, traced, tracer, generate_s):
    """(metrics, units, hook-coverage errors) of the traced passes."""
    from tracing import LAYER_METRICS, pass_metrics

    per_pass, errors = [], []
    for p in traced:
        layer, min_self = pass_metrics(tracer, *p["spans"])
        errors += coverage_errors(layer, p["stats"], min_self)
        per_pass.append(layer)
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0] if all(name in m for m in per_pass)}
    metrics["instance.generate.s"] = generate_s
    # per-pair ratios, so that drift in machine speed across the run cancels
    metrics["trace.overhead"] = statistics.median(
        t["total_s"] / p["total_s"] for p, t in zip(plain, traced)) - 1.0
    units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    units.update({"instance.generate.s": "s", "trace.overhead": "ratio"})
    return metrics, units, errors


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
        status = status or done.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_solver()
    studies, refs, generate_s = setup(args.workload)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(setup_s)
        return 0

    from tracing import ALL_HOOKS, SOLVE_HOOK, Tracer

    if not args.trace:
        setup_s = statistics.median(
            [setup_s] + [child_setup_seconds(args)
                         for _ in range(SETUP_REPEATS - 1)])
    timer = Tracer(SOLVE_HOOK)
    tracer = Tracer(ALL_HOOKS) if args.trace else None
    plain, traced = measure(args, studies, refs, timer, tracer)
    if tracer is None:
        metrics, units = end_to_end(plain, setup_s, timer)
        errors = []
    else:
        metrics, units, errors = per_layer(plain, traced, tracer, generate_s)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    missing = sorted(set(timer.missing) | set(tracer.missing if tracer else ()))
    for name in missing:
        print(f"MISSING hook target {name}: its metrics are left out",
              file=sys.stderr)
    for e in errors:
        print(f"CHECK {e}", file=sys.stderr)

    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_s": setup_s, "generate_s": generate_s,
              "missing_hooks": missing, "errors": errors,
              "passes": [{k: v for k, v in p.items() if k != "studies"}
                         for p in passes],
              "studies": plain[0]["studies"], "metrics": metrics}
    if tracer is not None:
        record["spans"] = tracer.spans
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    print(f"# {args.workload} seed={args.seed} passes={len(plain)} "
          f"traced_passes={len(traced)} record={out_path.relative_to(ROOT)}")
    print("# env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not errors, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
