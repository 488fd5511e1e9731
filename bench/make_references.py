"""Regenerate references.json: certified S*, D*, VSS and EVP optimum.

    python3 bench/make_references.py

Values come from the fixed problems of each workload in their generated
scenario order; they hold for every reordering the benchmark solves.
small-vss values are first checked against the brute-force oracle
(stochastic and EVP optimum, and D* of the oracle's EVP plan) to 1e-9
relative.
"""

import json
import sys

import run


def oracle_errors(instance, report):
    import checks
    from stochroute import recourse
    from stochroute.oracle import brute_force_solve

    stoch = brute_force_solve(instance, "stochastic")
    evp = brute_force_solve(instance, "evp")
    d_star = recourse.evaluate_fixed_first_stage(instance, evp.tours,
                                                 evp.assignment)
    pairs = [("s_star", report.s_star, stoch.objective),
             ("evp_objective", report.evp_objective, evp.objective),
             ("d_star", report.d_star, d_star)]
    return [f"{key} {got!r} != oracle {want!r}"
            for key, got, want in pairs if not checks.close(got, want)]


def main():
    run.import_solver()
    import checks
    import workloads
    from stochroute import SolveParams, recourse

    refs = {}
    for name in run.WORKLOADS:
        refs[name] = {}
        for key, instance in workloads.build(name):
            report = recourse.compute_vss(instance, SolveParams())
            errors = [f"{kind}: {msg}" for kind, msg in
                      checks.check_study(instance, report)]
            if name == "small-vss":
                errors += oracle_errors(instance, report)
            if errors:
                sys.exit(f"{name} {key}: " + "; ".join(errors))
            refs[name][key] = {"s_star": report.s_star,
                               "d_star": report.d_star, "vss": report.vss,
                               "evp_objective": report.evp_objective}
            print(f"{name} {key}: S*={report.s_star!r} D*={report.d_star!r}",
                  flush=True)
    (run.BENCH / "references.json").write_text(json.dumps(refs, indent=1)
                                               + "\n")


if __name__ == "__main__":
    main()
