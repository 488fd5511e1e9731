"""Correctness gate for one VSS study.

Every solve must end certified with its bound equal to its objective. Each
returned plan is re-priced outside the branch-and-cut path and compared with
the reported objective: the stochastic plan with
`recourse.evaluate_fixed_first_stage`, the EVP plan with Dubins travel plus
the closed-form mean penalty, and the EVP plan under uncertainty (D*) with
the same travel plus a vectorised scenario penalty. Where references exist,
S*, D*, VSS and the EVP optimum must match them. All comparisons are 1e-9
relative.
"""

from __future__ import annotations

import numpy as np

from stochroute import dubins, recourse

REL_TOL = 1e-9


def close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def travel(instance, tours):
    total = 0.0
    for k, tour in enumerate(tours):
        radius = instance.vehicles[k].turn_radius
        for u, v in zip(tour, tour[1:]):
            total += dubins.shortest_path(instance.vertex_pose(u),
                                          instance.vertex_pose(v),
                                          radius).length
    return total


def penalty(instance, assignment, tau, prob):
    """sum_w p_w sum_k gamma_k max(0, sum_i (tau_ikw - tau_bar_ik) y_ik)."""
    gamma = np.array([v.gamma for v in instance.vehicles])
    diff = (tau - instance.tau_bar[:, :, None]) * assignment[:, :, None]
    excess = np.clip(diff.sum(axis=0), 0.0, None)  # (vehicles, scenarios)
    return float(prob @ (gamma @ excess))


def check_study(instance, report, ref=None):
    """[(solve kind, message)] for every check the study fails."""
    stoch, evp = report.stochastic_solution, report.evp_solution
    fails = []
    for kind, sol in (("stochastic", stoch), ("evp", evp)):
        if sol.status != "optimal":
            fails.append((kind, f"status {sol.status}"))
        if not close(sol.bound, sol.objective):
            fails.append((kind, f"bound {sol.bound!r} != objective "
                                f"{sol.objective!r}"))
    try:
        s_star = recourse.evaluate_fixed_first_stage(
            instance, stoch.tours, stoch.assignment)
    except ValueError as exc:
        fails.append(("stochastic", f"plan rejected: {exc}"))
        s_star = float("nan")
    if not close(s_star, stoch.objective):
        fails.append(("stochastic", f"re-priced {s_star!r} != objective "
                                    f"{stoch.objective!r}"))

    scen = instance.scenarios
    evp_travel = travel(instance, evp.tours)
    mean_tau = scen.expected_tau()[:, :, None]
    evp_obj = evp_travel + penalty(instance, evp.assignment, mean_tau,
                                   np.ones(1))
    if not close(evp_obj, evp.objective):
        fails.append(("evp", f"re-priced {evp_obj!r} != objective "
                             f"{evp.objective!r}"))
    d_star = evp_travel + penalty(instance, evp.assignment, scen.tau,
                                  scen.prob)
    if not close(d_star, report.d_star):
        fails.append(("evp", f"re-priced D* {d_star!r} != {report.d_star!r}"))
    if not close(report.vss, d_star - s_star) or report.vss < -REL_TOL * max(
            1.0, abs(s_star)):
        fails.append(("evp", f"VSS {report.vss!r} != D* - S* "
                             f"{d_star - s_star!r}, or negative"))

    if ref is not None:
        got = {"s_star": report.s_star, "d_star": report.d_star,
               "vss": report.vss, "evp_objective": report.evp_objective}
        for key, value in got.items():
            if not close(value, ref[key]):
                kind = "stochastic" if key == "s_star" else "evp"
                fails.append((kind, f"{key} {value!r} != reference "
                                    f"{ref[key]!r}"))
    return fails
