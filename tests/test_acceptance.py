"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line to the terminal (bypassing
capture) so a full run doubles as a short report. The bays29 suite check
re-solves all thirteen benchmark instances at full scale and dominates the runtime of
this module; everything else finishes in seconds.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from stochroute import (GenerationConfig, SolveParams, generate_instance,
                        solve)
from stochroute.dubins import Pose, WORDS, shortest_path, word_candidate
from stochroute.instance import Vehicle
from stochroute.lp import LpWorkspace
from stochroute.model import Row, build_two_stage, second_stage
from stochroute.oracle import brute_force_min_cut, brute_force_solve
from stochroute.recourse import compute_vss, expected_penalty
from stochroute.separation import (build_support_graph, cut_row,
                                   cut_violation, max_flow,
                                   separate_fractional, separate_integer)
from stochroute.tsplib import parse_tsplib
from tests.conftest import random_instance

DATA = Path(__file__).parent.parent / "src" / "stochroute" / "data"


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence(capsys):
    # objective match with the brute-force oracle, 1e-6 relative, on a grid
    # of >= 25 seeded instances
    t0 = time.monotonic()
    cases = []
    seed = 100
    for nt, n, ns in itertools.product((4, 5, 6, 7, 8), (1, 2, 3), (1, 5, 10)):
        seed += 1
        if (nt + n + ns + seed) % 3:  # thin the 45-point grid, keep spread
            continue
        cases.append((seed, nt, n, ns))
    extra = [(s, 4 + s % 5, 1 + s % 3, (1, 5, 10)[s % 3])
             for s in range(200, 200 + max(0, 25 - len(cases)) + 10)]
    cases = (cases + extra)[:30]
    worst = 0.0
    for seed, nt, n, ns in cases:
        f = 1 if n > 1 else 0
        inst = random_instance(seed, nt=nt, n=n, num_scenarios=ns, f=f)
        got = solve(inst, SolveParams()).objective
        ref = brute_force_solve(inst).objective
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60
    report(capsys, 1, ok,
           f"{len(cases)} instances, max relative deviation {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_single_vehicle_reduces_to_tsp(capsys):
    # one vehicle: hedging buys nothing and the tour is the plain
    # travel-only tour
    worst_vss = 0.0
    arc_mismatches = 0
    for seed in range(300, 310):
        inst = random_instance(seed, nt=6, n=1, num_scenarios=5)
        rep = compute_vss(inst, SolveParams())
        worst_vss = max(worst_vss, abs(rep.vss))
        free = inst.__class__(
            name=inst.name, targets=inst.targets, depots=inst.depots,
            vehicles=tuple(Vehicle(id=v.id, depot=v.depot,
                                   turn_radius=v.turn_radius, gamma=0.0)
                           for v in inst.vehicles),
            required=inst.required, scenarios=inst.scenarios,
            tau_bar=inst.tau_bar,
        )
        tsp = solve(free, SolveParams())
        arcs = lambda sol: {(u, v) for t in sol.tours
                            for u, v in zip(t, t[1:])}
        if arcs(rep.stochastic_solution) != arcs(tsp):
            arc_mismatches += 1
    ok = worst_vss <= 1e-6 and arc_mismatches == 0
    report(capsys, 2, ok,
           f"10 single-vehicle instances, max |VSS| {worst_vss:.2e}, "
           f"{arc_mismatches} tour mismatches vs travel-only optimum")


def test_criterion_3_vss_nonnegative(capsys):
    worst = np.inf
    count = 0
    for seed in range(320, 340):
        inst = random_instance(seed, nt=5, n=1 + seed % 3,
                               num_scenarios=1 + seed % 7,
                               f=1 if seed % 3 else 0)
        rep = compute_vss(inst, SolveParams())
        if rep.certified:
            count += 1
            worst = min(worst, rep.vss)
    ok = count == 20 and worst >= -1e-6
    report(capsys, 3, ok,
           f"{count} certified runs, smallest VSS {worst:.2e}")


@pytest.mark.slow
def test_criterion_4_full_scale_suite(capsys):
    # 29 targets, 100 scenarios, gamma=1000, the full 13-cell grid
    coords = [(x, y) for _, x, y
              in parse_tsplib((DATA / "bays29.tsp").read_text())]
    grid = [(1, 0)] + [(n, f) for n in (2, 3, 4, 5) for f in (1, 3, 5)]
    params = SolveParams(time_limit_s=3600.0)
    uncertified = []
    positive = 0
    max_cuts = 0
    max_time = 0.0
    for n, f in grid:
        inst = generate_instance(coords, n, f, 100, 42,
                                 GenerationConfig(base_name="bays29"))
        t0 = time.monotonic()
        rep = compute_vss(inst, params)
        max_time = max(max_time, time.monotonic() - t0)
        if not rep.certified:
            uncertified.append(inst.name)
        max_cuts = max(max_cuts, rep.stochastic_solution.stats["cuts_added"])
        if n > 1 and rep.vss > 1e-6:
            positive += 1
    ok = (not uncertified and positive >= 10 and 0 < max_cuts < 2 ** 29
          and max_time < 3600.0)
    report(capsys, 4, ok,
           f"13/13 certified={not uncertified}, positive VSS in "
           f"{positive}/12 multi-vehicle cells, max cuts {max_cuts}, "
           f"slowest cell {max_time:.0f}s")


def test_criterion_5_separation_correctness(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(400)
    flow_errors = 0
    for _ in range(1000):
        nv = int(rng.integers(2, 11))
        vertices = set(range(nv))
        arcs = {(u, v): float(rng.uniform(0, 1))
                for u in range(nv) for v in range(nv)
                if u != v and rng.random() < 0.35}
        got, _ = max_flow(vertices, arcs, 0, nv - 1)
        ref, _ = brute_force_min_cut(vertices, arcs, 0, nv - 1)
        if abs(got - ref) > 1e-9:
            flow_errors += 1
    cut_errors = 0
    for seed in range(410, 416):
        inst = random_instance(seed, nt=5, n=2, num_scenarios=2, f=1)
        model, varmap = build_two_stage(inst)
        frac = LpWorkspace(model).solve().primal
        opt = brute_force_solve(inst)
        point = np.zeros(model.num_cols)
        for k, tour in enumerate(opt.tours):
            for u, v in zip(tour, tour[1:]):
                point[varmap.x_index[(k, u, v)]] = 1.0
        for (i, k), col in varmap.y_index.items():
            point[col] = opt.assignment[i, k]
        for k in range(inst.num_vehicles):
            for cut in separate_fractional(
                    build_support_graph(inst, varmap, frac, k, eps=1e-7)):
                if cut_violation(cut, inst, varmap, frac) <= 1e-4:
                    cut_errors += 1
                row = cut_row(cut, inst, varmap)
                lhs = sum(a * point[c] for c, a in zip(row.cols, row.coefs))
                if lhs < row.rhs - 1e-9:
                    cut_errors += 1
            for cut in separate_integer(
                    build_support_graph(inst, varmap, point, k, eps=0.5)):
                if cut_violation(cut, inst, varmap, point) <= 1e-4:
                    cut_errors += 1
    elapsed = time.monotonic() - t0
    ok = flow_errors == 0 and cut_errors == 0 and elapsed < 30
    report(capsys, 5, ok,
           f"1000 min-cut comparisons ({flow_errors} errors), "
           f"{cut_errors} bad cuts, {elapsed:.1f}s")


def test_criterion_6_lp_soundness(capsys):
    from tests.test_lp import random_lp
    rng = np.random.default_rng(500)
    models = []
    while len(models) < 40:
        m = random_lp(rng)
        if LpWorkspace(m).solve().status == "optimal":
            models.append(m)
    for seed in range(510, 520):
        inst = random_instance(seed, nt=4, n=2, num_scenarios=2)
        models.append(build_two_stage(inst)[0])
    worst_gap = worst_resid = worst_warm = 0.0
    for m in models[:50]:
        ws = LpWorkspace(m)
        sol = ws.solve()
        primal, dual, gap = ws.residuals(sol)
        worst_resid = max(worst_resid, primal, dual)
        worst_gap = max(worst_gap, gap)
        extra = Row(cols=[0, 1], coefs=[1.0, 1.0], sense="<=",
                    rhs=float(sol.primal[0] + sol.primal[1] + 1.0))
        ws.add_rows([extra])
        warm = ws.solve()
        cold = LpWorkspace(ws.model).solve()
        if warm.status == "optimal":
            worst_warm = max(worst_warm,
                             abs(warm.objective - cold.objective)
                             / max(1.0, abs(cold.objective)))
    ok = worst_gap <= 1e-6 and worst_resid <= 1e-7 and worst_warm <= 1e-6
    report(capsys, 6, ok,
           f"50 LPs: max residual {worst_resid:.2e}, max gap "
           f"{worst_gap:.2e}, warm-vs-cold {worst_warm:.2e}")


def test_criterion_7_path_geometry(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(600)
    n = 10_000
    starts = rng.uniform(-50, 50, (n, 2))
    ends = rng.uniform(-50, 50, (n, 2))
    angles = rng.uniform(0, 2 * np.pi, (n, 2))
    radii = rng.uniform(0.5, 5.0, n)
    bad = {"euclid": 0, "rigid": 0, "scale": 0, "word": 0}
    phi, (dx, dy), scale = 0.7, (13.0, -4.0), 2.5
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    for i in range(n):
        a = Pose(starts[i, 0], starts[i, 1], angles[i, 0])
        b = Pose(ends[i, 0], ends[i, 1], angles[i, 1])
        r = float(radii[i])
        path = shortest_path(a, b, r)
        euclid = float(np.hypot(b.x - a.x, b.y - a.y))
        if path.length < euclid - 1e-9 * max(1.0, euclid):
            bad["euclid"] += 1

        def moved(p):
            return Pose(cos_p * p.x - sin_p * p.y + dx,
                        sin_p * p.x + cos_p * p.y + dy, p.theta + phi)
        if abs(shortest_path(moved(a), moved(b), r).length - path.length) \
                > 1e-9 * max(1.0, path.length):
            bad["rigid"] += 1
        scaled = shortest_path(Pose(a.x * scale, a.y * scale, a.theta),
                               Pose(b.x * scale, b.y * scale, b.theta),
                               r * scale)
        if abs(scaled.length - scale * path.length) \
                > 1e-9 * max(1.0, scale * path.length):
            bad["scale"] += 1
        best = min((word_candidate(w, a, b, r) for w in WORDS),
                   key=lambda p: np.inf if p is None else p.length)
        if abs(best.length - path.length) > 1e-12 * max(1.0, path.length):
            bad["word"] += 1
    elapsed = time.monotonic() - t0
    ok = not any(bad.values()) and elapsed < 10
    report(capsys, 7, ok, f"10^4 pose pairs, failures {bad}, {elapsed:.1f}s")


def test_criterion_8_closed_form_recourse(capsys):
    import dataclasses
    rng = np.random.default_rng(700)
    worst = 0.0
    for trial in range(100):
        inst = random_instance(int(rng.integers(10 ** 6)),
                               nt=int(rng.integers(2, 6)),
                               n=int(rng.integers(1, 4)),
                               num_scenarios=int(rng.integers(1, 6)))
        nt, n = inst.num_targets, inst.num_vehicles
        y = np.zeros((nt, n))
        for i in range(nt):
            y[i, int(rng.integers(n))] = 1.0
        for k, req in enumerate(inst.required):
            for i in req:
                y[i] = 0.0
                y[i, k] = 1.0
        model, varmap = build_two_stage(inst)
        lb, ub = model.lb.copy(), model.ub.copy()
        for (i, k), col in varmap.y_index.items():
            lb[col] = ub[col] = y[i, k]
        for col in varmap.x_index.values():
            lb[col] = ub[col] = 0.0  # travel is irrelevant to the z block
        for col in varmap.h_index.values():
            ub[col] = 1.0
        frozen = dataclasses.replace(
            model, lb=lb, ub=ub, is_int=np.zeros_like(model.is_int),
            rows=[r for r in model.rows if r.name.startswith("service_")])
        lp = LpWorkspace(frozen).solve()
        assert lp.status == "optimal"
        closed = expected_penalty(inst, y)
        worst = max(worst, abs(lp.objective - closed))
        excess, _ = second_stage(inst, y)
        for (k, w), col in varmap.z_index.items():
            worst = max(worst, abs(lp.primal[col] - excess[k, w]))
    ok = worst <= 1e-9
    report(capsys, 8, ok,
           f"100 fixed-assignment LPs, max deviation {worst:.2e}")
