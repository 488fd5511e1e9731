import math

import numpy as np
import pytest

from stochroute import SolveParams, lp, solve
from stochroute.bnc import SolveError, _branch_candidate, greedy_incumbent
from stochroute.model import (build_two_stage, expected_value_instance,
                              second_stage, vehicle_cost_matrix,
                              vehicle_vertices)
from stochroute.oracle import brute_force_solve
from stochroute.recourse import evaluate_fixed_first_stage
from tests.conftest import random_instance


def check_solution_shape(inst, sol):
    nt, n = inst.num_targets, inst.num_vehicles
    assert sol.assignment.shape == (nt, n)
    assert np.all((sol.assignment == 0) | (sol.assignment == 1))
    assert np.all(sol.assignment.sum(axis=1) == 1)
    for k, req in enumerate(inst.required):
        for i in req:
            assert sol.assignment[i, k] == 1
    for k, tour in enumerate(sol.tours):
        d = inst.depot_vertex(k)
        visited = set(np.flatnonzero(sol.assignment[:, k]))
        if tour:
            assert tour[0] == d and tour[-1] == d
            assert set(tour[1:-1]) == visited
            assert len(tour[1:-1]) == len(visited)
        else:
            assert visited == set()


class TestSolveMatchesOracle:
    @pytest.mark.parametrize("seed,nt,n,ns,f", [
        (0, 4, 1, 1, 0), (1, 4, 2, 1, 1), (2, 5, 2, 3, 1),
        (3, 5, 3, 2, 1), (4, 6, 2, 4, 2), (5, 6, 3, 5, 1),
        (6, 5, 2, 1, 2), (7, 4, 3, 3, 1),
    ])
    def test_objective_equals_brute_force(self, seed, nt, n, ns, f):
        inst = random_instance(seed, nt=nt, n=n, num_scenarios=ns, f=f)
        sol = solve(inst, SolveParams())
        ref = brute_force_solve(inst)
        assert sol.certified
        assert sol.objective == pytest.approx(ref.objective, rel=1e-6)
        check_solution_shape(inst, sol)

    def test_evp_matches_oracle(self):
        inst = random_instance(8, nt=5, n=2, num_scenarios=4, f=1)
        sol = solve(inst, SolveParams(), model_kind="evp")
        ref = brute_force_solve(inst, kind="evp")
        assert sol.objective == pytest.approx(ref.objective, rel=1e-6)


def test_bound_sandwiches_objective():
    for seed in range(5):
        inst = random_instance(seed + 30, nt=5, n=2, num_scenarios=3, f=1)
        sol = solve(inst, SolveParams())
        assert sol.bound <= sol.objective + 1e-9
        assert sol.gap <= 1e-6


def test_reported_objective_is_reproducible():
    # the incumbent objective must match an independent evaluation of the
    # same first stage: exact tour costs plus closed-form recourse
    for seed in (41, 42, 43):
        inst = random_instance(seed, nt=6, n=2, num_scenarios=4, f=1)
        sol = solve(inst, SolveParams())
        again = evaluate_fixed_first_stage(inst, sol.tours, sol.assignment)
        assert sol.objective == pytest.approx(again, rel=1e-9)


def test_cuts_per_component_modes_agree():
    inst = random_instance(50, nt=6, n=2, num_scenarios=2, f=1)
    one = solve(inst, SolveParams(cuts_per_component="one"))
    all_ = solve(inst, SolveParams(cuts_per_component="all"))
    assert one.objective == pytest.approx(all_.objective, rel=1e-6)


def test_time_limit_returns_feasible_with_bound():
    inst = random_instance(52, nt=8, n=3, num_scenarios=10, f=2)
    sol = solve(inst, SolveParams(time_limit_s=0.05))
    assert sol.status in ("optimal", "time_limit")
    check_solution_shape(inst, sol)
    assert sol.bound <= sol.objective + 1e-9
    if sol.status == "time_limit":
        assert not sol.certified


def test_stats_are_populated():
    inst = random_instance(53, nt=5, n=2, num_scenarios=2, f=1)
    sol = solve(inst, SolveParams(node_log=1))
    for key in ("nodes", "lp_solves", "cuts_added", "integer_separations",
                "fractional_separations", "wall_time_s"):
        assert key in sol.stats
    assert sol.stats["nodes"] >= 1
    assert sol.stats["lp_solves"] >= sol.stats["nodes"]
    assert any(e["event"] == "incumbent" for e in sol.log)


def test_node_log_reports_the_current_bound():
    inst = random_instance(54, nt=7, n=2, num_scenarios=3, f=1)
    sol = solve(inst, SolveParams(node_log=1))
    bounds = [e["bound"] for e in sol.log if e["event"] == "node"]
    assert len(bounds) == sol.stats["nodes"] > 1
    tol = 1e-9 * max(1.0, abs(sol.objective))
    assert all(math.isfinite(b) for b in bounds)
    assert all(later >= earlier - tol
               for earlier, later in zip(bounds, bounds[1:]))
    assert max(bounds) <= sol.objective + tol


def _failing_linprog(monkeypatch, fails):
    """Make HiGHS run number n (from 1) report a numerical error when
    `fails(n)`."""
    real, runs = lp.linprog, []

    def flaky(highs):
        runs.append(real(highs))
        if fails(len(runs)):
            return runs[-1]._replace(status="numerical_error")
        return runs[-1]

    monkeypatch.setattr(lp, "linprog", flaky)


def test_failed_lp_is_retried_cold(monkeypatch):
    inst = random_instance(64, nt=8, n=2, num_scenarios=4, f=1)
    reference = solve(inst, SolveParams())
    _failing_linprog(monkeypatch, lambda call: call == 10)
    sol = solve(inst, SolveParams())
    assert sol.certified and sol.stats["lp_failures"] == 1
    assert sol.objective == pytest.approx(reference.objective, rel=1e-9)


def test_lp_that_keeps_failing_is_not_certified(monkeypatch):
    inst = random_instance(54, nt=7, n=2, num_scenarios=3, f=1)
    _failing_linprog(monkeypatch, lambda call: True)
    sol = solve(inst, SolveParams())
    assert sol.status == "numerical_error" and not sol.certified
    assert sol.stats["lp_failures"] == 2
    assert sol.bound <= sol.objective
    check_solution_shape(inst, sol)


def test_lp_failure_mid_tree_keeps_a_valid_bound(monkeypatch):
    inst = random_instance(64, nt=8, n=2, num_scenarios=4, f=1)
    reference = solve(inst, SolveParams())
    _failing_linprog(monkeypatch, lambda call: call >= 15)
    sol = solve(inst, SolveParams())
    assert sol.status == "numerical_error" and sol.stats["lp_failures"] == 2
    assert math.isfinite(sol.bound)
    assert sol.bound <= reference.objective + 1e-9 * abs(reference.objective)
    assert sol.bound <= sol.objective


def test_solver_writes_nothing_to_stdout_or_stderr(capfd):
    inst = random_instance(54, nt=7, n=2, num_scenarios=3, f=1)
    capfd.readouterr()
    solve(inst, SolveParams())
    solve(inst, SolveParams(), model_kind="evp")
    assert capfd.readouterr() == ("", "")


def test_incumbent_objectives_decrease():
    inst = random_instance(54, nt=7, n=2, num_scenarios=3, f=1)
    sol = solve(inst, SolveParams())
    objs = [e["objective"] for e in sol.log if e["event"] == "incumbent"]
    assert objs == sorted(objs, reverse=True)
    if objs:
        assert objs[-1] == pytest.approx(sol.objective, rel=1e-9)


def test_greedy_incumbent_is_feasible():
    for seed in range(8):
        inst = random_instance(seed + 60, nt=6, n=3, num_scenarios=3, f=1)
        cost = [vehicle_cost_matrix(inst, k)
                for k in range(inst.num_vehicles)]
        start = greedy_incumbent(inst, cost)
        check_solution_shape(inst, start)
        again = evaluate_fixed_first_stage(inst, start.tours,
                                           start.assignment)
        assert start.objective == pytest.approx(again, rel=1e-9)


def test_branch_candidate_prefers_assignment_vars():
    inst = random_instance(70, nt=4, n=2, num_scenarios=2)
    model, varmap = build_two_stage(inst)
    point = np.zeros(model.num_cols)
    some_x = int(varmap.x[varmap.x >= 0][0])
    free_y = [c for c in varmap.y.ravel()
              if model.lb[c] == 0.0 and model.ub[c] == 1.0]
    some_y, later_y = free_y[0], free_y[-1]
    point[some_x] = 0.5
    point[some_y] = 0.25  # less fractional, still preferred by class
    assert _branch_candidate(varmap, point) == some_y
    point[later_y] = 0.75  # equally fractional: the lower column wins
    assert _branch_candidate(varmap, point) == some_y
    point[some_y] = point[later_y] = 0.0
    assert _branch_candidate(varmap, point) == some_x
    point[some_x] = 0.0
    assert _branch_candidate(varmap, point) is None


def test_closed_form_excess_hand_example():
    inst = random_instance(71, nt=2, n=1, num_scenarios=2)
    tau = np.array([[[6.0, 1.0]], [[7.0, 2.0]]])  # (|T|, n, |Omega|)
    inst = inst.__class__(
        name=inst.name, targets=inst.targets, depots=inst.depots,
        vehicles=inst.vehicles, required=inst.required,
        scenarios=inst.scenarios.__class__(tau=tau,
                                           prob=np.array([0.5, 0.5])),
        tau_bar=np.array([[4.0], [5.0]]),
    )
    assignment = np.ones((2, 1))
    excess, _ = second_stage(inst, assignment)
    # scenario 0: (6-4)+(7-5)=4; scenario 1: (1-4)+(2-5)=-6 -> 0
    assert excess[0, 0] == pytest.approx(4.0)
    assert excess[0, 1] == pytest.approx(0.0)
    evp, _ = second_stage(expected_value_instance(inst), assignment)
    # expected tau (3.5, 4.5) vs caps (4, 5): -0.5 - 0.5 -> 0
    assert evp.shape == (1, 1)
    assert evp[0, 0] == pytest.approx(0.0)


def test_vehicle_vertices_exclude_foreign_depots():
    inst = random_instance(72, nt=4, n=3, num_scenarios=1)
    for k in range(3):
        verts = vehicle_vertices(inst, k)
        assert set(verts) == set(range(4)) | {inst.depot_vertex(k)}


def test_determinism():
    inst = random_instance(73, nt=5, n=2, num_scenarios=3, f=1)
    a = solve(inst, SolveParams())
    b = solve(inst, SolveParams())
    assert a.objective == b.objective
    assert a.tours == b.tours
    assert np.array_equal(a.assignment, b.assignment)
    assert a.stats["nodes"] == b.stats["nodes"]
