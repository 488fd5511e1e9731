import dataclasses

import numpy as np
import pytest

from stochroute import SolveParams, solve
from stochroute.instance import Instance, ScenarioSet, Vehicle
from stochroute.dubins import Pose
from stochroute.lp import LpWorkspace
from stochroute.model import build_two_stage, second_stage
from stochroute.recourse import (AssignmentError, FirstStageError,
                                 compute_vss, evaluate_fixed_first_stage,
                                 expected_penalty)
from tests.conftest import random_instance


def two_target_instance(tau, tau_bar, prob=None, gamma=1000.0):
    tau = np.asarray(tau, float)
    nw = tau.shape[2]
    prob = np.full(nw, 1.0 / nw) if prob is None else np.asarray(prob, float)
    return Instance(
        name="hand-1-0",
        targets=(Pose(10.0, 0.0, 0.0), Pose(0.0, 10.0, 0.0)),
        depots=(Pose(0.0, 0.0, 0.0),),
        vehicles=(Vehicle(id=0, depot=0, turn_radius=1.0, gamma=gamma),),
        required=(frozenset(),),
        scenarios=ScenarioSet(tau=tau, prob=prob),
        tau_bar=np.asarray(tau_bar, float),
    )


def test_surplus_offsets_excess():
    # one target runs 2 over budget, the other 5 under: net excess is zero
    inst = two_target_instance(tau=[[[6.0]], [[0.0]]], tau_bar=[[4.0], [5.0]])
    y = np.ones((2, 1))
    assert second_stage(inst, y)[0][0, 0] == pytest.approx(0.0)


def test_hand_penalty_arithmetic():
    # scenario 0 excess (6-4)+(7-5)=4, scenario 1 excess 0, equal weights,
    # gamma=1000: expected penalty = 0.5 * 1000 * 4 = 2000
    inst = two_target_instance(tau=[[[6.0, 1.0]], [[7.0, 2.0]]],
                               tau_bar=[[4.0], [5.0]])
    y = np.ones((2, 1))
    excess, penalty = second_stage(inst, y)
    assert excess[0, 0] == pytest.approx(4.0)
    assert excess[0, 1] == pytest.approx(0.0)
    assert penalty == pytest.approx(2000.0)
    assert expected_penalty(inst, y) == pytest.approx(2000.0)


def test_unassigned_target_contributes_nothing():
    inst = random_instance(1, nt=4, n=2, num_scenarios=3, f=0)
    y = np.zeros((4, 2))
    y[:, 0] = 1.0
    excess, _ = second_stage(inst, y)
    assert np.all(excess[1] == 0.0)


def test_assignment_validation():
    inst = random_instance(2, nt=4, n=2, num_scenarios=2, f=1)
    good = np.zeros((4, 2))
    good[:, 0] = 1.0
    with pytest.raises(AssignmentError, match="shape"):
        expected_penalty(inst, np.zeros((3, 2)))
    with pytest.raises(AssignmentError, match="binary"):
        expected_penalty(inst, np.full((4, 2), 0.5))
    bad = good.copy()
    bad[0, 1] = 1.0
    with pytest.raises(AssignmentError, match="exactly one"):
        expected_penalty(inst, bad)
    req_k, req_i = next((k, min(r)) for k, r in enumerate(inst.required) if r)
    pinned_wrong = np.zeros((4, 2))
    pinned_wrong[:, 1 - req_k] = 1.0
    with pytest.raises(AssignmentError, match="required"):
        expected_penalty(inst, pinned_wrong)


def test_closed_form_matches_lp_with_frozen_first_stage():
    # freeze x and y to an optimal first stage, re-solve the remaining LP in
    # z, and compare with the closed form
    rng = np.random.default_rng(7)
    for trial in range(15):
        inst = random_instance(int(rng.integers(10 ** 6)), nt=4,
                               n=int(rng.integers(1, 3)),
                               num_scenarios=int(rng.integers(1, 5)))
        sol = solve(inst, SolveParams())
        model, varmap = build_two_stage(inst)
        lb, ub = model.lb.copy(), model.ub.copy()
        for (k, u, v), col in varmap.x_index.items():
            val = 0.0
            tour = sol.tours[k]
            if any((a, b) == (u, v) for a, b in zip(tour, tour[1:])):
                val = 1.0
            lb[col] = ub[col] = val
        for (i, k), col in varmap.y_index.items():
            lb[col] = ub[col] = sol.assignment[i, k]
        for k, col in varmap.h_index.items():
            lb[col] = ub[col] = 1.0 if sol.tours[k] else 0.0
        frozen = dataclasses.replace(model, lb=lb, ub=ub,
                                     is_int=np.zeros_like(model.is_int))
        lp = LpWorkspace(frozen).solve()
        assert lp.status == "optimal"
        closed = evaluate_fixed_first_stage(inst, sol.tours, sol.assignment)
        assert lp.objective == pytest.approx(closed, abs=1e-9 * max(1, closed))
        excess, _ = second_stage(inst, sol.assignment)
        for (k, w), col in varmap.z_index.items():
            assert lp.primal[col] == pytest.approx(excess[k, w], abs=1e-7)


def test_first_stage_rejects_subtours():
    inst = random_instance(9, nt=4, n=1, num_scenarios=1)
    y = np.ones((4, 1))
    d = inst.depot_vertex(0)
    with pytest.raises(FirstStageError, match="assignment"):
        # disconnected: tour covers only two of the four assigned targets
        evaluate_fixed_first_stage(inst, [[d, 0, 1, d]], y)
    with pytest.raises(FirstStageError, match="degree"):
        evaluate_fixed_first_stage(inst, [[d, 0, 1, 0, 2, 3, d]], y)
    with pytest.raises(FirstStageError, match="connectivity"):
        evaluate_fixed_first_stage(inst, [[0, 1, 2, 3, 0]], y)
    with pytest.raises(FirstStageError, match="connectivity"):
        evaluate_fixed_first_stage(inst, [[]], y)


def test_vss_zero_for_single_vehicle():
    for seed in range(5):
        inst = random_instance(seed + 80, nt=5, n=1, num_scenarios=4)
        rep = compute_vss(inst, SolveParams())
        assert rep.certified
        assert abs(rep.vss) <= 1e-6


def test_vss_nonnegative_and_consistent():
    for seed in range(6):
        inst = random_instance(seed + 90, nt=5, n=2, num_scenarios=5, f=1)
        rep = compute_vss(inst, SolveParams())
        assert rep.certified
        assert rep.vss >= -1e-6
        assert rep.vss == pytest.approx(rep.d_star - rep.s_star)
        # pricing the EVP plan under uncertainty can only look worse than
        # the EVP's own optimistic objective
        assert rep.d_star >= rep.evp_objective - 1e-6
        assert rep.table_row() == (rep.d_star, rep.s_star, rep.vss)


def test_vss_zero_with_single_scenario():
    inst = random_instance(99, nt=5, n=2, num_scenarios=1, f=1)
    rep = compute_vss(inst, SolveParams())
    assert abs(rep.vss) <= 1e-6 * max(1.0, abs(rep.s_star))
