import numpy as np
import pytest

from stochroute import (GenerationConfig, SolveParams, build_evp,
                        build_two_stage, generate_instance, solve)
from stochroute.instance import Instance, ScenarioSet, Vehicle
from stochroute.dubins import Pose
from stochroute.model import second_stage, vehicle_cost_matrix


def make_instance(nt, n, num_scen, seed=0, f=0):
    rng = np.random.default_rng(seed)
    coords = [(float(x), float(y)) for x, y in rng.uniform(0, 50, (nt, 2))]
    return generate_instance(coords, n, f, num_scen, seed, GenerationConfig())


def count_by_prefix(names, prefix):
    return sum(1 for s in names if s.startswith(prefix))


def test_stochastic_column_and_row_counts():
    # |T|=29, n=5, |Omega|=100: counts recomputed by formula
    inst = make_instance(29, 5, 100)
    model, varmap = build_two_stage(inst)
    assert count_by_prefix(model.col_names, "x_") == 5 * 30 * 29
    assert count_by_prefix(model.col_names, "y_") == 29 * 5
    assert count_by_prefix(model.col_names, "z_") == 5 * 100
    assert count_by_prefix(model.col_names, "h_") == 5
    row_names = [r.name for r in model.rows]
    assert count_by_prefix(row_names, "outdeg_") == 29 * 5
    assert count_by_prefix(row_names, "indeg_") == 29 * 5
    assert count_by_prefix(row_names, "assign_") == 29
    assert count_by_prefix(row_names, "service_") == 5 * 100
    assert count_by_prefix(row_names, "depot_") == 10
    assert count_by_prefix(row_names, "active_") == 145
    assert not any(name.startswith("sec_") for name in row_names)


def test_varmap_covers_every_column_once():
    inst = make_instance(5, 2, 3)
    for model, varmap in (build_two_stage(inst), build_evp(inst)):
        cols = (list(varmap.x_index.values()) + list(varmap.y_index.values())
                + list(varmap.z_index.values()) + list(varmap.h_index.values()))
        assert sorted(cols) == list(range(model.num_cols))


def test_no_arcs_to_foreign_depots():
    inst = make_instance(4, 3, 2)
    _, varmap = build_two_stage(inst)
    for (k, i, j) in varmap.x_index:
        for v in (i, j):
            if v >= inst.num_targets:
                assert v == inst.depot_vertex(k)


def test_binary_columns_are_marked():
    inst = make_instance(4, 2, 2, f=1)
    model, varmap = build_two_stage(inst)
    for col in list(varmap.x_index.values()) + list(varmap.h_index.values()):
        assert model.is_int[col]
        assert model.lb[col] == 0.0 and model.ub[col] == 1.0
    for (i, k), col in varmap.y_index.items():
        assert model.is_int[col]
        pinned_to = next((kk for kk, r in enumerate(inst.required) if i in r),
                         None)
        if pinned_to is None:
            assert (model.lb[col], model.ub[col]) == (0.0, 1.0)
        elif pinned_to == k:
            assert (model.lb[col], model.ub[col]) == (1.0, 1.0)
        else:
            assert (model.lb[col], model.ub[col]) == (0.0, 0.0)
    for col in varmap.z_index.values():
        assert not model.is_int[col]
        assert model.lb[col] == 0.0 and np.isinf(model.ub[col])


def test_y_appears_in_expected_rows():
    inst = make_instance(5, 2, 4)
    model, varmap = build_two_stage(inst)
    for (i, k), col in varmap.y_index.items():
        in_assign = sum(1 for r in model.rows
                        if r.name.startswith("assign_") and col in r.cols)
        in_service = sum(1 for r in model.rows
                         if r.name.startswith("service_") and col in r.cols)
        assert in_assign == 1
        assert in_service == inst.scenarios.num_scenarios


def test_objective_coefficients():
    inst = make_instance(3, 2, 4)
    model, varmap = build_two_stage(inst)
    cost = {k: vehicle_cost_matrix(inst, k) for k in range(2)}
    for (k, i, j), col in varmap.x_index.items():
        assert model.obj[col] == pytest.approx(cost[k][i, j])
    for (k, w), col in varmap.z_index.items():
        assert model.obj[col] == pytest.approx(
            inst.scenarios.prob[w] * inst.vehicles[k].gamma)
    evp_model, evp_map = build_evp(inst)
    assert sorted(evp_map.z_index) == [(0, 0), (1, 0)]
    for (k, w), col in evp_map.z_index.items():
        assert evp_model.obj[col] == pytest.approx(inst.vehicles[k].gamma)


def test_evp_z_column_count():
    inst = make_instance(8, 2, 100)
    stoch, _ = build_two_stage(inst)
    evp, _ = build_evp(inst)
    assert count_by_prefix(stoch.col_names, "z_") == 200
    assert count_by_prefix(evp.col_names, "z_") == 2


def test_single_scenario_models_agree_at_optimum():
    inst = make_instance(4, 2, 1, seed=3)
    s = solve(inst, SolveParams(), model_kind="stochastic")
    d = solve(inst, SolveParams(), model_kind="evp")
    assert s.objective == pytest.approx(d.objective, rel=1e-9)


def test_identical_scenarios_models_agree_at_optimum():
    base = make_instance(4, 2, 1, seed=4)
    tau = np.repeat(base.scenarios.tau, 5, axis=2)
    inst = Instance(
        name=base.name, targets=base.targets, depots=base.depots,
        vehicles=base.vehicles, required=base.required,
        scenarios=ScenarioSet(tau=tau, prob=np.full(5, 0.2)),
        tau_bar=base.tau_bar,
    )
    s = solve(inst, SolveParams(), model_kind="stochastic")
    d = solve(inst, SolveParams(), model_kind="evp")
    assert s.objective == pytest.approx(d.objective, rel=1e-9)


def test_single_target_round_trip_objective():
    # one target, one vehicle, one scenario hitting the cap exactly
    target = Pose(10.0, 0.0, 0.0)
    depot = Pose(0.0, 0.0, 0.0)
    inst = Instance(
        name="unit-1-0", targets=(target,), depots=(depot,),
        vehicles=(Vehicle(id=0, depot=0, turn_radius=1.0, gamma=1000.0),),
        required=(frozenset(),),
        scenarios=ScenarioSet(tau=np.array([[[4.0]]]), prob=np.array([1.0])),
        tau_bar=np.array([[4.0]]),
    )
    sol = solve(inst, SolveParams())
    c = vehicle_cost_matrix(inst, 0)
    d = inst.depot_vertex(0)
    assert sol.objective == pytest.approx(c[d, 0] + c[0, d], rel=1e-9)
    assert sol.travel == pytest.approx(c[d, 0] + c[0, d], rel=1e-9)
    assert second_stage(inst, sol.assignment)[1] == pytest.approx(0.0, abs=1e-12)


def test_objective_split_consistency():
    inst = make_instance(5, 2, 6, seed=9, f=1)
    for kind in ("stochastic", "evp"):
        sol = solve(inst, SolveParams(), model_kind=kind)
        cost = {k: vehicle_cost_matrix(inst, k) for k in range(2)}
        travel = sum(float(cost[k][u, v]) for k, tour in enumerate(sol.tours)
                     for u, v in zip(tour, tour[1:]))
        assert sol.travel == pytest.approx(travel, rel=1e-12)
        weights = inst.scenarios.prob if kind == "stochastic" else np.ones(1)
        gamma = np.array([v.gamma for v in inst.vehicles])
        penalty = float(weights @ (gamma @ sol.excess))
        assert sol.travel + penalty == pytest.approx(sol.objective, rel=1e-9)
