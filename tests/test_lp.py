import dataclasses
import importlib.util
import itertools
import sys
import types

import numpy as np
import pytest
import scipy

from stochroute import lp
from stochroute.lp import LpWorkspace
from stochroute.model import LinearModel, Row, build_two_stage
from tests.conftest import random_instance


def make_lp(obj, lb, ub, rows):
    n = len(obj)
    return LinearModel(
        obj=np.array(obj, float), lb=np.array(lb, float),
        ub=np.array(ub, float), is_int=np.zeros(n, bool), rows=rows,
    )


def random_lp(rng, n_cols=6, n_rows=4):
    rows = []
    for r in range(n_rows):
        cols = sorted(rng.choice(n_cols, size=3, replace=False).tolist())
        coefs = rng.uniform(-2, 2, 3).tolist()
        sense = ["<=", ">=", "="][int(rng.integers(0, 3))]
        rows.append(Row(cols=cols, coefs=coefs, sense=sense,
                        rhs=float(rng.uniform(-3, 3))))
    return make_lp(rng.uniform(-1, 1, n_cols), np.zeros(n_cols),
                   rng.uniform(2, 8, n_cols), rows)


def test_simple_bound_lp():
    m = make_lp([-1.0], [0.0], [10.0], [Row([0], [1.0], "<=", 3.0)])
    sol = LpWorkspace(m).solve()
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-3.0)
    assert sol.primal[0] == pytest.approx(3.0)


def test_matches_vertex_enumeration():
    # 5 variables, 3 equality rows: enumerate all basic feasible solutions
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 2, (3, 5))
    b = rng.uniform(1, 4, 3)
    c = rng.uniform(-2, 1, 5)
    ub = np.full(5, 10.0)
    rows = [Row(list(range(5)), A[r].tolist(), "=", float(b[r]))
            for r in range(3)]
    m = make_lp(c, np.zeros(5), ub, rows)
    sol = LpWorkspace(m).solve()
    assert sol.status == "optimal"

    best = np.inf
    # basic variables take values from solving the 3x3 system; the two
    # nonbasic ones sit at either bound
    for basis in itertools.combinations(range(5), 3):
        nonbasic = [j for j in range(5) if j not in basis]
        for vals in itertools.product([0.0, 10.0], repeat=2):
            B = A[:, basis]
            if abs(np.linalg.det(B)) < 1e-10:
                continue
            rhs = b - A[:, nonbasic] @ np.array(vals)
            xb = np.linalg.solve(B, rhs)
            if np.any(xb < -1e-9) or np.any(xb > 10.0 + 1e-9):
                continue
            x = np.zeros(5)
            x[list(basis)] = xb
            x[nonbasic] = vals
            best = min(best, float(c @ x))
    assert sol.objective == pytest.approx(best, rel=1e-9)


def test_relaxation_bounds_integer_optimum():
    from stochroute import SolveParams, solve
    inst = random_instance(21, nt=5, n=2, num_scenarios=3)
    model, _ = build_two_stage(inst)
    lp = LpWorkspace(model).solve()
    mip = solve(inst, SolveParams())
    assert lp.objective <= mip.objective + 1e-6


def test_add_satisfied_row_keeps_objective():
    m = make_lp([1.0, 1.0], [0.0, 0.0], [5.0, 5.0],
                [Row([0, 1], [1.0, 1.0], ">=", 2.0)])
    ws = LpWorkspace(m)
    first = ws.solve()
    ws.add_rows([Row([0, 1], [1.0, 1.0], "<=", 10.0)])
    sol = ws.solve()
    assert sol.objective == pytest.approx(first.objective)


def test_add_violated_cut_increases_objective():
    m = make_lp([1.0, 1.0], [0.0, 0.0], [5.0, 5.0],
                [Row([0, 1], [1.0, 1.0], ">=", 2.0)])
    ws = LpWorkspace(m)
    first = ws.solve()
    ws.add_rows([Row([0], [1.0], ">=", 3.0)])
    sol = ws.solve()
    assert sol.objective >= first.objective - 1e-12
    assert sol.objective == pytest.approx(3.0)


def test_added_row_causing_infeasibility():
    m = make_lp([1.0], [0.0], [5.0], [])
    ws = LpWorkspace(m)
    assert ws.solve().status == "optimal"
    ws.add_rows([Row([0], [1.0], ">=", 6.0)])
    sol = ws.solve()
    assert sol.status == "infeasible"


def test_unbounded_status():
    m = make_lp([-1.0], [0.0], [np.inf], [])
    assert LpWorkspace(m).solve().status == "unbounded"


def test_reoptimization_matches_cold_solve():
    rng = np.random.default_rng(5)
    for trial in range(20):
        m = random_lp(rng)
        ws = LpWorkspace(m)
        if ws.solve().status != "optimal":
            continue
        extra = [Row([0, 1], rng.uniform(-1, 1, 2).tolist(), "<=",
                     float(rng.uniform(0, 5)))]
        ws.add_rows(extra)
        warm = ws.solve()
        cold = LpWorkspace(ws.model).solve()
        if warm.status == "optimal":
            assert cold.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
        else:
            assert cold.status == warm.status


def test_kkt_residuals_on_random_battery():
    rng = np.random.default_rng(6)
    solved = 0
    while solved < 30:
        m = random_lp(rng)
        ws = LpWorkspace(m)
        sol = ws.solve()
        if sol.status != "optimal":
            continue
        solved += 1
        primal, dual, gap = ws.residuals(sol)
        assert primal <= 1e-7
        assert dual <= 1e-7
        assert gap <= 1e-6


def test_warm_start_sequences_match_fresh_solves():
    """Bound changes, added rows and restored older bases on one persistent
    model give what a fresh model of the same LP gives."""
    rng = np.random.default_rng(7)
    checked = {"optimal": 0, "infeasible": 0, "restored": 0}
    models = 0
    while models < 40:
        m = random_lp(rng, n_cols=8, n_rows=4)
        n = len(m.obj)
        ws = LpWorkspace(m)
        lo, hi = ws.lb.copy(), ws.ub.copy()
        last = ws.solve(lb=lo, ub=hi)
        if last.status != "optimal":
            continue
        models += 1
        bases = [ws.basis()]
        for _ in range(15):
            lo, hi = lo.copy(), hi.copy()
            # an infeasible LP is relaxed next, so most solves are optimal
            op = 1 if last.status != "optimal" else int(rng.integers(0, 4))
            j = int(rng.integers(0, n))
            if op == 0:  # tighten one side of a column
                mid = float(rng.uniform(lo[j], hi[j]))
                if rng.random() < 0.5:
                    lo[j] = mid
                else:
                    hi[j] = mid
            elif op == 1:  # relax a column back to the model's bounds
                lo[j], hi[j] = ws.lb[j], ws.ub[j]
            elif op == 2:  # a row that often cuts off the last point
                cols = sorted(rng.choice(n, size=3, replace=False).tolist())
                coefs = rng.uniform(-1, 1, 3)
                rhs = float(coefs @ last.primal[cols] - rng.uniform(-0.2, 0.4))
                ws.add_rows([Row(cols, coefs.tolist(), "<=", rhs)])
            else:  # back to an older basis, with fewer rows
                ws.set_basis(bases[int(rng.integers(0, len(bases)))])
                checked["restored"] += 1
            last = ws.solve(lb=lo, ub=hi)
            fresh = LpWorkspace(dataclasses.replace(
                ws.model, lb=lo, ub=hi, rows=list(ws.model.rows)))
            ref = fresh.solve()
            assert last.status == ref.status
            checked[last.status] = checked.get(last.status, 0) + 1
            if last.status != "optimal":
                continue
            assert abs(last.objective - ref.objective) <= \
                1e-9 * max(1.0, abs(ref.objective))
            primal, dual, gap = fresh.residuals(last)
            assert primal <= 1e-7 and dual <= 1e-7 and gap <= 1e-6
            bases.append(ws.basis())
    assert min(checked.values()) >= 20, checked


def test_missing_highs_binding_fails_at_import(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core",
                        types.ModuleType("scipy.optimize._highspy._core"))
    spec = importlib.util.spec_from_file_location("lp_without_highs",
                                                  lp.__file__)
    with pytest.raises(ImportError) as err:
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert scipy.__version__ in str(err.value)
    assert lp.TESTED_SCIPY in str(err.value)
