import numpy as np
import pytest

from stochroute import SolveParams, build_two_stage
from stochroute.oracle import brute_force_min_cut, brute_force_solve
from stochroute.separation import (Cut, FlowNetwork, SupportGraph,
                                   build_support_graph, cut_row, max_flow,
                                   separate_fractional, separate_integer,
                                   tarjan_scc)
from tests.conftest import random_instance


def sg(depot, arcs, y, vehicle=0):
    vertices = {depot} | set(y)
    for (u, v) in arcs:
        vertices |= {u, v}
    return SupportGraph(vehicle=vehicle, depot=depot, vertices=vertices,
                        arcs=dict(arcs), y=dict(y))


class TestTarjan:
    def test_two_cycles(self):
        adj = {0: [1], 1: [0], 2: [3], 3: [2]}
        comps = {frozenset(c) for c in tarjan_scc({0, 1, 2, 3}, adj)}
        assert comps == {frozenset({0, 1}), frozenset({2, 3})}

    def test_dag_gives_singletons(self):
        adj = {0: [1], 1: [2]}
        comps = tarjan_scc({0, 1, 2}, adj)
        assert sorted(len(c) for c in comps) == [1, 1, 1]

    def test_large_cycle(self):
        n = 500
        adj = {i: [(i + 1) % n] for i in range(n)}
        comps = tarjan_scc(set(range(n)), adj)
        assert len(comps) == 1 and len(comps[0]) == n


def random_graph(rng, density=0.4):
    nv = int(rng.integers(3, 9))
    arcs = {(u, v): float(rng.uniform(0, 1))
            for u in range(nv) for v in range(nv)
            if u != v and rng.random() < density}
    return set(range(nv)), arcs


def cut_capacity(arcs, sink):
    return sum(w for (u, v), w in arcs.items() if u not in sink and v in sink)


class TestMaxFlow:
    def test_single_arc(self):
        value, sink = max_flow(FlowNetwork({0, 1}, {(0, 1): 3.0}, 0), 1)
        assert value == pytest.approx(3.0)
        assert sink == {1}

    def test_parallel_paths(self):
        arcs = {(0, 1): 1.0, (1, 3): 2.0, (0, 2): 2.0, (2, 3): 1.0}
        value, sink = max_flow(FlowNetwork({0, 1, 2, 3}, arcs, 0), 3)
        assert value == pytest.approx(2.0)

    def test_disconnected_sink(self):
        value, sink = max_flow(FlowNetwork({0, 1, 2}, {(0, 1): 5.0}, 0), 2)
        assert value == 0.0
        assert sink == {2}

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork({0, 1}, {(0, 1): -1.0}, 0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            nv = int(rng.integers(3, 9))
            vertices = set(range(nv))
            arcs = {}
            for u in range(nv):
                for v in range(nv):
                    if u != v and rng.random() < 0.4:
                        arcs[(u, v)] = float(rng.uniform(0, 1))
            value, sink = max_flow(FlowNetwork(vertices, arcs, 0), nv - 1)
            ref_value, _ = brute_force_min_cut(vertices, arcs, 0, nv - 1)
            assert value == pytest.approx(ref_value, abs=1e-9)
            # the returned sink side must realize the min-cut value
            crossing = sum(w for (u, v), w in arcs.items()
                           if u not in sink and v in sink)
            assert crossing == pytest.approx(value, abs=1e-9)

    def test_reused_network_matches_fresh_per_sink(self):
        # max_flow works on a copy of the capacities, so one network
        # answers every sink exactly as a new network would
        rng = np.random.default_rng(1)
        for _ in range(300):
            vertices, arcs = random_graph(rng)
            shared = FlowNetwork(vertices, arcs, 0)
            for t in sorted(vertices - {0}):
                value, sink = max_flow(shared, t)
                assert (value, sink) == max_flow(
                    FlowNetwork(vertices, arcs, 0), t)
                ref_value, _ = brute_force_min_cut(vertices, arcs, 0, t)
                assert value == pytest.approx(ref_value, abs=1e-9)
                assert t in sink and 0 not in sink
                assert cut_capacity(arcs, sink) == pytest.approx(value,
                                                                 abs=1e-9)

    def test_need_stops_early_or_returns_the_min_cut(self):
        rng = np.random.default_rng(2)
        stopped = cut = 0
        for _ in range(300):
            vertices, arcs = random_graph(rng)
            net = FlowNetwork(vertices, arcs, 0)
            for t in sorted(vertices - {0}):
                ref_value, _ = brute_force_min_cut(vertices, arcs, 0, t)
                need = float(rng.uniform(0, 1.5))
                value, sink = max_flow(net, t, need=need)
                if sink is None:
                    stopped += 1
                    assert value >= need
                else:
                    cut += 1
                    assert value < need
                    assert value == pytest.approx(ref_value, abs=1e-9)
                    assert cut_capacity(arcs, sink) == pytest.approx(value,
                                                                 abs=1e-9)
        assert stopped and cut  # both outcomes were exercised


class TestIntegerSeparation:
    def test_textbook_subtour(self):
        g = sg(depot=9, arcs={(9, 0): 1, (0, 9): 1, (1, 2): 1, (2, 1): 1},
               y={0: 1.0, 1: 1.0, 2: 1.0})
        cuts = separate_integer(g)
        assert len(cuts) == 1
        assert cuts[0].set_S == frozenset({1, 2})
        assert cuts[0].anchor in {1, 2}

    def test_clean_tour_produces_no_cuts(self):
        g = sg(depot=9, arcs={(9, 0): 1, (0, 1): 1, (1, 9): 1},
               y={0: 1.0, 1: 1.0})
        assert separate_integer(g) == []

    def test_two_disjoint_cycles(self):
        arcs = {(9, 0): 1, (0, 9): 1,
                (1, 2): 1, (2, 1): 1, (3, 4): 1, (4, 3): 1}
        g = sg(depot=9, arcs=arcs, y={i: 1.0 for i in range(5)})
        cuts = separate_integer(g)
        assert {c.set_S for c in cuts} == {frozenset({1, 2}),
                                           frozenset({3, 4})}

    def test_anchor_prefers_largest_y(self):
        g = sg(depot=9, arcs={(1, 2): 1, (2, 1): 1},
               y={1: 0.6, 2: 0.9})
        cuts = separate_integer(g)
        assert cuts[0].anchor == 2

    def test_stay_home_vehicle(self):
        g = sg(depot=9, arcs={}, y={})
        assert separate_integer(g) == []


class TestFractionalSeparation:
    def test_value_one_flow_means_no_cut(self):
        g = sg(depot=9, arcs={(9, 0): 1.0, (0, 9): 1.0}, y={0: 1.0})
        assert separate_fractional(g) == []

    def test_constructed_fractional_violation(self):
        # d->a 0.5, a->d 0.5, a<->b 0.5 each, b<->c 1.0 each, y_c = 1:
        # the min d-c cut is 0.5 < 1, so c is cut off
        d, a, b, c = 9, 0, 1, 2
        arcs = {(d, a): 0.5, (a, d): 0.5, (a, b): 0.5, (b, a): 0.5,
                (b, c): 1.0, (c, b): 1.0}
        y = {a: 0.5, b: 1.0, c: 1.0}
        value, _ = max_flow(FlowNetwork({d, a, b, c}, arcs, d), c)
        ref_value, _ = brute_force_min_cut({d, a, b, c}, arcs, d, c)
        assert value == pytest.approx(0.5) == pytest.approx(ref_value)
        cuts = separate_fractional(sg(depot=d, arcs=arcs, y=y))
        assert any(c in cut.set_S for cut in cuts)

    def test_emitted_cuts_are_violated(self, tiny_instance):
        inst = tiny_instance
        model, varmap = build_two_stage(inst)
        from stochroute.lp import LpWorkspace
        point = LpWorkspace(model).solve().primal
        for k in range(inst.num_vehicles):
            g = build_support_graph(inst, varmap, point, k, eps=1e-7)
            for cut in separate_fractional(g, violation_tol=1e-4):
                row = cut_row(cut, inst, varmap)
                assert -np.dot(row.coefs, point[row.cols]) > 1e-4


def test_support_graph_from_integer_point(tiny_instance):
    inst = tiny_instance
    model, varmap = build_two_stage(inst)
    from stochroute import bnc
    sol = bnc.solve(inst, SolveParams())
    point = np.zeros(model.num_cols)
    for k, tour in enumerate(sol.tours):
        for u, v in zip(tour, tour[1:]):
            point[varmap.x[k, u, v]] = 1.0
    point[varmap.y] = sol.assignment
    for k, tour in enumerate(sol.tours):
        g = build_support_graph(inst, varmap, point, k, eps=0.5)
        if tour:
            assert len(g.arcs) == len(tour) - 1
            assert separate_integer(g) == []
        else:
            assert g.arcs == {}


def test_cuts_valid_at_oracle_optimum():
    # every cut generated anywhere must hold at the true integer optimum
    for seed in (11, 12, 13):
        inst = random_instance(seed, nt=5, n=2, num_scenarios=2)
        model, varmap = build_two_stage(inst)
        orc = brute_force_solve(inst)
        point = np.zeros(model.num_cols)
        for k, tour in enumerate(orc.tours):
            for u, v in zip(tour, tour[1:]):
                point[varmap.x[k, u, v]] = 1.0
        point[varmap.y] = orc.assignment
        from stochroute.lp import LpWorkspace
        frac = LpWorkspace(model).solve().primal
        cuts = []
        for k in range(inst.num_vehicles):
            g = build_support_graph(inst, varmap, frac, k, eps=1e-7)
            cuts.extend(separate_fractional(g))
        for cut in cuts:
            row = cut_row(cut, inst, varmap)
            lhs = sum(a * point[c] for c, a in zip(row.cols, row.coefs))
            assert lhs >= row.rhs - 1e-9


def test_cut_row_shape(tiny_instance):
    inst = tiny_instance
    _, varmap = build_two_stage(inst)
    cut = Cut(vehicle=0, set_S=frozenset({0, 1}), anchor=0)
    row = cut_row(cut, inst, varmap)
    assert row.sense == ">=" and row.rhs == 0.0
    assert row.coefs.count(-1.0) == 1
    # arcs from S to outside: |S| * (|T| - |S| + 1 depot)
    assert len(row.cols) == 2 * (inst.num_targets - 2 + 1) + 1
