"""Exact solver: LP-based branch and bound with lazy connectivity cuts.

Node selection is best bound with depth-first plunging after each new
incumbent; branching picks the most fractional binary, assignment variables
before arc variables, ties to the lowest index. Integer candidates are always
screened by strongly-connected-component separation before acceptance;
fractional min-cut separation runs at shallow nodes and periodically below.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import separation
from .instance import Instance
from .lp import LpWorkspace
from .model import build_evp, build_two_stage, second_stage


@dataclass
class SolveParams:
    time_limit_s: float = 3600.0
    rel_gap: float = 1e-6
    int_tol: float = 1e-6
    violation_tol: float = 1e-4
    cuts_per_component: str = "one"  # "one" | "all"
    fractional_separation: str = "depth"  # "on" | "off" | "depth"
    frac_depth: int = 5
    frac_every: int = 10
    node_log: int = 0  # log every N nodes; 0 disables
    max_nodes: int = 10_000_000


@dataclass
class Solution:
    tours: list            # per vehicle, vertex ids, depot ... depot (or [])
    assignment: np.ndarray  # (|T|, n) binary
    excess: np.ndarray      # (n, |Omega|) of the solved instance
    objective: float
    travel: float           # first-stage part of the objective
    bound: float
    gap: float
    status: str             # "optimal" | "time_limit"
    stats: dict = field(default_factory=dict)
    log: list = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.status == "optimal"


class SolveError(RuntimeError):
    pass


def _tour_cost(cost_matrices, tours) -> float:
    total = 0.0
    for k, tour in enumerate(tours):
        for u, v in zip(tour, tour[1:]):
            total += float(cost_matrices[k][u, v])
    return total


def greedy_incumbent(instance: Instance, cost_matrices):
    """Cheap feasible start: nearest-insertion assignment, greedy tours.

    Required targets go to their vehicle; each common target joins the
    vehicle whose cheapest-insertion cost into the current tour is smallest.
    """
    n, nt = instance.num_vehicles, instance.num_targets
    tours = [[instance.depot_vertex(k)] for k in range(n)]
    assigned = [set(instance.required[k]) for k in range(n)]

    def insertion_cost(k, tour, tgt):
        c = cost_matrices[k]
        if len(tour) == 1:
            d = tour[0]
            return c[d, tgt] + c[tgt, d], 1
        best, pos = math.inf, 1
        for p in range(len(tour) - 1):
            u, v = tour[p], tour[p + 1]
            delta = c[u, tgt] + c[tgt, v] - c[u, v]
            if delta < best:
                best, pos = delta, p + 1
        return best, pos

    # seed required targets by repeated cheapest insertion
    for k in range(n):
        for tgt in sorted(instance.required[k]):
            cost, pos = insertion_cost(k, tours[k], tgt)
            if len(tours[k]) == 1:
                tours[k] = [tours[k][0], tgt, tours[k][0]]
            else:
                tours[k].insert(pos, tgt)
    for tgt in instance.common_targets:
        best_k, best_cost, best_pos = 0, math.inf, 1
        for k in range(n):
            cost, pos = insertion_cost(k, tours[k], tgt)
            if cost < best_cost:
                best_k, best_cost, best_pos = k, cost, pos
        if len(tours[best_k]) == 1:
            tours[best_k] = [tours[best_k][0], tgt, tours[best_k][0]]
        else:
            tours[best_k].insert(best_pos, tgt)
        assigned[best_k].add(tgt)

    tours = [t if len(t) > 1 else [] for t in tours]
    assignment = np.zeros((nt, n))
    for k in range(n):
        for tgt in assigned[k]:
            assignment[tgt, k] = 1.0
    excess, penalty = second_stage(instance, assignment)
    travel = _tour_cost(cost_matrices, tours)
    return Solution(tours=tours, assignment=assignment, excess=excess,
                    objective=travel + penalty, travel=travel,
                    bound=-math.inf, gap=math.inf, status="heuristic")


def _extract_tours(instance: Instance, varmap, point, int_tol):
    tours = []
    for k in range(instance.num_vehicles):
        d = instance.depot_vertex(k)
        succ = {}
        for (kk, u, v), col in varmap.x_index.items():
            if kk == k and point[col] > 1.0 - 10 * max(int_tol, 1e-6):
                succ[u] = v
        if d not in succ:
            tours.append([])
            continue
        tour = [d]
        cur = succ[d]
        while cur != d:
            tour.append(cur)
            cur = succ[cur]
        tour.append(d)
        tours.append(tour)
    return tours


def _branch_candidate(model, varmap, point, int_tol):
    """Most fractional binary; y before h before x; lowest index breaks ties."""
    best_col, best_score = None, int_tol
    for (i, k) in sorted(varmap.y_index):
        col = varmap.y_index[(i, k)]
        frac = abs(point[col] - round(point[col]))
        if frac > best_score:
            best_col, best_score = col, frac
    if best_col is not None:
        return best_col
    for k in sorted(varmap.h_index):
        col = varmap.h_index[k]
        frac = abs(point[col] - round(point[col]))
        if frac > best_score:
            best_col, best_score = col, frac
    if best_col is not None:
        return best_col
    for key in sorted(varmap.x_index):
        col = varmap.x_index[key]
        frac = abs(point[col] - round(point[col]))
        if frac > best_score:
            best_col, best_score = col, frac
    return best_col


def _relative_gap(incumbent: float, bound: float) -> float:
    if not math.isfinite(incumbent):
        return math.inf
    return (incumbent - bound) / max(1.0, abs(incumbent))


def solve(instance: Instance, params: SolveParams = None,
          model_kind: str = "stochastic") -> Solution:
    """Solve the two-stage model (or the EVP) to proven optimality.

    The EVP is the two-stage model of the mean-value instance, so the
    returned excess has one column. Returns the incumbent with its bound and
    gap; status is "time_limit" when the clock ran out before certification.
    """
    params = params or SolveParams()
    instance.validate()
    build_model = {"stochastic": build_two_stage, "evp": build_evp}
    if model_kind not in build_model:
        raise ValueError(f"unknown model kind {model_kind!r}")
    t0 = time.monotonic()
    model, varmap = build_model[model_kind](instance)
    instance = model.instance
    cost_matrices = model.cost_matrices
    ws = LpWorkspace(model)

    incumbent = greedy_incumbent(instance, cost_matrices)
    incumbent_obj = incumbent.objective
    log = [{"event": "heuristic", "objective": incumbent_obj, "time": 0.0}]

    cut_pool = set()  # (vehicle, set_S) pairs already added
    stats = {"nodes": 0, "lp_solves": 0, "cuts_added": 0,
             "integer_separations": 0, "fractional_separations": 0}

    base_lb, base_ub = ws.lb.copy(), ws.ub.copy()
    # node: (bound, seq, depth, fixings {col: (lb, ub)})
    seq = 0
    heap = [(-math.inf, seq, 0, {})]
    dive = []
    plunging = False
    timed_out = False
    in_node = False

    def out_of_time():
        return time.monotonic() - t0 > params.time_limit_s

    def open_bounds():
        # the incumbent bounds the optimum too, and caps open nodes whose
        # bounds it has overtaken since they were created
        vals = [b for b, *_ in heap]
        vals += [b for b, *_ in dive]
        return vals + [incumbent_obj]

    def add_cuts(cuts):
        rows = []
        for cut in cuts:
            key = (cut.vehicle, cut.set_S)
            if key in cut_pool:
                continue
            cut_pool.add(key)
            rows.append(separation.cut_row(cut, instance, varmap))
        if rows:
            ws.add_rows(rows)
            stats["cuts_added"] += len(rows)
        return bool(rows)

    while heap or dive:
        if stats["nodes"] >= params.max_nodes:
            timed_out = True
            break
        if out_of_time():
            timed_out = True
            break
        if plunging and dive:
            node_bound, _, depth, fixings = dive.pop()
        else:
            node_bound, _, depth, fixings = heapq.heappop(heap)
            plunging = False
        if _relative_gap(incumbent_obj, node_bound) <= params.rel_gap:
            continue
        stats["nodes"] += 1
        in_node = True  # this node's subtree is covered by node_bound only
        lb, ub = base_lb.copy(), base_ub.copy()
        for col, (lo, hi) in fixings.items():
            lb[col], ub[col] = lo, hi

        while True:
            if out_of_time():
                timed_out = True
                break
            sol = ws.solve(lb=lb, ub=ub)
            stats["lp_solves"] += 1
            if sol.status != "optimal":
                break
            node_bound = max(node_bound, sol.objective)
            if _relative_gap(incumbent_obj, node_bound) <= params.rel_gap:
                break
            point = sol.primal
            ints = model.is_int
            frac = np.abs(point[ints] - np.round(point[ints]))
            is_integer = bool(np.max(frac, initial=0.0) <= params.int_tol)
            if is_integer:
                stats["integer_separations"] += 1
                cuts = []
                for k in range(instance.num_vehicles):
                    sg = separation.build_support_graph(
                        instance, varmap, point, k, eps=0.5)
                    cuts.extend(separation.separate_integer(
                        sg, params.cuts_per_component))
                if add_cuts(cuts):
                    continue
                # accepted: recompute the objective exactly
                tours = _extract_tours(instance, varmap, point, params.int_tol)
                assignment = np.zeros((instance.num_targets,
                                       instance.num_vehicles))
                for (i, k), col in varmap.y_index.items():
                    assignment[i, k] = round(float(point[col]))
                excess, penalty = second_stage(instance, assignment)
                travel = _tour_cost(cost_matrices, tours)
                obj = travel + penalty
                if obj < incumbent_obj - 1e-12:
                    incumbent = Solution(
                        tours=tours, assignment=assignment, excess=excess,
                        objective=obj, travel=travel, bound=-math.inf,
                        gap=math.inf, status="incumbent")
                    incumbent_obj = obj
                    plunging = True
                    log.append({"event": "incumbent", "objective": obj,
                                "node": stats["nodes"],
                                "time": time.monotonic() - t0})
                break
            do_frac = params.fractional_separation == "on" or (
                params.fractional_separation == "depth"
                and (depth <= params.frac_depth
                     or stats["nodes"] % params.frac_every == 0))
            if do_frac:
                stats["fractional_separations"] += 1
                cuts = []
                for k in range(instance.num_vehicles):
                    sg = separation.build_support_graph(
                        instance, varmap, point, k, eps=1e-7)
                    cuts.extend(separation.separate_fractional(
                        sg, params.violation_tol, params.cuts_per_component))
                if add_cuts(cuts):
                    continue
            # branch
            col = _branch_candidate(model, varmap, point, params.int_tol)
            if col is None:
                # numerically integer after all; loop once more with a
                # tighter integrality view
                break
            seq += 1
            down = dict(fixings)
            down[col] = (lb[col], 0.0)
            seq_down = seq
            seq += 1
            up = dict(fixings)
            up[col] = (1.0, ub[col])
            frac_val = point[col]
            child_bound = node_bound
            # prefer the side the LP leans toward when plunging
            first_up = frac_val >= 0.5
            children = [
                (child_bound, seq_down, depth + 1, down),
                (child_bound, seq, depth + 1, up),
            ]
            if plunging:
                preferred = children[1] if first_up else children[0]
                other = children[0] if first_up else children[1]
                dive.append(preferred)
                heapq.heappush(heap, other)
            else:
                for child in children:
                    heapq.heappush(heap, child)
            break

        if timed_out:
            break
        in_node = False  # node closed: pruned, accepted, or branched
        best_bound = min(open_bounds())
        if params.node_log and stats["nodes"] % params.node_log == 0:
            log.append({"event": "node", "node": stats["nodes"],
                        "bound": best_bound, "incumbent": incumbent_obj,
                        "time": time.monotonic() - t0})

    if timed_out:
        # a valid global bound covers every open node plus, when the clock
        # ran out mid-node, the interrupted node's own subtree
        opened = open_bounds()
        if in_node:
            opened.append(node_bound)
        best_bound = min(opened)
        status = "time_limit"
        if not math.isfinite(best_bound):
            best_bound = -math.inf
    else:
        best_bound = incumbent_obj
        status = "optimal"

    if not math.isfinite(incumbent_obj):
        raise SolveError("no feasible solution found (should not happen)")
    gap = max(0.0, _relative_gap(incumbent_obj, best_bound))
    stats["wall_time_s"] = time.monotonic() - t0
    return Solution(
        tours=incumbent.tours, assignment=incumbent.assignment,
        excess=incumbent.excess, objective=incumbent_obj,
        travel=incumbent.travel, bound=best_bound, gap=gap, status=status,
        stats=stats, log=log,
    )
