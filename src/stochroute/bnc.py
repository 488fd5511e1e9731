"""Exact solver: LP-based branch and bound with lazy connectivity cuts.

Node selection is best bound with depth-first plunging after each new
incumbent; branching picks the most fractional binary, assignment variables
before depot activations before arc variables, ties to the lowest column.
Integer candidates are always screened by strongly-connected-component
separation before acceptance; fractional min-cut separation runs at shallow
nodes and periodically below. There is no node limit.
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


INT_TOL = 1e-6  # a binary this close to an integer counts as integral
VIOLATION_TOL = 1e-4  # a fractional cut must be violated by more than this
FRAC_DEPTH = 5  # fractional separation runs at every node this shallow
FRAC_EVERY = 10  # ... and at every FRAC_EVERY-th node below


@dataclass
class SolveParams:
    time_limit_s: float = 3600.0
    rel_gap: float = 1e-6
    cuts_per_component: str = "one"  # "one" | "all"
    node_log: int = 0  # log every N nodes; 0 disables


@dataclass
class Solution:
    tours: list            # per vehicle, vertex ids, depot ... depot (or [])
    assignment: np.ndarray  # (|T|, n) binary
    excess: np.ndarray      # (n, |Omega|) of the solved instance
    objective: float
    travel: float           # first-stage part of the objective
    bound: float
    gap: float
    status: str             # "optimal" | "time_limit" | "numerical_error"
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


def _extract_tours(instance: Instance, varmap, point):
    tours = []
    for k in range(instance.num_vehicles):
        d = instance.depot_vertex(k)
        x = varmap.x[k]
        us, vs = np.nonzero((x >= 0) & (point[x] > 1.0 - 10 * INT_TOL))
        succ = dict(zip(us.tolist(), vs.tolist()))
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


def _branch_candidate(varmap, point):
    """Most fractional binary: y, then h, then x; ties to the lowest column."""
    for cols in (varmap.y.ravel(), varmap.h, varmap.x[varmap.x >= 0]):
        frac = np.abs(point[cols] - np.round(point[cols]))
        best = int(np.argmax(frac))  # the first maximum: the lowest column
        if frac[best] > INT_TOL:
            return int(cols[best])
    return None


def _relative_gap(incumbent: float, bound: float) -> float:
    if not math.isfinite(incumbent):
        return math.inf
    return (incumbent - bound) / max(1.0, abs(incumbent))


def solve(instance: Instance, params: SolveParams = None,
          model_kind: str = "stochastic") -> Solution:
    """Solve the two-stage model (or the EVP) to proven optimality.

    The EVP is the two-stage model of the mean-value instance, so the
    returned excess has one column. Returns the incumbent with its bound and
    gap. Status is "time_limit" when the clock ran out before certification,
    and "numerical_error" when a node's LP failed even after a cold retry;
    the bound is -inf when the search stopped before any node closed.
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
             "integer_separations": 0, "fractional_separations": 0,
             "lp_failures": 0}

    base_lb, base_ub = ws.lb.copy(), ws.ub.copy()
    # node: (bound, seq, depth, fixings {col: (lb, ub)}, parent's LP basis)
    seq = 0
    heap = [(-math.inf, seq, 0, {}, None)]
    dive = []
    plunging = False
    stopped = None  # "time_limit" | "numerical_error" when the search quits
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

    def solve_lp(lb, ub):
        # a failed LP is retried once from a cold start; None if it fails again
        for _ in range(2):
            sol = ws.solve(lb=lb, ub=ub)
            stats["lp_solves"] += 1
            if sol.status in ("optimal", "infeasible"):
                return sol
            stats["lp_failures"] += 1
            ws.clear_solver()
        return None

    while heap or dive:
        if out_of_time():
            stopped = "time_limit"
            break
        if plunging and dive:
            node_bound, _, depth, fixings, basis = dive.pop()
        else:
            node_bound, _, depth, fixings, basis = heapq.heappop(heap)
            plunging = False
        if _relative_gap(incumbent_obj, node_bound) <= params.rel_gap:
            continue
        stats["nodes"] += 1
        in_node = True  # this node's subtree is covered by node_bound only
        lb, ub = base_lb.copy(), base_ub.copy()
        for col, (lo, hi) in fixings.items():
            lb[col], ub[col] = lo, hi
        if basis is not None:
            ws.set_basis(basis)

        while True:
            if out_of_time():
                stopped = "time_limit"
                break
            sol = solve_lp(lb, ub)
            if sol is None:
                stopped = "numerical_error"
                break
            if sol.status == "infeasible":
                break
            node_bound = max(node_bound, sol.objective)
            if _relative_gap(incumbent_obj, node_bound) <= params.rel_gap:
                break
            point = sol.primal
            ints = model.is_int
            frac = np.abs(point[ints] - np.round(point[ints]))
            is_integer = bool(np.max(frac, initial=0.0) <= INT_TOL)
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
                tours = _extract_tours(instance, varmap, point)
                assignment = np.round(point[varmap.y])
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
            if depth <= FRAC_DEPTH or stats["nodes"] % FRAC_EVERY == 0:
                stats["fractional_separations"] += 1
                cuts = []
                for k in range(instance.num_vehicles):
                    sg = separation.build_support_graph(
                        instance, varmap, point, k, eps=1e-7)
                    cuts.extend(separation.separate_fractional(
                        sg, VIOLATION_TOL, params.cuts_per_component))
                if add_cuts(cuts):
                    continue
            # branch
            col = _branch_candidate(varmap, point)
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
            # both children restart from this node's final basis
            basis = ws.basis()
            # prefer the side the LP leans toward when plunging
            first_up = point[col] >= 0.5
            children = [
                (node_bound, seq_down, depth + 1, down, basis),
                (node_bound, seq, depth + 1, up, basis),
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

        if stopped:
            break
        in_node = False  # node closed: pruned, accepted, or branched
        best_bound = min(open_bounds())
        if params.node_log and stats["nodes"] % params.node_log == 0:
            log.append({"event": "node", "node": stats["nodes"],
                        "bound": best_bound, "incumbent": incumbent_obj,
                        "time": time.monotonic() - t0})

    if stopped:
        # a valid global bound covers every open node plus, when the search
        # quit mid-node, that node's own subtree
        opened = open_bounds()
        if in_node:
            opened.append(node_bound)
        best_bound = min(opened)
        status = stopped
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
