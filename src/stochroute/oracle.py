"""Brute-force ground truth for tests: exhaustive solving and min cuts.

Deliberately independent of the branch-and-cut path: assignments are
enumerated outright, tours come from permutation search, and min cuts from
subset enumeration. Hard guards refuse anything large enough to blow up.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import model, recourse
from .bnc import Solution
from .instance import Instance


class OracleGuardError(ValueError):
    pass


def _best_tour(cost, depot, targets):
    """Cheapest closed walk depot -> all targets -> depot by permutations."""
    if not targets:
        return 0.0, []
    best_cost, best_perm = math.inf, None
    for perm in itertools.permutations(sorted(targets)):
        c = cost[depot, perm[0]]
        for u, v in zip(perm, perm[1:]):
            c += cost[u, v]
        c += cost[perm[-1], depot]
        if c < best_cost:
            best_cost, best_perm = c, perm
    return float(best_cost), [depot] + list(best_perm) + [depot]


def brute_force_solve(instance: Instance, kind: str = "stochastic") -> Solution:
    """Exact optimum by enumerating assignments and tour permutations."""
    instance.validate()
    nt, n = instance.num_targets, instance.num_vehicles
    if nt > 9:
        raise OracleGuardError(f"too many targets for the oracle ({nt} > 9)")
    common = instance.common_targets
    if n ** len(common) > 10 ** 6:
        raise OracleGuardError("too many feasible assignments for the oracle")

    cost = {k: model.vehicle_cost_matrix(instance, k) for k in range(n)}
    gammas = np.array([v.gamma for v in instance.vehicles])
    scen, tau_bar = instance.scenarios, instance.tau_bar
    tau, prob = {
        "stochastic": (scen.tau, scen.prob),
        "evp": (scen.expected_tau()[:, :, None], np.array([1.0])),
    }[kind]

    tour_memo = {}

    def tour_for(k, targets):
        key = (k, targets)
        if key not in tour_memo:
            tour_memo[key] = _best_tour(cost[k], instance.depot_vertex(k),
                                        targets)
        return tour_memo[key]

    penalty_memo = {}

    def penalty_for(k, targets):
        key = (k, targets)
        if key not in penalty_memo:
            if targets:
                idx = list(targets)
                diff = (tau[idx, k, :] - tau_bar[idx, k][:, None]).sum(axis=0)
                excess = np.clip(diff, 0.0, None)
            else:
                excess = np.zeros(tau.shape[2])
            penalty_memo[key] = (float(gammas[k] * np.dot(prob, excess)),
                                 excess)
        return penalty_memo[key]

    best = None
    for choice in itertools.product(range(n), repeat=len(common)):
        sets = [set(instance.required[k]) for k in range(n)]
        for tgt, k in zip(common, choice):
            sets[k].add(tgt)
        total = travel = 0.0
        pieces = []
        for k in range(n):
            targets = frozenset(sets[k])
            length, tour = tour_for(k, targets)
            pen, excess = penalty_for(k, targets)
            total += length + pen
            travel += length
            pieces.append((tour, excess))
        if best is None or total < best[0] - 1e-12:
            best = (total, travel, [p[0] for p in pieces],
                    np.array([p[1] for p in pieces]), sets)

    total, travel, tours, excess, sets = best
    assignment = np.zeros((nt, n))
    for k in range(n):
        for i in sets[k]:
            assignment[i, k] = 1.0
    return Solution(tours=tours, assignment=assignment, excess=excess,
                    objective=total, travel=travel, bound=total, gap=0.0,
                    status="optimal", stats={"method": "brute_force"})


def brute_force_min_cut(vertices, arcs, s, t):
    """Minimum s-t cut by enumerating sink-side subsets; <= 10 vertices.

    Ties break to the smallest sink side, then lexicographically.
    """
    vertices = sorted(set(vertices) | {s, t})
    if len(vertices) > 10:
        raise OracleGuardError("too many vertices for the min-cut oracle")
    middle = [v for v in vertices if v not in (s, t)]
    best = None
    for mask in range(2 ** len(middle)):
        sink = {t} | {v for b, v in enumerate(middle) if mask >> b & 1}
        cap = sum(w for (u, v), w in arcs.items() if u not in sink and v in sink)
        key = (cap, len(sink), tuple(sorted(sink, key=repr)))
        if best is None or key < best[0]:
            best = (key, sink)
    (cap, _, _), sink = best
    return cap, sink
