"""Lazy generation of subtour-elimination (connectivity) inequalities.

A cut (vehicle k, set S of targets, anchor i in S) stands for the row

    sum_{(u,v): u in S, v not in S} x_uv^k  -  y_i^k  >=  0.

Integer points are screened with strongly connected components of the
per-vehicle support graph; fractional points additionally get minimum
depot-to-target cuts on the capacitated support graph. Those come from one
`FlowNetwork` per support graph, probed once per candidate target i by
`max_flow`, which uses shortest augmenting paths (Edmonds & Karp 1972) and
stops as soon as the flow shows that no cut for i is violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Row

_RESIDUAL_EPS = 1e-12  # residual capacity that still carries flow


@dataclass(frozen=True)
class Cut:
    vehicle: int
    set_S: frozenset  # target ids, never a depot
    anchor: int       # target id, member of set_S

    def __post_init__(self):
        assert self.anchor in self.set_S


@dataclass
class SupportGraph:
    """Positive part of a relaxation point for one vehicle."""

    vehicle: int
    depot: int
    vertices: set            # target ids with y > 0, plus the depot
    arcs: dict               # (u, v) -> weight x_uv > 0
    y: dict                  # target id -> y value


def build_support_graph(instance, varmap, point, vehicle, eps=1e-9) -> SupportGraph:
    """Support graph of `point` (a primal vector) for one vehicle."""
    depot = instance.depot_vertex(vehicle)
    y = {i: v for i, v in enumerate(point[varmap.y[:, vehicle]].tolist())
         if v > eps}
    x = varmap.x[vehicle]
    weights = np.where(x >= 0, point[x], 0.0)  # -1 marks a missing arc
    us, vs = np.nonzero(weights > eps)
    arcs = dict(zip(zip(us.tolist(), vs.tolist()), weights[us, vs].tolist()))
    vertices = set(y) | {depot} | set(us.tolist()) | set(vs.tolist())
    return SupportGraph(vehicle=vehicle, depot=depot, vertices=vertices,
                        arcs=arcs, y=y)


def tarjan_scc(vertices, adjacency):
    """Strongly connected components, iterative Tarjan; deterministic order."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in sorted(vertices):
        if root in index:
            continue
        work = [(root, iter(sorted(adjacency.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adjacency.get(w, ())))))
                    advanced = True
                    break
                elif w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


class FlowNetwork:
    """Residual network of a capacitated digraph with a fixed source.

    Built once per support graph and shared by every sink probed on it. Arc
    e is the pair 2e (forward, its capacity) and 2e+1 (backward, 0) in the
    flat lists `head` and `cap`; `adj[v]` lists the arcs leaving vertex v,
    and vertices are numbered in sorted id order.
    """

    def __init__(self, vertices, arcs, source):
        self.names = sorted(set(vertices) | {source})
        self.index = index = {v: i for i, v in enumerate(self.names)}
        self.source = index[source]
        self.head, self.cap = [], []
        self.adj = [[] for _ in self.names]
        for (u, v), c in sorted(arcs.items()):
            if c < 0:
                raise ValueError("capacities must be non-negative")
            u, v = index[u], index[v]
            self.adj[u].append(len(self.head))
            self.adj[v].append(len(self.head) + 1)
            self.head += (v, u)
            self.cap += (c, 0.0)


def max_flow(net: FlowNetwork, t, need=math.inf):
    """Max flow from the network's source to t, by shortest augmenting paths.

    Returns (value, sink side). The sink side is the set of vertices the
    source cannot reach in the final residual graph: the largest sink side
    of any minimum cut, the same set for every maximum flow. Once the flow
    reaches `need` it stops and returns (value, None) instead.
    """
    s, t = net.source, net.index[t]
    head, adj, cap = net.head, net.adj, net.cap.copy()
    value = 0.0
    while value < need:
        pred = [-1] * len(adj)  # the arc that reached each vertex
        pred[s] = -2
        queue = [s]
        for v in queue:
            for a in adj[v]:
                w = head[a]
                if pred[w] == -1 and cap[a] > _RESIDUAL_EPS:
                    pred[w] = a
                    queue.append(w)
            if pred[t] != -1:
                break
        else:  # t is unreachable: the flow is maximum
            return value, {net.names[v] for v, a in enumerate(pred) if a == -1}
        f, v = math.inf, t
        while v != s:
            a = pred[v]
            if cap[a] < f:
                f = cap[a]
            v = head[a ^ 1]
        v = t
        while v != s:
            a = pred[v]
            cap[a] -= f
            cap[a ^ 1] += f
            v = head[a ^ 1]
        value += f
    return value, None


def _subtour_cuts(sg: SupportGraph, sccs):
    """One cut per depot-free strongly connected component of two or more
    vertices, anchored at its target with the largest y (ties to the lowest
    id)."""
    return [Cut(vehicle=sg.vehicle, set_S=s,
                anchor=max(s, key=lambda i: (sg.y.get(i, 0.0), -i)))
            for s in map(frozenset, sccs) if sg.depot not in s and len(s) >= 2]


def _support_violation(sg: SupportGraph, cut: Cut) -> float:
    """y_anchor - x(delta+(S)) evaluated on the support graph."""
    crossing = sum(w for (u, v), w in sg.arcs.items()
                   if u in cut.set_S and v not in cut.set_S)
    return sg.y.get(cut.anchor, 0.0) - crossing


def _strong_components(sg: SupportGraph):
    adjacency = {}
    for (u, v) in sg.arcs:
        adjacency.setdefault(u, []).append(v)
    return tarjan_scc(sg.vertices, adjacency)


def separate_integer(sg: SupportGraph):
    """SCC screening of an integer point; empty iff one depot-anchored tour.

    Singleton components are skipped: a visited target at an integer
    degree-feasible point always sits on a cycle of length >= 2.
    """
    return _subtour_cuts(sg, _strong_components(sg))


def separate_fractional(sg: SupportGraph, violation_tol: float = 1e-4):
    """Min-cut separation at a (possibly fractional) point.

    Depot-free strongly connected components yield SCC cuts (kept only when
    actually violated at the point); targets with positive y inside the
    depot's component are probed with a minimum depot-to-target cut on one
    residual network, emitted when its capacity falls short of y by more
    than violation_tol.
    """
    sccs = _strong_components(sg)
    cuts = [cut for cut in _subtour_cuts(sg, sccs)
            if _support_violation(sg, cut) > violation_tol]
    depot_comp = next(comp for comp in sccs if sg.depot in comp)
    candidates = sorted((i for i in depot_comp if i in sg.y),
                        key=lambda i: (-sg.y[i], i))
    net = FlowNetwork(sg.vertices, sg.arcs, sg.depot)
    for i in candidates:
        _, sink_side = max_flow(net, i, need=sg.y[i] - violation_tol)
        if sink_side is not None:
            cuts.append(Cut(vehicle=sg.vehicle, set_S=frozenset(sink_side),
                            anchor=i))
    return cuts


def cut_row(cut: Cut, instance, varmap) -> Row:
    """Materialize a cut as a model row over vehicle k's arc variables."""
    k = cut.vehicle
    inside = sorted(cut.set_S)
    outside = [j for j in range(instance.num_targets) if j not in cut.set_S]
    outside.append(instance.depot_vertex(k))
    arcs = varmap.x[k][np.ix_(inside, outside)].ravel()
    label = "_".join(str(v) for v in inside)
    return Row(cols=np.append(arcs, varmap.y[cut.anchor, k]),
               coefs=[1.0] * arcs.size + [-1.0], sense=">=", rhs=0.0,
               name=f"sec_{k}_{cut.anchor}_{label}")
