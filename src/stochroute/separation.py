"""Lazy generation of subtour-elimination (connectivity) inequalities.

A cut (vehicle k, set S of targets, anchor i in S) stands for the row

    sum_{(u,v): u in S, v not in S} x_uv^k  -  y_i^k  >=  0.

Integer points are screened with strongly connected components of the
per-vehicle support graph; fractional points additionally get minimum
depot-to-target cuts on the capacitated support graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import Row


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


class _Dinic:
    def __init__(self, vertices):
        self.ids = {v: i for i, v in enumerate(sorted(vertices))}
        self.n = len(self.ids)
        self.graph = [[] for _ in range(self.n)]  # [to, cap, rev_index]

    def add_arc(self, u, v, cap):
        u, v = self.ids[u], self.ids[v]
        self.graph[u].append([v, cap, len(self.graph[v])])
        self.graph[v].append([u, 0.0, len(self.graph[u]) - 1])

    def _bfs(self, s, t):
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            for e in self.graph[v]:
                if e[1] > 1e-12 and self.level[e[0]] < 0:
                    self.level[e[0]] = self.level[v] + 1
                    q.append(e[0])
        return self.level[t] >= 0

    def _dfs(self, v, t, f):
        if v == t:
            return f
        while self.it[v] < len(self.graph[v]):
            e = self.graph[v][self.it[v]]
            if e[1] > 1e-12 and self.level[v] < self.level[e[0]]:
                d = self._dfs(e[0], t, min(f, e[1]))
                if d > 0:
                    e[1] -= d
                    self.graph[e[0]][e[2]][1] += d
                    return d
            self.it[v] += 1
        return 0.0

    def max_flow(self, s, t):
        s, t = self.ids[s], self.ids[t]
        flow = 0.0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                f = self._dfs(s, t, float("inf"))
                if f <= 0:
                    break
                flow += f
        # source side = residual-reachable set
        reach = {s}
        q = deque([s])
        while q:
            v = q.popleft()
            for e in self.graph[v]:
                if e[1] > 1e-12 and e[0] not in reach:
                    reach.add(e[0])
                    q.append(e[0])
        names = {i: v for v, i in self.ids.items()}
        sink_side = {names[i] for i in range(self.n) if i not in reach}
        return flow, sink_side


def max_flow(vertices, arcs, s, t):
    """Max s-t flow value and a minimum cut's sink side (contains t)."""
    dinic = _Dinic(set(vertices) | {s, t})
    for (u, v), cap in arcs.items():
        if cap < 0:
            raise ValueError("capacities must be non-negative")
        dinic.add_arc(u, v, cap)
    return dinic.max_flow(s, t)


def _component_cuts(sg: SupportGraph, component, cuts_per_component: str):
    """Cuts for one depot-free strongly connected component."""
    s = frozenset(v for v in component if v != sg.depot)
    targets = sorted(s)
    if not targets:
        return []
    if cuts_per_component == "all":
        anchors = targets
    else:
        anchors = [max(targets, key=lambda i: (sg.y.get(i, 0.0), -i))]
    return [Cut(vehicle=sg.vehicle, set_S=s, anchor=a) for a in anchors]


def _support_violation(sg: SupportGraph, cut: Cut) -> float:
    """y_anchor - x(delta+(S)) evaluated on the support graph."""
    crossing = sum(w for (u, v), w in sg.arcs.items()
                   if u in cut.set_S and v not in cut.set_S)
    return sg.y.get(cut.anchor, 0.0) - crossing


def separate_integer(sg: SupportGraph, cuts_per_component: str = "one"):
    """SCC screening of an integer point; empty iff one depot-anchored tour.

    Singleton components are skipped: a visited target at an integer
    degree-feasible point always sits on a cycle of length >= 2.
    """
    adjacency = {}
    for (u, v) in sg.arcs:
        adjacency.setdefault(u, []).append(v)
    cuts = []
    for comp in tarjan_scc(sg.vertices, adjacency):
        if sg.depot not in comp and len(comp) >= 2:
            cuts.extend(_component_cuts(sg, comp, cuts_per_component))
    return cuts


def separate_fractional(sg: SupportGraph, violation_tol: float = 1e-4,
                        cuts_per_component: str = "one"):
    """Min-cut separation at a (possibly fractional) point.

    Depot-free strongly connected components yield SCC cuts (kept only when
    actually violated at the point); targets with positive y inside the
    depot's component are probed with a minimum depot-to-target cut, emitted
    when its capacity falls short of y by more than violation_tol.
    """
    adjacency = {}
    for (u, v) in sg.arcs:
        adjacency.setdefault(u, []).append(v)
    sccs = tarjan_scc(sg.vertices, adjacency)
    comp_of = {}
    for ci, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = ci
    cuts = []
    seen = set()
    for comp in sccs:
        if sg.depot in comp or len(comp) < 2:
            continue
        for cut in _component_cuts(sg, comp, cuts_per_component):
            key = (cut.vehicle, cut.set_S, cut.anchor)
            if key not in seen and _support_violation(sg, cut) > violation_tol:
                seen.add(key)
                cuts.append(cut)
    depot_comp = comp_of.get(sg.depot)
    candidates = sorted(
        (i for i in sg.y if comp_of.get(i) == depot_comp),
        key=lambda i: (-sg.y[i], i),
    )
    for i in candidates:
        value, sink_side = max_flow(sg.vertices, sg.arcs, sg.depot, i)
        if value < sg.y[i] - violation_tol:
            s = frozenset(v for v in sink_side if v != sg.depot)
            if i in s:
                key = (sg.vehicle, s, i)
                if key not in seen:
                    seen.add(key)
                    cuts.append(Cut(vehicle=sg.vehicle, set_S=s, anchor=i))
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
