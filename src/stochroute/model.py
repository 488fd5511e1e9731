"""The two-stage stochastic MILP, its closed-form second stage, and the EVP.

Variables per vehicle k: arc binaries x over T union {d_k} (arcs touching
other depots are never created), assignment binaries y_i^k, continuous excess
z per scenario, and a binary depot-activation h_k that lets an unused vehicle
stay home. The expected-value problem (EVP) is the same model built on the
instance whose one scenario is the mean service time.

Subtour-elimination rows are intentionally absent; they are separated lazily
by the branch-and-cut engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dubins
from .instance import Instance, ScenarioSet


@dataclass
class Row:
    cols: list
    coefs: list
    sense: str  # "<=", ">=", "="
    rhs: float
    name: str = ""


@dataclass
class LinearModel:
    obj: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_int: np.ndarray
    col_names: list
    rows: list
    instance: Instance = None  # the instance the model was built from
    cost_matrices: dict = field(default_factory=dict)  # vehicle -> np.ndarray

    @property
    def num_cols(self) -> int:
        return len(self.obj)


@dataclass
class VariableMap:
    x_index: dict  # (k, i, j) -> col, vertex ids
    y_index: dict  # (i, k) -> col
    z_index: dict  # (k, w) -> col
    h_index: dict  # k -> col


def vehicle_vertices(instance: Instance, k: int):
    """Vertex ids vehicle k may touch: all targets plus its own depot."""
    return list(range(instance.num_targets)) + [instance.depot_vertex(k)]


def vehicle_cost_matrix(instance: Instance, k: int) -> np.ndarray:
    """Dubins cost matrix over the full vertex set at vehicle k's radius."""
    poses = [instance.vertex_pose(v)
             for v in range(instance.num_targets + instance.num_vehicles)]
    return dubins.cost_matrix(poses, instance.vehicles[k].turn_radius)


def build_two_stage(instance: Instance):
    """Two-stage stochastic MILP with per-scenario excess variables."""
    instance.validate()
    nt, n = instance.num_targets, instance.num_vehicles
    num_scen = instance.scenarios.num_scenarios
    tau, prob = instance.scenarios.tau, instance.scenarios.prob

    cost = {k: vehicle_cost_matrix(instance, k) for k in range(n)}

    obj, lb, ub, is_int, names = [], [], [], [], []
    x_index, y_index, z_index, h_index = {}, {}, {}, {}

    def add_col(name, coef, lo, hi, integral):
        col = len(obj)
        obj.append(coef)
        lb.append(lo)
        ub.append(hi)
        is_int.append(integral)
        names.append(name)
        return col

    for k in range(n):
        verts = vehicle_vertices(instance, k)
        for i in verts:
            for j in verts:
                if i != j:
                    x_index[(k, i, j)] = add_col(
                        f"x_{k}_{i}_{j}", float(cost[k][i, j]), 0.0, 1.0, True
                    )
    pinned = {}
    for k, r in enumerate(instance.required):
        for i in r:
            pinned[i] = k
    for i in range(nt):
        for k in range(n):
            lo = hi = None
            if i in pinned:
                lo = hi = 1.0 if pinned[i] == k else 0.0
            y_index[(i, k)] = add_col(
                f"y_{i}_{k}", 0.0, lo if lo is not None else 0.0,
                hi if hi is not None else 1.0, True
            )
    for k in range(n):
        gamma = instance.vehicles[k].gamma
        for w in range(num_scen):
            z_index[(k, w)] = add_col(
                f"z_{k}_{w}", float(prob[w]) * gamma, 0.0, np.inf, False
            )
    for k in range(n):
        h_index[k] = add_col(f"h_{k}", 0.0, 0.0, 1.0, True)

    rows = []
    for k in range(n):
        verts = vehicle_vertices(instance, k)
        for i in range(nt):
            rows.append(Row(
                cols=[x_index[(k, i, j)] for j in verts if j != i] + [y_index[(i, k)]],
                coefs=[1.0] * (len(verts) - 1) + [-1.0],
                sense="=", rhs=0.0, name=f"outdeg_{i}_{k}",
            ))
            rows.append(Row(
                cols=[x_index[(k, j, i)] for j in verts if j != i] + [y_index[(i, k)]],
                coefs=[1.0] * (len(verts) - 1) + [-1.0],
                sense="=", rhs=0.0, name=f"indeg_{i}_{k}",
            ))
    for i in range(nt):
        rows.append(Row(
            cols=[y_index[(i, k)] for k in range(n)],
            coefs=[1.0] * n, sense="=", rhs=1.0, name=f"assign_{i}",
        ))
    for k in range(n):
        for w in range(num_scen):
            rows.append(Row(
                cols=[y_index[(i, k)] for i in range(nt)] + [z_index[(k, w)]],
                coefs=[float(instance.tau_bar[i, k] - tau[i, k, w])
                       for i in range(nt)] + [1.0],
                sense=">=", rhs=0.0, name=f"service_{k}_{w}",
            ))
    for k in range(n):
        d = instance.depot_vertex(k)
        rows.append(Row(
            cols=[x_index[(k, d, j)] for j in range(nt)] + [h_index[k]],
            coefs=[1.0] * nt + [-1.0], sense="=", rhs=0.0, name=f"depot_out_{k}",
        ))
        rows.append(Row(
            cols=[x_index[(k, j, d)] for j in range(nt)] + [h_index[k]],
            coefs=[1.0] * nt + [-1.0], sense="=", rhs=0.0, name=f"depot_in_{k}",
        ))
    for i in range(nt):
        for k in range(n):
            rows.append(Row(
                cols=[y_index[(i, k)], h_index[k]],
                coefs=[1.0, -1.0], sense="<=", rhs=0.0, name=f"active_{i}_{k}",
            ))

    model = LinearModel(
        obj=np.array(obj), lb=np.array(lb), ub=np.array(ub),
        is_int=np.array(is_int, dtype=bool), col_names=names, rows=rows,
        instance=instance, cost_matrices=cost,
    )
    varmap = VariableMap(x_index=x_index, y_index=y_index,
                         z_index=z_index, h_index=h_index)
    return model, varmap


def second_stage(instance: Instance, y):
    """Optimal second stage of a fixed assignment y (|T|, n).

    Returns the (n, |Omega|) excess, the smallest z that satisfies every
    service row, max(0, sum_i (tau_ikw - tau_bar_ik) y_ik), and its expected
    penalty sum_w p_w sum_k gamma_k excess_kw. Surplus at one target offsets
    excess at another because the budget caps the vehicle's total.
    """
    tau, prob = instance.scenarios.tau, instance.scenarios.prob
    gamma = np.array([v.gamma for v in instance.vehicles])
    diff = (tau - instance.tau_bar[:, :, None]) * y[:, :, None]
    excess = np.clip(diff.sum(axis=0), 0.0, None)
    return excess, float(np.sum(prob[None, :] * gamma[:, None] * excess))


def expected_value_instance(instance: Instance) -> Instance:
    """The instance with its scenarios replaced by their mean, at probability 1."""
    mean = ScenarioSet(tau=instance.scenarios.expected_tau()[:, :, None],
                       prob=np.ones(1))
    return replace(instance, scenarios=mean)


def build_evp(instance: Instance):
    """Expected-value problem: the two-stage model of the mean instance."""
    return build_two_stage(expected_value_instance(instance))
