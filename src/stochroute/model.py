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
    cols: np.ndarray  # column ids (any integer sequence)
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
    rows: list
    instance: Instance = None  # the instance the model was built from
    cost_matrices: dict = field(default_factory=dict)  # vehicle -> np.ndarray

    @property
    def num_cols(self) -> int:
        return len(self.obj)


@dataclass
class VariableMap:
    """Column index of every variable; blocks x, y, z, h in column order.

    Each block is numbered in row-major order of its array. Vertex ids are
    global (targets, then depots), so `x[k]` is square over all of them and
    holds -1 on the diagonal and on arcs touching another vehicle's depot.
    """

    x: np.ndarray  # (n, |T|+n, |T|+n) arc (k, u, v)
    y: np.ndarray  # (|T|, n) assignment (i, k)
    z: np.ndarray  # (n, |Omega|) excess (k, w)
    h: np.ndarray  # (n,) depot activation k


def vehicle_vertices(instance: Instance, k: int):
    """Vertex ids vehicle k may touch: all targets plus its own depot."""
    return list(range(instance.num_targets)) + [instance.depot_vertex(k)]


def vehicle_cost_matrix(instance: Instance, k: int) -> np.ndarray:
    """Dubins cost matrix over the full vertex set at vehicle k's radius."""
    poses = [instance.vertex_pose(v)
             for v in range(instance.num_targets + instance.num_vehicles)]
    return dubins.cost_matrix(poses, instance.vehicles[k].turn_radius)


def _variable_map(instance: Instance) -> VariableMap:
    nt, n = instance.num_targets, instance.num_vehicles
    own = np.zeros((n, nt + n), dtype=bool)  # vertices each vehicle may touch
    for k in range(n):
        own[k, vehicle_vertices(instance, k)] = True
    arcs = own[:, :, None] & own[:, None, :] & ~np.eye(nt + n, dtype=bool)
    x = np.full(arcs.shape, -1)
    x[arcs] = np.arange(np.count_nonzero(arcs))
    sizes = [nt * n, n * instance.scenarios.num_scenarios, n]
    rest = np.count_nonzero(arcs) + np.arange(sum(sizes))
    y, z, h = np.split(rest, np.cumsum(sizes)[:-1])
    return VariableMap(x=x, y=y.reshape(nt, n), z=z.reshape(n, -1), h=h)


def _rows(cols, coefs, sense, rhs, names):
    """One row per line of the 2-D `cols` and `coefs`."""
    return [Row(cols=c, coefs=a, sense=sense, rhs=rhs, name=name)
            for c, a, name in zip(cols, coefs.tolist(), names)]


def _degree_rows(arcs, link, names):
    """Arcs out of (or into) a vertex sum to its y (target) or h (depot)."""
    cols = np.column_stack([arcs, link])
    coefs = np.ones(cols.shape)
    coefs[:, -1] = -1.0
    return _rows(cols, coefs, "=", 0.0, names)


def build_two_stage(instance: Instance):
    """Two-stage stochastic MILP with per-scenario excess variables.

    The instance is taken as valid: `bnc.solve` validates it once, before
    building either model.
    """
    nt, n = instance.num_targets, instance.num_vehicles
    num_scen = instance.scenarios.num_scenarios
    tau, prob = instance.scenarios.tau, instance.scenarios.prob
    gamma = np.array([v.gamma for v in instance.vehicles])

    cost = {k: vehicle_cost_matrix(instance, k) for k in range(n)}
    vm = _variable_map(instance)
    x, y, z, h = vm.x, vm.y, vm.z, vm.h
    num_cols = int(h[-1]) + 1

    obj, lb = np.zeros(num_cols), np.zeros(num_cols)
    ub, is_int = np.ones(num_cols), np.ones(num_cols, dtype=bool)
    obj[x[x >= 0]] = np.stack([cost[k] for k in range(n)])[x >= 0]
    obj[z] = prob[None, :] * gamma[:, None]
    ub[z], is_int[z] = np.inf, False
    for k, r in enumerate(instance.required):
        for i in r:
            ub[y[i]] = 0.0
            lb[y[i, k]] = ub[y[i, k]] = 1.0

    # out- then in-degree of each target, in (k, i) order; every target's
    # row and column of x[k] hold nt arcs
    out, into = x[:, :nt], x[:, :, :nt].transpose(0, 2, 1)
    arcs = np.stack([out[out >= 0].reshape(n * nt, nt),
                     into[into >= 0].reshape(n * nt, nt)], axis=1)
    rows = _degree_rows(arcs.reshape(-1, nt), np.repeat(y.T.ravel(), 2),
                        [f"{d}deg_{i}_{k}" for k in range(n)
                         for i in range(nt) for d in ("out", "in")])
    rows += _rows(y, np.ones(y.shape), "=", 1.0,
                  [f"assign_{i}" for i in range(nt)])
    # service rows in (k, w) order: the y column of k, then z_kw
    cols = np.concatenate([np.broadcast_to(y.T[:, None], (n, num_scen, nt)),
                           z[:, :, None]], axis=2)
    coefs = np.concatenate([(instance.tau_bar[:, :, None] - tau)
                            .transpose(1, 2, 0), np.ones((n, num_scen, 1))],
                           axis=2)
    rows += _rows(cols.reshape(-1, nt + 1), coefs.reshape(-1, nt + 1), ">=",
                  0.0, [f"service_{k}_{w}" for k in range(n)
                        for w in range(num_scen)])
    depots = [instance.depot_vertex(k) for k in range(n)]
    arcs = np.stack([x[range(n), depots, :nt], x[range(n), :nt, depots]],
                    axis=1)
    rows += _degree_rows(arcs.reshape(-1, nt), np.repeat(h, 2),
                         [f"depot_{d}_{k}" for k in range(n)
                          for d in ("out", "in")])
    cols = np.stack([y, np.broadcast_to(h, y.shape)], axis=2)
    rows += _rows(cols.reshape(-1, 2), np.tile([1.0, -1.0], (nt * n, 1)),
                  "<=", 0.0,
                  [f"active_{i}_{k}" for i in range(nt) for k in range(n)])

    model = LinearModel(obj=obj, lb=lb, ub=ub, is_int=is_int, rows=rows,
                        instance=instance, cost_matrices=cost)
    return model, vm


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
