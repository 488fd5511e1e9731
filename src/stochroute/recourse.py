"""Pricing a given plan: assignment checks, fixed-first-stage scoring, VSS.

The second stage of a fixed assignment is `model.second_stage`; this module
validates plans that come from outside the solver before pricing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bnc, model
from .instance import Instance


class AssignmentError(ValueError):
    pass


class FirstStageError(ValueError):
    """Invalid (x, y) first stage; message names the violated family."""


def _check_assignment(instance: Instance, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    nt, n = instance.num_targets, instance.num_vehicles
    if y.shape != (nt, n):
        raise AssignmentError(f"assignment must have shape ({nt}, {n})")
    if np.any(np.abs(y - np.round(y)) > 1e-9) or np.any(y < -1e-9) or np.any(y > 1 + 1e-9):
        raise AssignmentError("assignment entries must be binary")
    y = np.round(y)
    if np.any(np.abs(y.sum(axis=1) - 1.0) > 1e-9):
        raise AssignmentError("every target must be assigned to exactly one vehicle")
    for k, req in enumerate(instance.required):
        for i in req:
            if y[i, k] != 1.0:
                raise AssignmentError(
                    f"required target {i} is not assigned to vehicle {k}")
    return y


def expected_penalty(instance: Instance, y) -> float:
    """Probability-weighted penalty of assignment y, after checking y."""
    y = _check_assignment(instance, y)
    return model.second_stage(instance, y)[1]


def _check_first_stage(instance: Instance, tours, y):
    """Reject tours violating degree, assignment, pinning, or connectivity."""
    y = _check_assignment(instance, y)
    if len(tours) != instance.num_vehicles:
        raise FirstStageError("degree: one tour per vehicle is required")
    for k, tour in enumerate(tours):
        visited = set(np.flatnonzero(y[:, k] == 1.0))
        if not tour:
            if visited:
                raise FirstStageError(
                    f"connectivity: vehicle {k} has assigned targets but no tour")
            continue
        d = instance.depot_vertex(k)
        if tour[0] != d or tour[-1] != d:
            raise FirstStageError(
                f"connectivity: vehicle {k}'s tour must start and end at its depot")
        body = tour[1:-1]
        if len(set(body)) != len(body):
            raise FirstStageError(
                f"degree: vehicle {k}'s tour revisits a vertex (subtour present)")
        if d in body:
            raise FirstStageError(
                f"connectivity: vehicle {k}'s tour passes through its depot")
        if set(body) != visited:
            raise FirstStageError(
                f"assignment: vehicle {k}'s tour does not match its y values")
    return y


def evaluate_fixed_first_stage(instance: Instance, tours, y) -> float:
    """Objective of the two-stage model with (x, y) frozen: travel + penalty."""
    y = _check_first_stage(instance, tours, y)
    first_stage = 0.0
    for k, tour in enumerate(tours):
        c = model.vehicle_cost_matrix(instance, k)
        for u, v in zip(tour, tour[1:]):
            first_stage += float(c[u, v])
    return first_stage + expected_penalty(instance, y)


@dataclass
class VssReport:
    s_star: float          # optimal two-stage objective
    d_star: float          # two-stage objective at the EVP first stage
    vss: float
    evp_objective: float   # the EVP's own optimum, for reporting
    stochastic_first_stage: float
    evp_first_stage: float
    certified: bool
    stochastic_solution: object = None
    evp_solution: object = None
    bounds: dict = None

    def table_row(self):
        return (self.d_star, self.s_star, self.vss)


def compute_vss(instance: Instance, params=None) -> VssReport:
    """Solve both formulations and price the EVP's plan under uncertainty."""
    params = params or bnc.SolveParams()
    stoch = bnc.solve(instance, params, model_kind="stochastic")
    evp = bnc.solve(instance, params, model_kind="evp")
    d_star = evaluate_fixed_first_stage(instance, evp.tours, evp.assignment)
    s_star = stoch.objective
    certified = stoch.certified and evp.certified
    bounds = None
    if not certified:
        bounds = {"stochastic": (stoch.bound, stoch.objective),
                  "evp": (evp.bound, evp.objective)}
    return VssReport(
        s_star=s_star, d_star=d_star, vss=d_star - s_star,
        evp_objective=evp.objective,
        stochastic_first_stage=stoch.travel, evp_first_stage=evp.travel,
        certified=certified, stochastic_solution=stoch, evp_solution=evp,
        bounds=bounds,
    )
