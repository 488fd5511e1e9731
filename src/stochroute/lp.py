"""LP relaxation solving for the branch-and-cut engine.

Each workspace owns one persistent HiGHS dual-simplex model of the relaxed
LinearModel, rows in model order as `row_lower <= A x <= row_upper`. A solve
sends HiGHS only the column bounds that changed since the last solve and cut
rows are appended in place, so each solve starts from the basis the previous
one left; `basis`/`set_basis` carry a parent's basis across the search tree.
HiGHS is scipy's bundled binding, private scipy API: `pyproject.toml` pins
the scipy range it was tested with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy
import scipy.sparse as sp

TESTED_SCIPY = ">=1.17,<1.18"  # the pin in pyproject.toml

try:
    from scipy.optimize._highspy._core import (
        HighsBasisStatus, HighsModelStatus, _Highs)
except ImportError as exc:
    raise ImportError(
        f"stochroute.lp needs scipy.optimize._highspy._core._Highs, which "
        f"the installed scipy {scipy.__version__} does not provide; "
        f"stochroute is tested with scipy {TESTED_SCIPY}") from exc

STATUS = {
    HighsModelStatus.kOptimal: "optimal",
    HighsModelStatus.kInfeasible: "infeasible",
    HighsModelStatus.kUnbounded: "unbounded",
    HighsModelStatus.kIterationLimit: "iteration_limit",
}  # any other model status is reported as "numerical_error"


@dataclass
class LpSolution:
    status: str
    primal: np.ndarray
    dual: np.ndarray  # d(objective)/d(rhs), in model row order
    objective: float
    reduced_costs: np.ndarray = None


class HighsRun(NamedTuple):
    status: str
    nit: int  # simplex iterations of this run


def linprog(highs) -> HighsRun:
    """Run HiGHS once on its current model and basis.

    The name is kept as the benchmark's hook: `bench/tracing.py` wraps
    `stochroute.lp.linprog` to time each HiGHS run and read its `.nit`.
    """
    highs.run()
    return HighsRun(STATUS.get(highs.getModelStatus(), "numerical_error"),
                    int(highs.getInfo().simplex_iteration_count))


def _row_block(rows, n):
    """(row_lower, row_upper, CSR matrix) of model rows."""
    lower = np.array([-np.inf if r.sense == "<=" else r.rhs for r in rows])
    upper = np.array([np.inf if r.sense == ">=" else r.rhs for r in rows])
    indptr = np.cumsum([0] + [len(r.cols) for r in rows])
    # the empty head keeps the dtype integral when there are no rows
    indices = np.concatenate([np.empty(0, np.int64)] + [r.cols for r in rows])
    data = np.array([a for r in rows for a in r.coefs], dtype=float)
    mat = sp.csr_matrix((data, indices, indptr), shape=(len(rows), n))
    mat.sum_duplicates()
    return lower, upper, mat


class LpWorkspace:
    """Persistent HiGHS model of a LinearModel; integrality is relaxed."""

    def __init__(self, model):
        self.model = model
        self.c = np.asarray(model.obj, dtype=float).copy()
        self.lb = np.asarray(model.lb, dtype=float).copy()
        self.ub = np.asarray(model.ub, dtype=float).copy()
        self.highs = _Highs()
        # silent (nothing on stdout), no presolve, dual simplex
        for option, value in (("output_flag", False), ("presolve", "off"),
                              ("solver", "simplex"), ("simplex_strategy", 1)):
            self.highs.setOptionValue(option, value)
        none = np.empty(0, dtype=np.int32)
        self.highs.addCols(len(self.c), self.c, self.lb, self.ub, 0, none,
                           none, np.empty(0))
        self._pass_rows(model.rows)
        self._lo, self._hi = self.lb.copy(), self.ub.copy()  # held by HiGHS

    def _pass_rows(self, rows):
        lower, upper, mat = _row_block(rows, len(self.c))
        self.highs.addRows(len(rows), lower, upper, mat.nnz,
                           mat.indptr[:-1].astype(np.int32),
                           mat.indices.astype(np.int32), mat.data)

    def add_rows(self, rows):
        """Append model rows (any sense); the current basis is kept."""
        self.model.rows.extend(rows)
        self._pass_rows(rows)

    def basis(self):
        """The current simplex basis, for a later `set_basis`."""
        return self.highs.getBasis()

    def set_basis(self, basis):
        """Restore a basis taken earlier, padded in place: new rows basic."""
        missing = self.highs.getNumRow() - len(basis.row_status)
        if missing:
            basis.row_status = (basis.row_status
                                + [HighsBasisStatus.kBasic] * missing)
        self.highs.setBasis(basis)

    def clear_solver(self):
        """Drop the basis and factorization; the next solve starts cold."""
        self.highs.clearSolver()

    def solve(self, lb=None, ub=None) -> LpSolution:
        """Solve with optional column-bound overrides."""
        lo = self.lb if lb is None else lb
        hi = self.ub if ub is None else ub
        changed = np.flatnonzero((lo != self._lo) | (hi != self._hi))
        if changed.size:
            self.highs.changeColsBounds(changed.size, changed.astype(np.int32),
                                        lo[changed], hi[changed])
            self._lo[changed], self._hi[changed] = lo[changed], hi[changed]
        status = linprog(self.highs).status
        if status != "optimal":
            return LpSolution(status=status, primal=None, dual=None,
                              objective=float("inf") if status == "infeasible"
                              else float("-inf"))
        sol = self.highs.getSolution()
        return LpSolution(status="optimal", primal=np.array(sol.col_value),
                          dual=np.array(sol.row_dual),
                          objective=self.highs.getObjectiveValue(),
                          reduced_costs=np.array(sol.col_dual))

    def residuals(self, sol: LpSolution):
        """(max primal row residual, max dual stationarity residual, rel gap)."""
        x, y, rc = sol.primal, sol.dual, sol.reduced_costs
        lower, upper, mat = _row_block(self.model.rows, len(self.c))
        ax = mat @ x
        primal = float(np.max(np.concatenate(
            [lower - ax, ax - upper, self.lb - x, x - self.ub]), initial=0.0))
        # stationarity: c = A^T y + reduced costs, with y = d(obj)/d(rhs)
        dual_resid = float(np.max(np.abs(self.c - mat.T @ y - rc)))
        rhs = np.array([row.rhs for row in self.model.rows])
        lb, ub = (np.where(np.isfinite(v), v, 0.0) for v in (self.lb, self.ub))
        dual_obj = float(y @ rhs + np.clip(rc, 0, None) @ lb
                         + np.clip(rc, None, 0) @ ub)
        gap = abs(sol.objective - dual_obj) / max(1.0, abs(sol.objective))
        return primal, dual_resid, gap
