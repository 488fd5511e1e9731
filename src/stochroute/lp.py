"""LP relaxation solving for the branch-and-cut engine.

Backed by the HiGHS dual simplex via scipy.optimize.linprog. The workspace
keeps a compiled sparse image of the model so that per-node solves only swap
bound vectors, and appended cut rows extend the constraint blocks. Every
solve starts HiGHS from scratch: no basis is carried between solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

STATUS_MAP = {
    0: "optimal",
    1: "iteration_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical_error",
}


@dataclass
class LpSolution:
    status: str
    primal: np.ndarray
    dual: np.ndarray  # d(objective)/d(rhs), in model row order
    objective: float
    reduced_costs: np.ndarray = None


class LpWorkspace:
    """Compiled LP image of a LinearModel; integrality is relaxed.

    Rows are split into an equality block and an inequality block normalized
    to <= form; `row_order` remembers how to map duals back to model rows.
    """

    def __init__(self, model):
        self.model = model
        self.c = np.asarray(model.obj, dtype=float).copy()
        self.lb = np.asarray(model.lb, dtype=float).copy()
        self.ub = np.asarray(model.ub, dtype=float).copy()
        n = len(self.c)
        eq_rows, ub_rows = [], []
        self.row_kind = []  # (block, index_in_block, sign) per model row
        for row in model.rows:
            data = (row.cols, row.coefs, row.rhs)
            if row.sense == "=":
                self.row_kind.append(("eq", len(eq_rows), 1.0))
                eq_rows.append(data)
            elif row.sense == "<=":
                self.row_kind.append(("ub", len(ub_rows), 1.0))
                ub_rows.append(data)
            else:  # ">=" becomes -a x <= -b
                cols, coefs, rhs = data
                self.row_kind.append(("ub", len(ub_rows), -1.0))
                ub_rows.append((cols, [-a for a in coefs], -rhs))
        self.A_eq, self.b_eq = self._assemble(eq_rows, n)
        self.A_ub, self.b_ub = self._assemble(ub_rows, n)
        self.num_model_rows = len(model.rows)

    @staticmethod
    def _assemble(rows, n):
        if not rows:
            return None, None
        data, ri, ci = [], [], []
        rhs = np.empty(len(rows))
        for r, (cols, coefs, b) in enumerate(rows):
            rhs[r] = b
            for c, a in zip(cols, coefs):
                ri.append(r)
                ci.append(c)
                data.append(a)
        mat = sp.csr_matrix((data, (ri, ci)), shape=(len(rows), n))
        return mat, rhs

    def add_rows(self, rows):
        """Append model rows (any sense); they join the compiled blocks."""
        eq_rows, ub_rows = [], []
        n = len(self.c)
        n_eq = 0 if self.b_eq is None else len(self.b_eq)
        n_ub = 0 if self.b_ub is None else len(self.b_ub)
        for row in rows:
            self.model.rows.append(row)
            if row.sense == "=":
                self.row_kind.append(("eq", n_eq + len(eq_rows), 1.0))
                eq_rows.append((row.cols, row.coefs, row.rhs))
            elif row.sense == "<=":
                self.row_kind.append(("ub", n_ub + len(ub_rows), 1.0))
                ub_rows.append((row.cols, row.coefs, row.rhs))
            else:
                self.row_kind.append(("ub", n_ub + len(ub_rows), -1.0))
                ub_rows.append((row.cols, [-a for a in row.coefs], -row.rhs))
        if eq_rows:
            mat, rhs = self._assemble(eq_rows, n)
            self.A_eq = mat if self.A_eq is None else sp.vstack(
                [self.A_eq, mat], format="csr")
            self.b_eq = rhs if self.b_eq is None else np.concatenate(
                [self.b_eq, rhs])
        if ub_rows:
            mat, rhs = self._assemble(ub_rows, n)
            self.A_ub = mat if self.A_ub is None else sp.vstack(
                [self.A_ub, mat], format="csr")
            self.b_ub = rhs if self.b_ub is None else np.concatenate(
                [self.b_ub, rhs])
        self.num_model_rows += len(rows)

    def solve(self, lb=None, ub=None) -> LpSolution:
        """Solve with optional column-bound overrides."""
        lo = self.lb if lb is None else lb
        hi = self.ub if ub is None else ub
        res = linprog(
            self.c, A_ub=self.A_ub, b_ub=self.b_ub,
            A_eq=self.A_eq, b_eq=self.b_eq,
            bounds=np.column_stack([lo, hi]),
            method="highs-ds",
        )
        status = STATUS_MAP.get(res.status, "numerical_error")
        if status != "optimal":
            return LpSolution(status=status, primal=None, dual=None,
                              objective=float("inf") if status == "infeasible"
                              else float("-inf"))
        dual = np.empty(self.num_model_rows)
        for r, (block, idx, sign) in enumerate(self.row_kind):
            marg = res.eqlin.marginals if block == "eq" else res.ineqlin.marginals
            dual[r] = sign * marg[idx]
        rc = res.lower.marginals + res.upper.marginals
        return LpSolution(status="optimal", primal=res.x, dual=dual,
                          objective=float(res.fun), reduced_costs=rc)

    def residuals(self, sol: LpSolution):
        """(max primal row residual, max dual stationarity residual, rel gap)."""
        x = sol.primal
        primal = 0.0
        if self.A_eq is not None:
            primal = max(primal, float(np.max(np.abs(self.A_eq @ x - self.b_eq))))
        if self.A_ub is not None:
            primal = max(primal, float(np.max(np.clip(self.A_ub @ x - self.b_ub, 0, None))))
        primal = max(primal, float(np.max(np.clip(self.lb - x, 0, None), initial=0.0)))
        primal = max(primal, float(np.max(np.clip(x - self.ub, 0, None), initial=0.0)))
        # stationarity: c = A^T y + reduced costs, with y = d(obj)/d(rhs)
        aty = np.zeros_like(self.c)
        for r, row in enumerate(self.model.rows):
            y = sol.dual[r]
            if y != 0.0:
                for c, a in zip(row.cols, row.coefs):
                    aty[c] += a * y
        dual_resid = float(np.max(np.abs(self.c - aty - sol.reduced_costs)))
        dual_obj = float(
            sum(sol.dual[r] * row.rhs for r, row in enumerate(self.model.rows))
        )
        rc = sol.reduced_costs
        pos, neg = np.clip(rc, 0, None), np.clip(rc, None, 0)
        dual_obj += float(np.sum(np.where(np.isfinite(self.lb), pos * np.where(np.isfinite(self.lb), self.lb, 0.0), 0.0)))
        dual_obj += float(np.sum(np.where(np.isfinite(self.ub), neg * np.where(np.isfinite(self.ub), self.ub, 0.0), 0.0)))
        gap = abs(sol.objective - dual_obj) / max(1.0, abs(sol.objective))
        return primal, dual_resid, gap
