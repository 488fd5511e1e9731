"""Spans around stochroute's public entry points, recorded from outside it.

A `Tracer` replaces module attributes (functions, and methods on classes)
with thin wrappers while its `installed()` block is active and restores the
originals afterwards. Each call becomes one span: name, start, end, parent
span and trace id, plus an optional attribute read from the call's result.
Spans stay in memory; the benchmark writes them out when the run ends.

The wrappers bind where the solver looks a name up at call time: `bnc`
reaches the model builders through its own module namespace and separation
through `separation.<name>`, and `lp` calls `linprog` through its module
global, so those are the attributes patched. A target that no longer exists
is listed in `Tracer.missing`, and every metric that needs it is left out
of the report rather than reported as zero.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict


def _solve_kind(tracer, args, kwargs, result):
    return kwargs.get("model_kind", args[2] if len(args) > 2 else "stochastic")


def _model_size(tracer, args, kwargs, result):
    model = result[0]
    return (len(model.rows), len(model.obj),
            sum(len(row.cols) for row in model.rows))


def _cut_count(tracer, args, kwargs, result):
    return len(result)


def _simplex_iters(tracer, args, kwargs, result):
    return int(result.nit)


# The solver's node counter is not visible from outside. A node is instead
# seen as an LP solve whose lower-bound vector is a new object: bnc.solve
# copies the base bounds once per node and reuses them across that node's
# cut rounds. The hook-coverage check compares the count with the solver's.
def _lp_solve_attr(tracer, args, kwargs, result):
    lb = kwargs.get("lb", args[1] if len(args) > 1 else None)
    new_node = lb is not tracer._last_lb
    tracer._last_lb = lb
    return (result.status, new_node)


SOLVE_HOOK = [("stochroute.bnc", "solve", "bnc.solve", _solve_kind)]

ALL_HOOKS = SOLVE_HOOK + [
    ("stochroute.recourse", "compute_vss", "recourse.compute_vss", None),
    ("stochroute.bnc", "build_two_stage", "model.build_two_stage", _model_size),
    ("stochroute.bnc", "build_evp", "model.build_evp", _model_size),
    ("stochroute.dubins", "cost_matrix", "dubins.cost_matrix", None),
    ("stochroute.lp", "LpWorkspace.solve", "lp.LpWorkspace.solve", _lp_solve_attr),
    ("stochroute.lp", "LpWorkspace.add_rows", "lp.LpWorkspace.add_rows", None),
    ("stochroute.lp", "linprog", "lp.linprog", _simplex_iters),
    ("stochroute.separation", "build_support_graph",
     "separation.build_support_graph", None),
    ("stochroute.separation", "separate_integer",
     "separation.separate_integer", _cut_count),
    ("stochroute.separation", "separate_fractional",
     "separation.separate_fractional", _cut_count),
    ("stochroute.separation", "max_flow", "separation.max_flow", None),
    ("stochroute.separation", "cut_row", "separation.cut_row", None),
    ("stochroute.recourse", "evaluate_fixed_first_stage",
     "recourse.evaluate_fixed_first_stage", None),
    ("stochroute.recourse", "expected_penalty",
     "recourse.expected_penalty", None),
]

# span fields
NAME, START, END, PARENT, TRACE, ATTR = range(6)


class Tracer:
    def __init__(self, hooks):
        self.hooks = hooks
        self.spans = []  # [name, start, end, parent index or -1, trace, attr]
        self.trace = 0
        self.missing = []
        self._stack = []
        self._last_lb = None

    def _wrap(self, name, fn, attr):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trace,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attr is not None:
                span[ATTR] = attr(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook target for the duration of the block."""
        saved = []
        self.missing = []
        try:
            for module_name, path, name, attr in self.hooks:
                owner = importlib.import_module(module_name)
                *owner_path, leaf = path.split(".")
                try:
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                except AttributeError:
                    self.missing.append(name)
                    continue
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original, attr))
            self._last_lb = None
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)
            self._last_lb = None


def solve_seconds(spans, lo, hi):
    """Summed wall time of the bnc.solve spans in spans[lo:hi], by kind."""
    out = defaultdict(float)
    for span in spans[lo:hi]:
        if span[NAME] == "bnc.solve":
            out[span[ATTR]] += span[END] - span[START]
    return out


class _Pass:
    """One traced pass's spans grouped by name, with self times."""

    def __init__(self, spans, lo, hi):
        self.spans = spans
        self.lo = lo
        self.by_name = defaultdict(list)
        child = defaultdict(float)
        for i in range(lo, hi):
            span = spans[i]
            self.by_name[span[NAME]].append(span)
            if span[PARENT] >= lo:
                child[span[PARENT]] += span[END] - span[START]
        self.self_by_name = defaultdict(float)
        self.min_self = float("inf")
        for i in range(lo, hi):
            span = spans[i]
            own = span[END] - span[START] - child[i]
            self.self_by_name[span[NAME]] += own
            self.min_self = min(self.min_self, own)

    def calls(self, *names):
        return sum(len(self.by_name[n]) for n in names)

    def seconds(self, *names):
        return sum(s[END] - s[START] for n in names for s in self.by_name[n])

    def self_seconds(self, name):
        return self.self_by_name[name]

    def attrs(self, *names):
        return [s[ATTR] for n in names for s in self.by_name[n]
                if s[ATTR] is not None]

    def outermost_seconds(self, *names):
        """Time in spans of `names` not nested inside another of them."""
        total = 0.0
        for n in names:
            for s in self.by_name[n]:
                parent = s[PARENT]
                while parent >= self.lo and self.spans[parent][NAME] not in names:
                    parent = self.spans[parent][PARENT]
                if parent < self.lo:
                    total += s[END] - s[START]
        return total


def _ratio(num, den):
    return num / den if den else float("nan")


BUILDS = ("model.build_two_stage", "model.build_evp")
PRICE = ("recourse.evaluate_fixed_first_stage", "recourse.expected_penalty")

# name -> (unit, span names it needs, function of a _Pass)
LAYER_METRICS = {
    "dubins.cost_matrix.calls": ("count", ["dubins.cost_matrix"],
                                 lambda p: p.calls("dubins.cost_matrix")),
    "dubins.cost_matrix.s": ("s", ["dubins.cost_matrix"],
                             lambda p: p.seconds("dubins.cost_matrix")),
    "model.build.calls": ("count", BUILDS, lambda p: p.calls(*BUILDS)),
    "model.build.s": ("s", BUILDS, lambda p: p.seconds(*BUILDS)),
    "model.rows": ("count", BUILDS,
                   lambda p: _mean(a[0] for a in p.attrs(*BUILDS))),
    "model.cols": ("count", BUILDS,
                   lambda p: _mean(a[1] for a in p.attrs(*BUILDS))),
    "model.nnz": ("count", BUILDS,
                  lambda p: _mean(a[2] for a in p.attrs(*BUILDS))),
    "lp.solves": ("count", ["lp.LpWorkspace.solve"],
                  lambda p: p.calls("lp.LpWorkspace.solve")),
    "lp.solve.s": ("s", ["lp.LpWorkspace.solve"],
                   lambda p: p.seconds("lp.LpWorkspace.solve")),
    "lp.highs.s": ("s", ["lp.linprog"], lambda p: p.seconds("lp.linprog")),
    "lp.self.s": ("s", ["lp.LpWorkspace.solve", "lp.linprog"],
                  lambda p: p.self_seconds("lp.LpWorkspace.solve")),
    "lp.simplex_iters": ("count", ["lp.linprog"],
                         lambda p: sum(p.attrs("lp.linprog"))),
    "lp.iters_per_solve": ("count", ["lp.linprog", "lp.LpWorkspace.solve"],
                           lambda p: _ratio(sum(p.attrs("lp.linprog")),
                                            p.calls("lp.LpWorkspace.solve"))),
    "lp.non_optimal": ("count", ["lp.LpWorkspace.solve"],
                       lambda p: sum(a[0] != "optimal" for a in
                                     p.attrs("lp.LpWorkspace.solve"))),
    "lp.add_rows.calls": ("count", ["lp.LpWorkspace.add_rows"],
                          lambda p: p.calls("lp.LpWorkspace.add_rows")),
    "lp.add_rows.s": ("s", ["lp.LpWorkspace.add_rows"],
                      lambda p: p.seconds("lp.LpWorkspace.add_rows")),
    "separation.support_graph.s": (
        "s", ["separation.build_support_graph"],
        lambda p: p.seconds("separation.build_support_graph")),
    "separation.integer.calls": (
        "count", ["separation.separate_integer"],
        lambda p: p.calls("separation.separate_integer")),
    "separation.integer.s": (
        "s", ["separation.separate_integer"],
        lambda p: p.seconds("separation.separate_integer")),
    "separation.fractional.calls": (
        "count", ["separation.separate_fractional"],
        lambda p: p.calls("separation.separate_fractional")),
    "separation.fractional.s": (
        "s", ["separation.separate_fractional"],
        lambda p: p.seconds("separation.separate_fractional")),
    "separation.max_flow.calls": (
        "count", ["separation.max_flow"],
        lambda p: p.calls("separation.max_flow")),
    "separation.max_flow.s": (
        "s", ["separation.max_flow"],
        lambda p: p.seconds("separation.max_flow")),
    "separation.cuts_emitted": (
        "count", ["separation.separate_integer", "separation.separate_fractional"],
        lambda p: sum(p.attrs("separation.separate_integer",
                              "separation.separate_fractional"))),
    "separation.cuts_added": ("count", ["separation.cut_row"],
                              lambda p: p.calls("separation.cut_row")),
    "separation.cut_yield": (
        "ratio", ["separation.cut_row", "separation.separate_integer",
                  "separation.separate_fractional"],
        lambda p: _ratio(p.calls("separation.cut_row"),
                         sum(p.attrs("separation.separate_integer",
                                     "separation.separate_fractional")))),
    "separation.flow_yield": (
        "ratio", ["separation.separate_fractional", "separation.max_flow"],
        lambda p: _ratio(sum(p.attrs("separation.separate_fractional")),
                         p.calls("separation.max_flow"))),
    "bnc.nodes": ("count", ["lp.LpWorkspace.solve"],
                  lambda p: sum(a[1] for a in p.attrs("lp.LpWorkspace.solve"))),
    "bnc.lp_per_node": (
        "count", ["lp.LpWorkspace.solve"],
        lambda p: _ratio(p.calls("lp.LpWorkspace.solve"),
                         sum(a[1] for a in p.attrs("lp.LpWorkspace.solve")))),
    "bnc.self.s": ("s", ["bnc.solve"], lambda p: p.self_seconds("bnc.solve")),
    "recourse.price.calls": ("count", PRICE, lambda p: p.calls(*PRICE)),
    "recourse.price.s": ("s", PRICE, lambda p: p.outermost_seconds(*PRICE)),
    "recourse.vss.self.s": ("s", ["recourse.compute_vss"],
                            lambda p: p.self_seconds("recourse.compute_vss")),
}


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def pass_metrics(tracer, lo, hi):
    """(per-layer metrics, smallest self time) of spans[lo:hi].

    A metric that needs a missing hook, or a ratio whose base is zero, is
    omitted rather than reported as zero.
    """
    p = _Pass(tracer.spans, lo, hi)
    missing = set(tracer.missing)
    metrics = {}
    for name, (_, needs, fn) in LAYER_METRICS.items():
        if not missing.intersection(needs):
            value = fn(p)
            if value == value:  # not NaN
                metrics[name] = value
    return metrics, p.min_self
