"""The benchmark's hooks still find the solver entry points they patch.

`bench/tracing.py` wraps stochroute's functions from outside. When a hook
target is renamed or moved, a traced run still exits cleanly but silently
drops every per-layer metric that needed it; this test turns that into a
failure. It reads `bench/` and `BENCHMARK.json` and changes neither.
"""

import json
import sys
from pathlib import Path

from stochroute import SolveParams, recourse

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# measured by bench/run.py itself, not from the solver's spans
NOT_FROM_SPANS = {"instance.generate.s", "trace.overhead"}


def test_traced_study_yields_every_per_layer_metric():
    tracer = tracing.Tracer(tracing.ALL_HOOKS)
    with tracer.installed():
        report = recourse.compute_vss(workloads.warmup_instance(),
                                      SolveParams())
    assert tracer.missing == []

    metrics, min_self = tracing.pass_metrics(tracer, 0, len(tracer.spans))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {m["name"] for m in declared} - NOT_FROM_SPANS
    assert sorted(expected - set(metrics)) == []
    assert min_self >= -1e-9

    solves = (report.stochastic_solution, report.evp_solution)
    for metric, stat in (("lp.solves", "lp_solves"), ("bnc.nodes", "nodes"),
                         ("separation.cuts_added", "cuts_added")):
        assert metrics[metric] == sum(s.stats[stat] for s in solves), metric
