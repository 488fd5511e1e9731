"""Inputs of the benchmark workloads: fixed problems, scenarios reordered.

Each workload is a fixed list of problems. bays29-vss and bays29-s1000 are
bays29 grid cells exactly as `stochroute suite` generates them (instance
seed 42); small-vss is the 30-instance grid of acceptance criterion 1, made
with the recipe of `tests/conftest.random_instance`.

The workload seed does not draw new problems. Pass p of a run at seed s
solves every problem with its scenarios reordered by a permutation drawn
from (s, p). That is the same optimisation problem, so its certified S*, D*
and VSS are checked against the same references on every seed and pass,
while the LP's service rows and excess columns come in another order and
the simplex and branch-and-cut paths differ, which is what a held-out seed
re-checks.

Measured on 2 cores, and rejected for the spread they give between seeds:
fresh draws change the time of one bays29 cell up to fourfold (bays29-3-1
took 9 s at instance seed 42 and 36 s at seed 1); renumbering the targets
as well as reordering scenarios moved bays29-s1000 by 15% (interquartile
range over median, ten seeds) against 3-6% for the reordering alone.
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path

import numpy as np

import stochroute
from stochroute import GenerationConfig, ScenarioSet, generate_instance
from stochroute.tsplib import parse_tsplib

GRID_SEED = 42
BAYS29_CELLS = {
    "bays29-vss": ([(2, 1), (3, 1), (4, 1)], 100),
    "bays29-s1000": ([(2, 1)], 1000),
}


def bays29_coords():
    path = Path(stochroute.__file__).parent / "data" / "bays29.tsp"
    return [(x, y) for _, x, y in parse_tsplib(path.read_text())]


def reorder_scenarios(instance, rng):
    """Same problem with its scenarios in another order."""
    order = rng.permutation(instance.scenarios.num_scenarios)
    scenarios = ScenarioSet(tau=instance.scenarios.tau[:, :, order],
                            prob=instance.scenarios.prob[order])
    return dataclasses.replace(instance, scenarios=scenarios).validate()


def pass_inputs(studies, seed, pass_index):
    """The studies of pass `pass_index` of a run at `seed`."""
    rng = np.random.default_rng([seed, pass_index])
    return [(key, reorder_scenarios(instance, rng))
            for key, instance in studies]


def small_cases():
    """(seed, targets, vehicles, scenarios) of acceptance criterion 1."""
    cases, seed = [], 100
    for nt, n, ns in itertools.product((4, 5, 6, 7, 8), (1, 2, 3), (1, 5, 10)):
        seed += 1
        if (nt + n + ns + seed) % 3 == 0:
            cases.append((seed, nt, n, ns))
    extra = [(s, 4 + s % 5, 1 + s % 3, (1, 5, 10)[s % 3])
             for s in range(200, 200 + max(0, 25 - len(cases)) + 10)]
    return (cases + extra)[:30]


def random_instance(seed, nt, n, num_scenarios, f, box=100.0):
    """Uniform targets in a box; the recipe of tests/conftest.py."""
    rng = np.random.default_rng(seed)
    coords = [(float(x), float(y)) for x, y in rng.uniform(0, box, (nt, 2))]
    return generate_instance(coords, n, f, num_scenarios, seed,
                             GenerationConfig(base_name="rnd"))


def build(name):
    """[(study key, instance)]: the fixed problems of one workload."""
    if name in BAYS29_CELLS:
        cells, scenarios = BAYS29_CELLS[name]
        coords = bays29_coords()
        instances = [generate_instance(coords, n, f, scenarios, GRID_SEED,
                                       GenerationConfig(base_name="bays29"))
                     for n, f in cells]
        return [(inst.name, inst) for inst in instances]
    if name == "small-vss":
        return [(f"rnd-{seed}", random_instance(seed, nt, n, ns,
                                                1 if n > 1 else 0))
                for seed, nt, n, ns in small_cases()]
    raise ValueError(f"unknown workload {name!r}")


def warmup_instance():
    """Tiny instance whose solve loads every lazy import before timing."""
    return random_instance(7, 5, 2, 3, 1)
