import dataclasses
import json
import math

import numpy as np
import pytest

from stochroute.instance import (GenerationConfig, Instance, InstanceError,
                                 ScenarioSet, Vehicle, generate_instance,
                                 instances_equal, load_instance,
                                 save_instance)
from stochroute.dubins import Pose

COORDS = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0), (5.0, 5.0),
          (2.0, 8.0), (8.0, 2.0), (1.0, 1.0)]


def test_generator_basic_shape():
    inst = generate_instance(COORDS, 2, 1, 5, 42,
                             GenerationConfig(base_name="toy"))
    assert inst.name == "toy-2-1"
    assert inst.num_targets == len(COORDS)
    assert inst.num_vehicles == 2
    assert inst.scenarios.num_scenarios == 5
    assert all(len(r) == 1 for r in inst.required)
    assert not (set(inst.required[0]) & set(inst.required[1]))


def test_turn_radius_formula():
    inst = generate_instance(COORDS, 5, 0, 2, 1, GenerationConfig())
    g = 10.0  # largest coordinate component
    radii = [v.turn_radius for v in inst.vehicles]
    assert radii == pytest.approx([3 * k * g / 100 for k in range(1, 6)])
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_single_vehicle_no_required_targets():
    inst = generate_instance(COORDS, 1, 0, 100, 42,
                             GenerationConfig(base_name="toy"))
    assert inst.name == "toy-1-0"
    assert inst.required == (frozenset(),)
    assert inst.vehicles[0].turn_radius == pytest.approx(3 * 10.0 / 100)


def test_generator_determinism():
    a = generate_instance(COORDS, 3, 1, 7, 99, GenerationConfig())
    b = generate_instance(COORDS, 3, 1, 7, 99, GenerationConfig())
    assert save_instance(a) == save_instance(b)
    c = generate_instance(COORDS, 3, 1, 7, 100, GenerationConfig())
    assert save_instance(a) != save_instance(c)


def test_generated_instances_validate():
    for seed in range(10):
        inst = generate_instance(COORDS, 2, 2, 4, seed, GenerationConfig())
        inst.validate()
        assert np.all(inst.scenarios.tau >= 0)
        assert inst.scenarios.prob.sum() == pytest.approx(1.0, abs=1e-12)
        xs = [c[0] for c in COORDS]
        ys = [c[1] for c in COORDS]
        for d in inst.depots:
            assert min(xs) <= d.x <= max(xs)
            assert min(ys) <= d.y <= max(ys)
            assert 0 <= d.theta < 2 * math.pi


def test_tau_bar_offset_range():
    inst = generate_instance(COORDS, 2, 0, 50, 3, GenerationConfig())
    mean = inst.scenarios.tau.mean(axis=2)
    off = inst.tau_bar - mean
    assert np.all(off >= -3.0) and np.all(off <= 3.0)


def test_generator_feasibility_errors():
    with pytest.raises(InstanceError):
        generate_instance(COORDS, 2, 20, 5, 0, GenerationConfig())
    with pytest.raises(InstanceError):
        generate_instance(COORDS, 1, 0, 0, 0, GenerationConfig())
    with pytest.raises(InstanceError):
        generate_instance(COORDS, 0, 0, 5, 0, GenerationConfig())


def test_round_trip_identity():
    inst = generate_instance(COORDS, 3, 1, 6, 11,
                             GenerationConfig(base_name="rt"))
    again = load_instance(save_instance(inst))
    assert instances_equal(inst, again)
    assert save_instance(again) == save_instance(inst)


def test_load_rejects_bad_probabilities():
    inst = generate_instance(COORDS, 2, 0, 4, 0, GenerationConfig())
    doc = json.loads(save_instance(inst))
    doc["scenarios"]["prob"] = [0.3, 0.3, 0.2, 0.1]  # sums to 0.9
    with pytest.raises(InstanceError, match="sum to 1"):
        load_instance(json.dumps(doc))


def test_load_rejects_overlapping_required_sets():
    inst = generate_instance(COORDS, 2, 1, 4, 0, GenerationConfig())
    doc = json.loads(save_instance(inst))
    doc["required"] = [[0], [0]]
    with pytest.raises(InstanceError, match="disjoint"):
        load_instance(json.dumps(doc))


def test_load_reports_missing_field():
    inst = generate_instance(COORDS, 2, 0, 4, 0, GenerationConfig())
    doc = json.loads(save_instance(inst))
    del doc["tau_bar"]
    with pytest.raises(InstanceError, match="tau_bar"):
        load_instance(json.dumps(doc))


def test_hand_written_instance_loads():
    doc = {
        "format_version": 1,
        "name": "hand-1-0",
        "targets": [{"x": 0.0, "y": 0.0, "theta": 0.0},
                    {"x": 5.0, "y": 0.0, "theta": 3.14}],
        "depots": [{"x": 2.0, "y": 2.0, "theta": 1.0}],
        "vehicles": [{"depot": 0, "turn_radius": 0.5, "gamma": 1000.0}],
        "required": [[]],
        "scenarios": {"prob": [0.5, 0.5],
                      "tau": [[[1.0, 2.0]], [[3.0, 4.0]]]},
        "tau_bar": [[1.5], [3.5]],
        "provenance": None,
    }
    inst = load_instance(json.dumps(doc))
    assert inst.num_targets == 2
    assert inst.scenarios.num_scenarios == 2
    assert inst.vehicles[0].gamma == 1000.0


def test_validate_rejects_duplicate_depots():
    inst = generate_instance(COORDS, 2, 0, 2, 0, GenerationConfig())
    bad = Instance(
        name=inst.name, targets=inst.targets,
        depots=(inst.depots[0], inst.depots[0]),
        vehicles=inst.vehicles, required=inst.required,
        scenarios=inst.scenarios, tau_bar=inst.tau_bar,
    )
    with pytest.raises(InstanceError, match="distinct"):
        bad.validate()


def _with_nan(inst, field):
    """A copy of `inst` with one NaN in `field`."""
    if field in ("tau", "prob"):
        arr = getattr(inst.scenarios, field).copy()
        arr.flat[0] = np.nan
        return dataclasses.replace(
            inst, scenarios=dataclasses.replace(inst.scenarios, **{field: arr}))
    vehicles = (dataclasses.replace(inst.vehicles[0], **{field: math.nan}),
                *inst.vehicles[1:])
    return dataclasses.replace(inst, vehicles=vehicles)


@pytest.mark.parametrize("field,match", [
    ("tau", "service times"), ("prob", "probabilities"),
    ("gamma", "penalty rate"), ("turn_radius", "turn radius"),
])
def test_validate_rejects_nan(field, match):
    inst = generate_instance(COORDS, 2, 0, 3, 0, GenerationConfig())
    with pytest.raises(InstanceError, match=match):
        _with_nan(inst, field).validate()


def test_negative_tau_bar_is_allowed():
    inst = generate_instance(COORDS, 2, 0, 3, 5,
                             GenerationConfig(service_range=(0.0, 0.5)))
    # offsets in [-3, 3] will drive some caps negative; still a valid model
    assert np.any(inst.tau_bar < 0)
    inst.validate()


def test_expected_tau():
    s = ScenarioSet(tau=np.array([[[1.0, 3.0]]]), prob=np.array([0.25, 0.75]))
    assert s.expected_tau()[0, 0] == pytest.approx(2.5)
