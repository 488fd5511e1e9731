"""Problem datum: vertices, vehicles, scenarios, caps; generation and file IO.

Vertex ids: targets are 0..|T|-1; the depot of vehicle k is |T|+k. One heading
per vertex, shared by all vehicles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dubins import Pose

FORMAT_VERSION = 1


class InstanceError(ValueError):
    pass


@dataclass(frozen=True)
class Vehicle:
    """One vehicle: home depot index, minimum turn radius, penalty rate."""

    id: int
    depot: int
    turn_radius: float
    gamma: float


@dataclass(frozen=True)
class ScenarioSet:
    """Finite support of the random service times.

    tau has shape (|T|, n, |Omega|); prob has shape (|Omega|,) and sums to 1.
    """

    tau: np.ndarray
    prob: np.ndarray

    @property
    def num_scenarios(self) -> int:
        return int(self.prob.shape[0])

    def expected_tau(self) -> np.ndarray:
        """Per (target, vehicle) expectation over scenarios."""
        return self.tau @ self.prob


@dataclass(frozen=True)
class GenerationConfig:
    service_range: tuple = (5.0, 15.0)
    tau_bar_offset: tuple = (-3.0, 3.0)
    gamma: float = 1000.0
    base_name: str = "instance"


@dataclass(frozen=True)
class Instance:
    name: str
    targets: tuple  # of Pose
    depots: tuple   # of Pose, one per vehicle
    vehicles: tuple  # of Vehicle
    required: tuple  # per vehicle, frozenset of target ids
    scenarios: ScenarioSet
    tau_bar: np.ndarray  # (|T|, n)
    provenance: dict = field(default=None)

    @property
    def num_targets(self) -> int:
        return len(self.targets)

    @property
    def num_vehicles(self) -> int:
        return len(self.vehicles)

    def depot_vertex(self, k: int) -> int:
        """Global vertex id of vehicle k's depot."""
        return self.num_targets + k

    def vertex_pose(self, v: int) -> Pose:
        if v < self.num_targets:
            return self.targets[v]
        return self.depots[v - self.num_targets]

    @property
    def common_targets(self):
        """Targets not pinned to any vehicle."""
        pinned = set().union(*self.required) if self.required else set()
        return [i for i in range(self.num_targets) if i not in pinned]

    def validate(self):
        nt, n = self.num_targets, self.num_vehicles
        if nt < 1 or n < 1:
            raise InstanceError("need at least one target and one vehicle")
        if len(self.depots) != n:
            raise InstanceError("one depot per vehicle is required")
        if len(self.required) != n:
            raise InstanceError("one required-target set per vehicle")
        seen = set()
        for k, r in enumerate(self.required):
            if not all(0 <= i < nt for i in r):
                raise InstanceError(f"required set of vehicle {k} has bad ids")
            if seen & set(r):
                raise InstanceError("required target sets must be disjoint")
            seen |= set(r)
        for k, veh in enumerate(self.vehicles):
            if veh.depot != k:
                raise InstanceError("vehicle depot indices must be 0..n-1 in order")
            if not (math.isfinite(veh.turn_radius) and veh.turn_radius > 0):
                raise InstanceError(
                    f"vehicle {k} needs a finite positive turn radius")
            if not (math.isfinite(veh.gamma) and veh.gamma >= 0):
                raise InstanceError(
                    f"vehicle {k} needs a finite non-negative penalty rate")
        positions = {(d.x, d.y) for d in self.depots}
        if len(positions) != n:
            raise InstanceError("depot positions must be distinct")
        tau, prob = self.scenarios.tau, self.scenarios.prob
        if tau.shape != (nt, n, prob.shape[0]):
            raise InstanceError("service-time tensor shape mismatch")
        if not np.all(np.isfinite(tau)) or np.any(tau < 0):
            raise InstanceError("service times must be finite and non-negative")
        if (not np.all(np.isfinite(prob)) or np.any(prob < 0)
                or abs(float(prob.sum()) - 1.0) > 1e-12):
            raise InstanceError(
                "scenario probabilities must be finite, >= 0 and sum to 1")
        if prob.shape[0] < 1:
            raise InstanceError("at least one scenario is required")
        if self.tau_bar.shape != (nt, n):
            raise InstanceError("tau_bar shape mismatch")
        if not np.all(np.isfinite(self.tau_bar)):
            raise InstanceError("tau_bar entries must be finite")
        return self


def generate_instance(coords, n: int, f: int, num_scenarios: int, seed: int,
                      config: GenerationConfig = GenerationConfig()) -> Instance:
    """Build a randomized instance from target coordinates.

    All coords become targets; depots are drawn uniformly inside the target
    bounding box; vehicle k (1-based) gets turn radius 3*k*g/100 where g is
    the largest coordinate component; tau is uniform on config.service_range
    and tau_bar is the scenario mean offset by a uniform draw from
    config.tau_bar_offset (which may leave tau_bar negative).

    Deterministic given (coords, n, f, num_scenarios, seed, config); draws
    come from numpy's PCG64 via default_rng(seed) in a fixed order (target
    headings, depot positions, depot headings, required sets, tau tensor,
    tau_bar offsets).
    """
    if n < 1:
        raise InstanceError("need at least one vehicle")
    if f < 0:
        raise InstanceError("required-target count must be non-negative")
    if num_scenarios < 1:
        raise InstanceError("need at least one scenario")
    nt = len(coords)
    if n * f > nt:
        raise InstanceError(
            f"cannot reserve {n}*{f} required targets out of {nt}"
        )
    rng = np.random.default_rng(seed)
    xs = np.array([c[0] for c in coords], dtype=float)
    ys = np.array([c[1] for c in coords], dtype=float)

    target_headings = rng.uniform(0.0, 2.0 * np.pi, nt)
    targets = tuple(
        Pose(float(x), float(y), float(t)) for x, y, t in zip(xs, ys, target_headings)
    )

    depot_xy = np.column_stack([
        rng.uniform(xs.min(), xs.max(), n),
        rng.uniform(ys.min(), ys.max(), n),
    ])
    depot_headings = rng.uniform(0.0, 2.0 * np.pi, n)
    depots = tuple(
        Pose(float(x), float(y), float(t))
        for (x, y), t in zip(depot_xy, depot_headings)
    )

    picked = rng.choice(nt, size=n * f, replace=False) if f > 0 else np.array([], int)
    required = tuple(
        frozenset(int(i) for i in picked[k * f:(k + 1) * f]) for k in range(n)
    )

    lo, hi = config.service_range
    tau = rng.uniform(lo, hi, size=(nt, n, num_scenarios))
    prob = np.full(num_scenarios, 1.0 / num_scenarios)
    off_lo, off_hi = config.tau_bar_offset
    tau_bar = tau.mean(axis=2) + rng.uniform(off_lo, off_hi, size=(nt, n))

    g = max(float(xs.max()), float(ys.max()),
            float(depot_xy[:, 0].max()), float(depot_xy[:, 1].max()))
    vehicles = tuple(
        Vehicle(id=k, depot=k, turn_radius=3.0 * (k + 1) * g / 100.0,
                gamma=config.gamma)
        for k in range(n)
    )

    inst = Instance(
        name=f"{config.base_name}-{n}-{f}",
        targets=targets,
        depots=depots,
        vehicles=vehicles,
        required=required,
        scenarios=ScenarioSet(tau=tau, prob=prob),
        tau_bar=tau_bar,
        provenance={
            "seed": int(seed),
            "num_scenarios": int(num_scenarios),
            "service_range": [float(lo), float(hi)],
            "tau_bar_offset": [float(off_lo), float(off_hi)],
            "gamma": float(config.gamma),
        },
    )
    return inst.validate()


def _pose_to_dict(p: Pose) -> dict:
    return {"x": p.x, "y": p.y, "theta": p.theta}


def save_instance(instance: Instance) -> str:
    """Serialize to the canonical JSON text format (see docs/instance_format.md)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "name": instance.name,
        "targets": [_pose_to_dict(p) for p in instance.targets],
        "depots": [_pose_to_dict(p) for p in instance.depots],
        "vehicles": [
            {"depot": v.depot, "turn_radius": v.turn_radius, "gamma": v.gamma}
            for v in instance.vehicles
        ],
        "required": [sorted(r) for r in instance.required],
        "scenarios": {
            "prob": instance.scenarios.prob.tolist(),
            "tau": instance.scenarios.tau.tolist(),
        },
        "tau_bar": instance.tau_bar.tolist(),
        "provenance": instance.provenance,
    }
    return json.dumps(doc, indent=1)


def load_instance(text: str) -> Instance:
    """Parse and validate the canonical format; inverse of save_instance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from None

    def need(obj, key, path):
        if key not in obj:
            raise InstanceError(f"missing field {path}.{key}")
        return obj[key]

    if need(doc, "format_version", "$") != FORMAT_VERSION:
        raise InstanceError("unsupported format_version")
    try:
        targets = tuple(
            Pose(float(p["x"]), float(p["y"]), float(p["theta"]))
            for p in need(doc, "targets", "$")
        )
        depots = tuple(
            Pose(float(p["x"]), float(p["y"]), float(p["theta"]))
            for p in need(doc, "depots", "$")
        )
        vehicles = tuple(
            Vehicle(id=k, depot=int(v["depot"]),
                    turn_radius=float(v["turn_radius"]), gamma=float(v["gamma"]))
            for k, v in enumerate(need(doc, "vehicles", "$"))
        )
        required = tuple(
            frozenset(int(i) for i in r) for r in need(doc, "required", "$")
        )
        scen = need(doc, "scenarios", "$")
        scenarios = ScenarioSet(
            tau=np.array(need(scen, "tau", "$.scenarios"), dtype=float),
            prob=np.array(need(scen, "prob", "$.scenarios"), dtype=float),
        )
        tau_bar = np.array(need(doc, "tau_bar", "$"), dtype=float)
    except (TypeError, KeyError, ValueError) as exc:
        if isinstance(exc, InstanceError):
            raise
        raise InstanceError(f"malformed instance document: {exc}") from None

    inst = Instance(
        name=need(doc, "name", "$"),
        targets=targets,
        depots=depots,
        vehicles=vehicles,
        required=required,
        scenarios=scenarios,
        tau_bar=tau_bar,
        provenance=doc.get("provenance"),
    )
    return inst.validate()


def instances_equal(a: Instance, b: Instance) -> bool:
    """Field-for-field equality (numpy-aware)."""
    return (
        a.name == b.name
        and a.targets == b.targets
        and a.depots == b.depots
        and a.vehicles == b.vehicles
        and a.required == b.required
        and np.array_equal(a.scenarios.tau, b.scenarios.tau)
        and np.array_equal(a.scenarios.prob, b.scenarios.prob)
        and np.array_equal(a.tau_bar, b.tau_bar)
        and a.provenance == b.provenance
    )
