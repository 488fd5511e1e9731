"""Exact toolkit for multi-depot Dubins-vehicle routing with random service
times: two-stage stochastic MILP, branch and cut with lazy connectivity
cuts, and value-of-stochastic-solution studies."""

from .bnc import Solution, SolveParams, solve
from .dubins import DubinsPath, Pose, cost_matrix, sample_path, shortest_path
from .instance import (GenerationConfig, Instance, ScenarioSet, Vehicle,
                       generate_instance, load_instance, save_instance)
from .model import build_evp, build_two_stage
from .recourse import (VssReport, compute_vss, evaluate_fixed_first_stage,
                       expected_penalty)

__all__ = [
    "DubinsPath", "GenerationConfig", "Instance", "Pose", "ScenarioSet",
    "Solution", "SolveParams", "Vehicle", "VssReport", "build_evp",
    "build_two_stage", "compute_vss", "cost_matrix",
    "evaluate_fixed_first_stage", "expected_penalty", "generate_instance",
    "load_instance", "sample_path", "save_instance", "shortest_path",
    "solve",
]

__version__ = "0.1.0"
