"""Envy-free house allocation: exact solver, certification oracle, and random-model simulation."""

from .bigraph import (
    BipartiteGraph,
    HallViolator,
    format_alternating_digraph,
    maximum_matching,
    neighborhood,
    violator_or_matching,
)
from .oracle import (
    InstanceTooLargeError,
    brute_force_hall_check,
    enumerate_ef_assignments,
    is_pareto_among_ef,
)
from .prefs import (
    PreferenceProfile,
    ProfileError,
    format_profile,
    parse_profile,
)
from .randmodel import (
    MonteCarloStats,
    UtilityMatrix,
    estimate_existence_probability,
    sample_strict_profile,
    sample_utilities,
    threshold_mechanism,
    utilities_to_profile,
)
from .solver import (
    Assignment,
    InvalidInstanceError,
    IterationRecord,
    SolveTrace,
    envy_free_assignment,
    result_json,
    verify_envy_free,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BipartiteGraph",
    "HallViolator",
    "InstanceTooLargeError",
    "InvalidInstanceError",
    "IterationRecord",
    "MonteCarloStats",
    "PreferenceProfile",
    "ProfileError",
    "SolveTrace",
    "UtilityMatrix",
    "brute_force_hall_check",
    "enumerate_ef_assignments",
    "envy_free_assignment",
    "estimate_existence_probability",
    "format_alternating_digraph",
    "format_profile",
    "is_pareto_among_ef",
    "maximum_matching",
    "neighborhood",
    "parse_profile",
    "result_json",
    "sample_strict_profile",
    "sample_utilities",
    "threshold_mechanism",
    "utilities_to_profile",
    "verify_envy_free",
    "violator_or_matching",
]
