"""Realization theory for LPV state-space systems with affine scheduling dependence.

Simulation, observability/reachability analysis, regularity
certification, minimization by observability reduction, isomorphism
computation between realizations, and empirical behavior-equivalence
testing.
"""

__version__ = "0.1.0"

from .analysis import (
    LtvSystem,
    RankDecision,
    RcCertificate,
    check_rc,
    extended_observability_matrix,
    find_revealing_scheduling,
    freeze_scheduling,
    is_observable,
    is_span_reachable_from_zero,
    ltv_window_observability,
    unobservable_subspace,
)
from .core import (
    AffineMatrixFunction,
    LpvSsa,
    SchedulingRegion,
    TimeDomain,
    transpose_dual,
)
from .equivalence import (
    EquivalenceReport,
    IsoResult,
    behavior_equivalence_empirical,
    check_isomorphism,
    find_isomorphism,
    match_initial_state,
)
from .errors import InputError
from .reduction import (
    ReductionResult,
    minimize,
    observability_reduction,
    reachability_reduction,
)
from .signals import Signal, Trajectory, random_input, random_scheduling
from .simulation import error_system, io_response, simulate_ct, simulate_dt

__all__ = [
    "__version__",
    "AffineMatrixFunction",
    "SchedulingRegion",
    "TimeDomain",
    "LpvSsa",
    "transpose_dual",
    "Signal",
    "Trajectory",
    "random_input",
    "random_scheduling",
    "simulate_dt",
    "simulate_ct",
    "io_response",
    "error_system",
    "RankDecision",
    "RcCertificate",
    "LtvSystem",
    "extended_observability_matrix",
    "unobservable_subspace",
    "is_observable",
    "is_span_reachable_from_zero",
    "check_rc",
    "freeze_scheduling",
    "ltv_window_observability",
    "find_revealing_scheduling",
    "ReductionResult",
    "observability_reduction",
    "minimize",
    "reachability_reduction",
    "IsoResult",
    "EquivalenceReport",
    "find_isomorphism",
    "check_isomorphism",
    "match_initial_state",
    "behavior_equivalence_empirical",
    "InputError",
]
