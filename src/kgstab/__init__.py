"""Stability of standing waves for semiclassical Klein-Gordon equations
with external potentials.

The pipeline: locate a nondegenerate critical point of the effective
potential, solve the limiting ground state, continue it to positive
epsilon, then decide stability three ways that must agree — the sign of
the charge slope in omega (numeric and asymptotic), the negative count
of the linearized operator, and direct time evolution of perturbed data.
"""

from .dynamics import (
    FieldState,
    Perturbation,
    TrajectoryRecord,
    energy,
    evolve,
    h1_norm,
    init_perturbed_standing_wave,
    orbital_distance,
    stable_dt,
)
from .elliptic import (
    LinearizedOperator,
    Profile,
    assemble_L,
    compute_R_omega,
    compute_T_lambda,
    continue_profile,
    resolve_at_omega,
    solve_limit_ground_state,
)
from .errors import (
    DegenerateHessian,
    EigSolverFailure,
    GridTooSmall,
    KgError,
    LostPositivity,
    ModeConflict,
    NoConvergence,
    SchemaError,
    SingularOperator,
    UnstableStep,
)
from .grids import Grid
from .potentials import (
    EffectiveZ,
    GaussianTerm,
    PotentialPair,
    PotentialSpec,
    ProblemParams,
    QuadraticTerm,
    check_assumptions,
    effective_z_at,
    eval_Z,
    find_critical_point,
    resolve_potentials,
)
from .spectrum import (
    SpectrumReport,
    build_spectrum_report,
    eig_low,
    gss_classify,
    predicted_shifts,
)
from .stability import (
    SlopeReport,
    build_slope_report,
    critical_discriminant,
    noncritical_discriminant,
    slope_asymptotic,
    slope_numeric,
)
from .cli import ScenarioConfig, parse_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Grid",
    "GaussianTerm",
    "QuadraticTerm",
    "PotentialSpec",
    "PotentialPair",
    "ProblemParams",
    "EffectiveZ",
    "resolve_potentials",
    "eval_Z",
    "effective_z_at",
    "find_critical_point",
    "check_assumptions",
    "Profile",
    "solve_limit_ground_state",
    "continue_profile",
    "resolve_at_omega",
    "compute_T_lambda",
    "compute_R_omega",
    "SlopeReport",
    "slope_numeric",
    "slope_asymptotic",
    "noncritical_discriminant",
    "critical_discriminant",
    "build_slope_report",
    "LinearizedOperator",
    "SpectrumReport",
    "assemble_L",
    "eig_low",
    "predicted_shifts",
    "build_spectrum_report",
    "gss_classify",
    "FieldState",
    "Perturbation",
    "TrajectoryRecord",
    "init_perturbed_standing_wave",
    "evolve",
    "energy",
    "h1_norm",
    "orbital_distance",
    "stable_dt",
    "ScenarioConfig",
    "parse_scenario",
    "run_scenario",
    "KgError",
    "NoConvergence",
    "DegenerateHessian",
    "GridTooSmall",
    "LostPositivity",
    "SingularOperator",
    "EigSolverFailure",
    "UnstableStep",
    "SchemaError",
    "ModeConflict",
]
