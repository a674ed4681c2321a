"""Stability of standing waves for semiclassical Klein-Gordon equations
with external potentials.

The pipeline: locate a nondegenerate critical point of the effective
potential, solve the limiting ground state, continue it to positive
epsilon, then decide stability three ways that must agree — the sign of
the charge slope in omega (numeric and asymptotic), the negative count
of the linearized operator, and direct time evolution of perturbed data.
The scenario pipeline and command line live in `kgstab.cli`, which this
package does not import.
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

__version__ = "0.1.0"
