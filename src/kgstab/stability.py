"""Charge, frequency slope, and the slope half of the stability criterion.

The conserved charge of a standing wave is

    Q = eps^N (omega ||phi||^2 + integral V(x0 + eps y) phi^2 dy).

Its derivative in omega decides one half of the stability classification.
Two independent routes are provided: the exact derivative along the
discrete branch, from one solve with the linearized operator
(`slope_numeric`), and the semiclassical leading-order coefficient built
from the limit ground state.  The scaled slope
eps^(-N) dQ/domega tends to

    (1 + (omega + V0)^2 / Z0 * (N - 4/(p-1))) ||psi||^2

away from the critical manifold, where the sign is that of the
discriminant Z0 - (omega + V0)^2 (4/(p-1) - N).  On the critical manifold
the leading term vanishes and the slope decays like eps^2; the eps^2
coefficient implemented here is

    G * beta * (beta * trace_hess_Z - 2 * trace_hess_V),
    G = (1/(p-1) - (N+2)/4) * |||y| psi||^2 / N,
    beta = 2 (omega + V0) / Z0.

The inner factor is often quoted with beta replaced by 1, which only
agrees when beta = 1; the form above is the one the numeric route
reproduces (checked to a few percent at eps = 0.025 on the critical
test family).  Both the bare discriminant and the full signed coefficient
are reported so the classification can be audited either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import Profile, compute_R_omega
# bench/tracing.py traces its target elliptic.resolve_at_omega under this name
from .elliptic import resolve_at_omega  # noqa: F401
from .potentials import EffectiveZ, PotentialPair, ProblemParams

REGIME_RTOL = 1e-6  # |noncritical discriminant| below this (times scale) => critical
SIGN_MARGIN = 10.0  # numeric sign must clear its own error estimate by this factor


@dataclass(frozen=True)
class SlopeReport:
    omega: float
    epsilon: float
    charge: float | None  # None without a profile (2d/3d asymptotic-only runs)
    charge_scaled: float | None
    slope_numeric: float | None
    slope_numeric_error: float | None
    slope_scaled: float | None
    regime: str  # "noncritical" | "critical"
    noncritical_discriminant: float
    critical_discriminant: float
    asymptotic_coefficient: float
    asymptotic_slope_scaled: float
    slope_sign: str  # from the numeric slope: "negative" | "positive" | "indeterminate"
    predicted_sign: str  # from the asymptotic coefficient


def charge_scaled(profile: Profile, params: ProblemParams, pair: PotentialPair) -> float:
    """eps^(-N) Q: the quantity with a finite limit as eps -> 0."""
    w = profile.grid.weights()
    mass = float(np.sum(w * profile.values**2))
    if pair.spec_V.is_zero():
        return params.omega * mass
    v, _, _ = pair.V(profile.sample_points())
    return params.omega * mass + float(np.sum(w * v * profile.values**2))


def slope_numeric(
    profile: Profile, params: ProblemParams, pair: PotentialPair
) -> tuple[float, float]:
    """(dQ/domega, its error) for the full charge Q, from one solve with L.

    Along the discrete branch

        eps^(-N) dQ/domega = ||phi||^2 + <chi, R>,   L R = chi = 2 (omega + V) phi,

    the exact derivative of the discrete charge, with R from
    `compute_R_omega`. The error prices the linear solve: |<chi, dR>| for
    the refinement correction dR, plus 1e-12 of the two terms, which
    cancel where the slope changes sign.
    """
    r, info = compute_R_omega(profile, params, pair)
    w = profile.grid.weights()
    mass = float(np.sum(w * profile.values**2))
    chi_r = float(np.sum(w * info["rhs"] * r))
    chi_dr = float(np.sum(w * info["rhs"] * info["correction"]))
    err = abs(chi_dr) + 1e-12 * (mass + abs(chi_r))
    epsn = params.epsilon**params.dimension
    return epsn * (mass + chi_r), epsn * err


def limit_norms(limit: Profile) -> tuple[float, float]:
    """(||psi||^2, |||y| psi||^2) of the limit state by grid quadrature."""
    w = limit.grid.weights()
    y2 = np.sum(limit.grid.points() ** 2, axis=-1)
    mass = float(np.sum(w * limit.values**2))
    ymom = float(np.sum(w * y2 * limit.values**2))
    return mass, ymom


def noncritical_discriminant(params: ProblemParams, z: EffectiveZ) -> float:
    n, p = params.dimension, params.p
    return z.z0 - (params.omega + z.v0) ** 2 * (4.0 / (p - 1.0) - n)


def critical_discriminant(params: ProblemParams, z: EffectiveZ) -> float:
    """The bare sign rule of the critical case, without the norm prefactor."""
    beta = 2.0 * (params.omega + z.v0) / z.z0
    return z.laplacian_Z - z.laplacian_V * (1.0 + beta)


def slope_asymptotic(
    z: EffectiveZ,
    params: ProblemParams,
    limit: Profile,
) -> tuple[str, float, float, float, float]:
    """Leading slope coefficient and regime from the limit state.

    Returns (regime, noncritical_discriminant, critical_discriminant,
    asymptotic_coefficient, asymptotic_slope_scaled).  The coefficient is
    for eps^(-N) dQ/domega in the noncritical regime and for
    eps^(-N-2) dQ/domega in the critical one; the last entry multiplies
    the eps^2 back in so it is directly comparable with slope_numeric.
    """
    n, p = params.dimension, params.p
    mass, ymom = limit_norms(limit)
    nd = noncritical_discriminant(params, z)
    cd = critical_discriminant(params, z)
    if abs(nd) <= REGIME_RTOL * max(1.0, z.z0):
        regime = "critical"
        beta = 2.0 * (params.omega + z.v0) / z.z0
        g = (1.0 / (p - 1.0) - (n + 2.0) / 4.0) * ymom / n
        coeff = g * beta * (beta * z.laplacian_Z - 2.0 * z.laplacian_V)
        scaled = params.epsilon**2 * coeff
    else:
        regime = "noncritical"
        coeff = (1.0 + (params.omega + z.v0) ** 2 / z.z0 * (n - 4.0 / (p - 1.0))) * mass
        scaled = coeff
    return regime, nd, cd, coeff, scaled


def classify_slope(coefficient: float) -> str:
    """Predicted slope sign from the asymptotic coefficient.

    The noncritical coefficient equals mass * discriminant / Z0, so its
    sign is the discriminant's; for p >= 1 + 4/N the discriminant is
    >= Z0 > 0 and the slope is always positive.
    """
    if coefficient < 0.0:
        return "negative"
    if coefficient > 0.0:
        return "positive"
    return "indeterminate"


def numeric_sign(slope: float, error: float) -> str:
    if abs(slope) < SIGN_MARGIN * error:
        return "indeterminate"
    return "negative" if slope < 0.0 else "positive"


def build_slope_report(
    profile: Profile | None,
    params: ProblemParams,
    pair: PotentialPair,
    z: EffectiveZ,
    limit: Profile,
    with_numeric: bool = True,
) -> SlopeReport:
    """Assemble the full slope side of the classification at one (omega, eps).

    Without a profile only the asymptotic fields are filled: the charge
    and the numeric slope are None.
    """
    regime, nd, cd, coeff, scaled_pred = slope_asymptotic(z, params, limit)
    q_scaled = q = slope = err = slope_sc = None
    sign = "indeterminate"
    if profile is not None:
        q_scaled = charge_scaled(profile, params, pair)
        q = params.epsilon**params.dimension * q_scaled
        if with_numeric and params.epsilon > 0.0:
            slope, err = slope_numeric(profile, params, pair)
            sign = numeric_sign(slope, err)
            slope_sc = slope / params.epsilon**params.dimension
    return SlopeReport(
        omega=params.omega,
        epsilon=params.epsilon,
        charge=q,
        charge_scaled=q_scaled,
        slope_numeric=slope,
        slope_numeric_error=err,
        slope_scaled=slope_sc,
        regime=regime,
        noncritical_discriminant=nd,
        critical_discriminant=cd,
        asymptotic_coefficient=coeff,
        asymptotic_slope_scaled=scaled_pred,
        slope_sign=sign,
        predicted_sign=classify_slope(coeff),
    )
