"""External potentials and the effective potential of the standing-wave problem.

The model carries two smooth bounded potentials: V couples to the time
derivative (magnetic-like), W is a direct potential. A standing wave
with frequency `omega` concentrates where the effective potential

    Z(x) = m - omega^2 - 2 omega V(x) - W(x)

has a nondegenerate critical point x0 with Z(x0) > 0. Everything the
asymptotic analysis needs about the potentials at x0 (value, Hessian,
Laplacians) is collected in `EffectiveZ`.

Potentials are sums of Gaussian bumps and quadratic forms; all
derivatives are evaluated analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateHessian, NoConvergence, SchemaError

MODES = ("general", "schrodinger", "covariant")
CRITICAL_TOL = 1e-12  # |grad Z| at which the critical-point search stops
CRITICAL_MAX_ITER = 100  # Newton steps of the critical-point search
GRAD_TOL = 1e-8  # largest |grad Z(x0)| the assumption check accepts


@dataclass(frozen=True)
class GaussianTerm:
    """amplitude * exp(-|x - center|^2 / width^2)"""

    amplitude: float
    center: tuple
    width: float

    def __post_init__(self):
        if not (self.width > 0):
            raise SchemaError("/potential/width", "gaussian width must be positive")


@dataclass(frozen=True)
class QuadraticTerm:
    """(1/2) (x - center)^T A (x - center), A symmetric"""

    matrix: tuple  # row tuples
    center: tuple

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SchemaError("/potential/matrix", "quadratic matrix must be square")
        if not np.allclose(a, a.T, atol=1e-12):
            raise SchemaError("/potential/matrix", "quadratic matrix must be symmetric")


@dataclass(frozen=True)
class PotentialSpec:
    """Sum of terms in a fixed dimension; no terms is the zero potential."""

    dimension: int
    terms: tuple = ()

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, x: np.ndarray):
        """Value, gradient and Hessian at points x of shape (..., dim).

        Returns (val, grad, hess) shaped (...,), (..., d), (..., d, d).
        """
        x = np.asarray(x, dtype=float)
        d = self.dimension
        if x.shape[-1] != d:
            raise ValueError(f"points have dimension {x.shape[-1]}, spec has {d}")
        base = x.shape[:-1]
        val = np.zeros(base)
        grad = np.zeros(base + (d,))
        hess = np.zeros(base + (d, d))
        eye = np.eye(d)
        for term in self.terms:
            if isinstance(term, GaussianTerm):
                dx = x - np.asarray(term.center)
                r2 = np.sum(dx**2, axis=-1)
                g = term.amplitude * np.exp(-r2 / term.width**2)
                val += g
                grad += (-2.0 / term.width**2) * dx * g[..., None]
                outer = dx[..., :, None] * dx[..., None, :]
                hess += g[..., None, None] * (
                    (4.0 / term.width**4) * outer - (2.0 / term.width**2) * eye
                )
            else:
                a = np.asarray(term.matrix, dtype=float)
                dx = x - np.asarray(term.center)
                adx = dx @ a
                val += 0.5 * np.sum(dx * adx, axis=-1)
                grad += adx
                hess += np.broadcast_to(a, base + (d, d))
        return val, grad, hess

@dataclass(frozen=True)
class ProblemParams:
    """Model parameters: dimension, nonlinearity power, mass, frequency,
    semiclassical parameter and the coupling mode. The numbers must be
    finite."""

    dimension: int
    p: float
    m: float
    omega: float
    epsilon: float
    mode: str = "general"

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise SchemaError("/params/dimension", "dimension must be 1, 2 or 3")
        if not (1 < self.p < math.inf):
            raise SchemaError("/params/p", "need finite p > 1")
        if self.dimension >= 3 and not (self.p < (self.dimension + 2) / (self.dimension - 2)):
            raise SchemaError("/params/p", "p must be Sobolev-subcritical for dimension >= 3")
        if not (0 < self.m < math.inf):
            raise SchemaError("/params/m", "need finite m > 0")
        if not (abs(self.omega) < math.inf):
            raise SchemaError("/params/omega", "omega must be finite")
        if not (0 <= self.epsilon < math.inf):
            raise SchemaError("/params/epsilon", "epsilon must be finite and nonnegative")
        if self.mode not in MODES:
            raise SchemaError("/params/mode", f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class PotentialPair:
    """V and W resolved for a given mode.

    In covariant mode W = V^2 is derived from V by the chain rule, so
    callers never supply W themselves there; in schrodinger mode V = 0.
    """

    spec_V: PotentialSpec
    spec_W: PotentialSpec
    mode: str = "general"

    def V(self, x):
        return self.spec_V.evaluate(x)

    def W(self, x):
        if self.mode != "covariant":
            return self.spec_W.evaluate(x)
        v, gv, hv = self.spec_V.evaluate(x)
        w = v**2
        gw = 2.0 * v[..., None] * gv
        hw = 2.0 * (gv[..., :, None] * gv[..., None, :] + v[..., None, None] * hv)
        return w, gw, hw


def resolve_potentials(params: ProblemParams, spec_V: PotentialSpec | None, spec_W: PotentialSpec | None) -> PotentialPair:
    d = params.dimension
    zero = PotentialSpec(d)
    if params.mode == "schrodinger":
        if spec_V is not None and not spec_V.is_zero():
            raise SchemaError("/potentials/V", "schrodinger mode forces V = 0")
        return PotentialPair(zero, spec_W or zero, mode="schrodinger")
    if params.mode == "covariant":
        if spec_W is not None and not spec_W.is_zero():
            # W is derived, never supplied
            from .errors import ModeConflict

            raise ModeConflict("/potentials/W", "covariant mode derives W = V^2")
        return PotentialPair(spec_V or zero, zero, mode="covariant")
    return PotentialPair(spec_V or zero, spec_W or zero, mode="general")


def eval_Z(params: ProblemParams, pair: PotentialPair, x: np.ndarray):
    """Effective potential and derivatives: (Z, grad Z, hess Z)."""
    v, gv, hv = pair.V(x)
    w, gw, hw = pair.W(x)
    om = params.omega
    z = params.m - om**2 - 2.0 * om * v - w
    gz = -2.0 * om * gv - gw
    hz = -2.0 * om * hv - hw
    return z, gz, hz


@dataclass(frozen=True)
class EffectiveZ:
    """Local data of Z at a concentration point."""

    x0: tuple
    z0: float
    grad_norm: float
    hess_eigs: tuple  # ascending
    laplacian_Z: float
    v0: float
    laplacian_V: float

    def hessian_negatives(self) -> int:
        return int(np.sum(np.asarray(self.hess_eigs) < 0.0))


def effective_z_at(params: ProblemParams, pair: PotentialPair, x: np.ndarray) -> EffectiveZ:
    """Collect EffectiveZ data at a given point (no criticality enforced)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z, gz, hz = eval_Z(params, pair, x)
    v0, _, hv = pair.V(x)
    eigs = np.linalg.eigvalsh(hz)
    return EffectiveZ(
        x0=tuple(float(c) for c in x),
        z0=float(z),
        grad_norm=float(np.linalg.norm(gz)),
        hess_eigs=tuple(float(e) for e in eigs),
        laplacian_Z=float(np.trace(hz)),
        v0=float(v0),
        laplacian_V=float(np.trace(hv)),
    )


def find_critical_point(
    params: ProblemParams,
    pair: PotentialPair,
    guess: np.ndarray,
) -> EffectiveZ:
    """Damped Newton search for grad Z = 0 starting from `guess`, down to
    |grad Z| <= CRITICAL_TOL.

    Raises NoConvergence after CRITICAL_MAX_ITER iterations and
    DegenerateHessian when the Hessian at the iterate (or the converged
    point) is singular at relative scale 1e-8.
    """
    x = np.atleast_1d(np.asarray(guess, dtype=float)).copy()

    def degenerate(hz):
        scale = max(1.0, float(np.abs(hz).max()))
        return np.min(np.abs(np.linalg.eigvalsh(hz))) < 1e-8 * scale

    for _ in range(CRITICAL_MAX_ITER):
        _, gz, hz = eval_Z(params, pair, x)
        gnorm = np.linalg.norm(gz)
        if gnorm <= CRITICAL_TOL:
            if degenerate(hz):
                raise DegenerateHessian(f"singular Hessian of Z at {x.tolist()}")
            return effective_z_at(params, pair, x)
        if degenerate(hz):
            raise DegenerateHessian(f"singular Hessian of Z near {x.tolist()}")
        step = np.linalg.solve(hz, -gz)
        # backtracking on |grad Z|
        lam = 1.0
        for _ in range(40):
            trial = x + lam * step
            _, gt, _ = eval_Z(params, pair, trial)
            if np.linalg.norm(gt) < gnorm:
                x = trial
                break
            lam *= 0.5
        else:
            raise NoConvergence("critical point search stalled", residual=float(gnorm))
    raise NoConvergence("critical point search did not converge", residual=float(gnorm))


@dataclass(frozen=True)
class AssumptionReport:
    """Flags for the standing assumptions at the critical point."""

    critical_point_ok: bool
    hessian_nondegenerate: bool
    positivity_ok: bool
    messages: tuple = field(default=())

    @property
    def all_ok(self) -> bool:
        return self.critical_point_ok and self.hessian_nondegenerate and self.positivity_ok


def check_assumptions(z: EffectiveZ) -> AssumptionReport:
    msgs = []
    crit = z.grad_norm <= GRAD_TOL
    if not crit:
        msgs.append(f"|grad Z(x0)| = {z.grad_norm:.3e} exceeds {GRAD_TOL:.1e}")
    scale = max(1.0, max(abs(e) for e in z.hess_eigs) if z.hess_eigs else 0.0)
    nondeg = all(abs(e) >= 1e-8 * scale for e in z.hess_eigs) and len(z.hess_eigs) > 0
    if not nondeg:
        msgs.append("Hessian of Z at x0 is numerically singular")
    pos = z.z0 > 0
    if not pos:
        msgs.append(f"Z(x0) = {z.z0:.3e} is not positive")
    return AssumptionReport(crit, nondeg, pos, tuple(msgs))
