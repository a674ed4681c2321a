"""Ground-state profiles: the limit problem, continuation in epsilon,
the linearized operator L at a profile, and the two derivative fields
used by the stability analysis.

Limit problem (constant coefficient c = Z(x0) > 0):

    -lap psi + c psi = psi^p,   psi > 0, psi -> 0

solved by a stabilized fixed-point iteration (integral-normalized, the
classic globally convergent scheme for this equation). On
finite-difference grids the damped Newton iteration that also drives
the continuation below takes it to tolerance. The one-dimensional
closed form

    psi(y) = ((p+1) c / 2)^(1/(p-1)) sech(sqrt(c)(p-1) y / 2)^(2/(p-1))

taken at |y| seeds the iteration and doubles as an oracle in the tests.

Semiclassical problem at epsilon > 0 (coordinates recentered at x0):

    -lap phi + Z(x0 + eps y) phi = phi^p

continued from the limit state with geometric steps in epsilon and
Newton at each step. The recentering point is chosen once per scenario
and kept fixed while omega varies, so frequency derivatives are taken
on a fixed coordinate frame.

Line and box grids are one tensor-product case throughout; the radial
limit grid is the other. Only the sine-collocation limit solver is
specific to the line. Where Z(x0 + eps y) is even in an axis, so are
phi and L (Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986):
Newton then solves on the mirror half of that axis, and L splits into
an even and an odd block there.

Operators are kept in the form their grid makes cheapest (`_operator`).
On line and radial grids -lap + diag is tridiagonal: it stays three
bands (`grids.bands`), applied in O(n) and factored by LAPACK ?gttrf
(`factor_banded`), with no sparse matrix and no SuperLU. On box grids
it is assembled as a sparse matrix, once per solve, and factored by a
symmetric-mode SuperLU (`factor_ldl`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu

from . import grids
from .errors import GridTooSmall, LostPositivity, NoConvergence, SingularOperator
from .grids import Grid
from .potentials import EffectiveZ, PotentialPair, ProblemParams, eval_Z

log = logging.getLogger("kgstab")

BOUNDARY_DECAY_REL = 1e-5
NEWTON_MAX_ITER = 30  # Newton steps of one nonlinear solve
IDENTITY_RTOL = 1e-6  # largest ||L R - chi|| / ||phi|| that `compute_R_omega` returns


@dataclass
class Profile:
    """A solved stationary profile on its grid.

    `values` has the grid's full shape with zero boundary entries.
    `center` is the x-point the grid is laid around (x = center + eps*y)
    and `peak` is the argmax location in y, the numerical stand-in for
    the concentration shift.
    """

    grid: Grid
    values: np.ndarray
    epsilon: float
    p: float
    center: tuple
    residual: float
    peak: tuple

    def mass(self) -> float:
        """L^2 norm squared over R^N (in y coordinates)."""
        w = self.grid.weights()
        return float(np.sum(w * self.values**2))

    def sample_points(self) -> np.ndarray:
        """Physical x coordinates of the nodes, shape (*shape, N)."""
        pts = self.grid.points()
        return np.asarray(self.center) + self.epsilon * pts


def sech_ground_state(c: float, p: float, y: np.ndarray) -> np.ndarray:
    """Closed-form 1d ground state of -psi'' + c psi = psi^p."""
    amp = ((p + 1.0) * c / 2.0) ** (1.0 / (p - 1.0))
    arg = 0.5 * np.sqrt(c) * (p - 1.0) * y
    return amp * np.cosh(arg) ** (-2.0 / (p - 1.0))


def _nonlin(psi: np.ndarray, p: float) -> np.ndarray:
    # sign-safe power, keeps odd symmetry for non-integer p
    return np.abs(psi) ** (p - 1.0) * psi


def _decay_check(grid: Grid, values: np.ndarray):
    peak = float(np.abs(values).max())
    if peak == 0.0:
        raise NoConvergence("solver collapsed to zero")
    if grid.geometry == "radial":
        edge = float(np.abs(values[-2]))
    else:
        inner = values[(slice(1, -1),) * grid.dimension]
        faces = []
        for a in range(grid.dimension):
            faces.append(np.abs(np.take(inner, 0, axis=a)).max())
            faces.append(np.abs(np.take(inner, -1, axis=a)).max())
        edge = float(max(faces))
    if edge > BOUNDARY_DECAY_REL * peak:
        raise GridTooSmall(
            f"boundary amplitude {edge:.2e} vs peak {peak:.2e}: domain too small"
        )


def _peak_of(grid: Grid, values: np.ndarray) -> tuple:
    """Location of the largest |value|: the lowest index among the nodes
    within 1e-12 relative of the maximum, so a roundoff tie between two
    centre nodes always reports the same one."""
    mag = np.abs(values).ravel()
    first = int(np.flatnonzero(mag >= (1.0 - 1e-12) * mag.max())[0])
    idx = np.unravel_index(first, values.shape)
    if grid.geometry == "radial":
        out = [grid.axis[idx[0]]] + [0.0] * (grid.dimension - 1)
        return tuple(out)
    return tuple(float(grid.axis[i]) for i in idx)


def _profile(grid: Grid, psi: np.ndarray, res: float, epsilon, p, center) -> Profile:
    """The Profile of interior values psi on grid, boundary entries zero."""
    values = grids.insert_interior(grid, psi)
    return Profile(
        grid=grid,
        values=values,
        epsilon=epsilon,
        p=p,
        center=tuple(center),
        residual=res,
        peak=_peak_of(grid, values),
    )


# ---------------------------------------------------------------------------
# limit problem


def _petviashvili(apply_A, solve_A, weights, psi, p, tol, max_iter=400):
    """Stabilized fixed point for A psi = psi^p with A = -lap + c.

    Each iterate is g solve_A(f), so A psi = g f is carried into the next
    quotient; A is applied only to the start and at the residual checks.
    """
    gamma_exp = p / (p - 1.0)
    res = np.inf
    res_prev = np.inf
    a_psi = apply_A(psi)
    for it in range(max_iter):
        f = _nonlin(psi, p)
        num = float(np.sum(weights * psi * a_psi))
        den = float(np.sum(weights * psi * f))
        if den <= 0:
            raise NoConvergence("fixed-point iteration lost positivity of <psi^p, psi>")
        g = (num / den) ** gamma_exp
        psi = g * solve_A(f)
        a_psi = g * f
        if it % 5 == 4 or it > 40:
            a_psi = apply_A(psi)
            res = float(np.sqrt(np.sum(weights * (a_psi - _nonlin(psi, p)) ** 2)))
            if res < tol:
                return psi, res, it + 1
            if res > 0.98 * res_prev and it > 60:
                break  # roundoff floor
            res_prev = res
    return psi, res, max_iter


def _solve_limit_fd(c: float, p: float, grid: Grid, tol: float):
    z = np.full(grid.n_interior(), c)
    apply_A, factor, _ = _operator(grid, None, z)
    w = grids.extract_interior(grid, grid.weights())
    psi0 = grids.extract_interior(grid, sech_ground_state(c, p, grid.radii()))
    psi, res, _ = _petviashvili(apply_A, factor().solve, w, psi0, p, max(tol, 1e-9))
    return _newton(grid, z, p, psi, w, tol)


def _solve_limit_sine(c: float, p: float, grid: Grid, tol: float):
    """Pseudospectral (sine collocation) variant for line grids.

    The Dirichlet Laplacian is diagonal in the DST basis, so the profile
    is resolved to roundoff rather than O(h^2); used where the grid is
    too coarse for the finite-difference stencil to hit the requested
    pointwise accuracy.
    """
    k = np.arange(1, grid.n - 1)
    mu = (np.pi * k / (2.0 * grid.extent)) ** 2

    def apply_A(v):
        return scipy.fft.idst(scipy.fft.dst(v, type=1) * (mu + c), type=1)

    def solve_A(v):
        return scipy.fft.idst(scipy.fft.dst(v, type=1) / (mu + c), type=1)

    w = grids.extract_interior(grid, grid.weights())
    psi0 = grids.extract_interior(grid, sech_ground_state(c, p, grid.axis))
    psi, res, _ = _petviashvili(apply_A, solve_A, w, psi0, p, tol, max_iter=2000)
    if res >= tol:
        raise NoConvergence("sine-collocation iteration stalled", residual=res)
    return psi, res


def solve_limit_ground_state(
    c: float, p: float, grid: Grid, tol: float = 1e-10, method: str = "auto"
) -> Profile:
    """Positive decaying solution of -lap psi + c psi = psi^p.

    method: "fd" (second-order stencil, matches the continuation family),
    "sine" (spectral in space, line grids only), or "auto" which picks
    "sine" on line grids and "fd" otherwise. The profile is centred at
    the origin: `continue_profile` sets the centre, and settles a sine
    state on the finite-difference branch that L and the continuation
    solve.
    """
    if not (c > 0):
        raise ValueError("need c > 0")
    if method == "auto":
        method = "sine" if grid.geometry == "line" else "fd"
    if method == "sine":
        if grid.geometry != "line":
            raise ValueError("sine method is available on line grids only")
        psi_int, res = _solve_limit_sine(c, p, grid, tol)
    elif method == "fd":
        psi_int, res = _solve_limit_fd(c, p, grid, tol)
    else:
        raise ValueError(f"unknown method {method!r}")
    if np.min(psi_int) < 0 and abs(np.min(psi_int)) > 1e-10 * np.max(psi_int):
        raise LostPositivity("limit solver produced a sign-changing profile")
    origin = (0.0,) * grid.dimension
    profile = _profile(grid, np.maximum(psi_int, 0.0), res, 0.0, p, origin)
    _decay_check(grid, profile.values)
    return profile


# ---------------------------------------------------------------------------
# semiclassical continuation


def _z_on_grid(params: ProblemParams, pair: PotentialPair, grid: Grid, center, epsilon):
    """Z(center + epsilon y) on the grid's interior nodes."""
    x = np.asarray(center) + epsilon * grid.points()
    z, _, _ = eval_Z(params, pair, x)
    return grids.extract_interior(grid, z)


def even_axes(grid: Grid, z_int: np.ndarray):
    """The parity to fold by: 1 on each axis in which z is even, else 0.

    Even means equal to its reflection about the axis centre within
    1e-12 max(1, |z|), the nodes being symmetric only to roundoff. None
    on a radial grid, which has no axes to fold.
    """
    if grid.geometry == "radial":
        return None
    scale = max(1.0, float(np.max(np.abs(z_int))))
    z = z_int.reshape((grid.n - 2,) * grid.dimension)
    return tuple(
        int(np.allclose(z, np.flip(z, a), rtol=0.0, atol=1e-12 * scale))
        for a in range(grid.dimension)
    )


def factor_ldl(a):
    """Symmetric-mode SuperLU of the CSC matrix `a`.

    Minimum-degree ordering on A + A^T and pivots taken from the
    diagonal, so P A P^T = L D L^T with D = diag(U) when perm_r == perm_c.
    Box grids factor here: Newton's Jacobians, the parity block of L
    that `compute_R_omega` solves with, and the shift-invert operators of
    `spectrum.eig_low`. It is the one caller of `splu`.
    """
    return splu(
        a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
    )


@dataclass(frozen=True)
class BandedLU:
    """LAPACK ?gttrf factors of a tridiagonal matrix, with SuperLU's `solve`."""

    factors: tuple

    def solve(self, b: np.ndarray) -> np.ndarray:
        return dgttrs(*self.factors, b)[0]


def factor_banded(lower: np.ndarray, main: np.ndarray, upper: np.ndarray) -> BandedLU:
    """LU with partial pivoting of the tridiagonal matrix with these bands.

    Line and radial grids factor here, in O(n) and with no sparse matrix:
    Newton's Jacobians, the limit operator and the folded L of
    `compute_R_omega`. A zero pivot raises `SingularOperator`.
    """
    *factors, info = dgttrf(lower, main, upper)
    if info > 0:
        raise SingularOperator(f"tridiagonal factorization: pivot {info} is exactly zero")
    return BandedLU(tuple(factors))


def _operator(grid: Grid, parity, diagonal: np.ndarray):
    """-lap + diag(diagonal) on the kept nodes of `parity`: (apply, factor, kind).

    `factor(shift)` factors the operator less diag(shift), the operator
    itself when no shift is given, and raises `SingularOperator` where
    that is singular. Line and radial grids keep the operator as its
    three `grids.bands`, applied in O(n) and factored by `factor_banded`;
    box grids assemble the sparse matrix once and factor it by
    `factor_ldl`. `kind` names the factorization for the log.
    """
    if grid.geometry == "box":
        a = (grids.neg_laplacian(grid, parity) + sp.diags_array(diagonal)).tocsc()

        def factor_box(shift=None):
            try:
                return factor_ldl(a if shift is None else (a - sp.diags_array(shift)).tocsc())
            except RuntimeError as exc:
                raise SingularOperator(f"sparse factorization failed: {exc}") from exc

        return a.__matmul__, factor_box, "LDL^T"
    lower, main, upper = grids.bands(grid, parity)
    main = main + diagonal

    def apply(v):
        # summed in the order of a CSC product: the sparse path's values
        out = main * v
        out[1:] += lower * v[:-1]
        out[:-1] += upper * v[1:]
        return out

    def factor_line(shift=None):
        return factor_banded(lower, main if shift is None else main - shift, upper)

    return apply, factor_line, "banded"


def _newton(
    grid: Grid,
    z_int: np.ndarray,
    p: float,
    psi: np.ndarray,
    weights: np.ndarray,
    tol: float,
):
    """Damped Newton for -lap phi + z phi - phi^p = 0, z on interior nodes.

    Every nonlinear finite-difference solve runs through here: the limit
    state (constant z = c), each continuation step in epsilon and the
    omega re-solves. On the axes in which z is even (`even_axes`) it solves on
    the kept nodes of `grids.fold_maps`, the half line or the quarter box,
    with a mirror ghost node at each plane, and returns the even
    extension. The residual norm weighs a kept node by its full-box
    weight times its multiplicity; the Jacobian, scaled by the
    multiplicities, is symmetric. On line and radial grids the operator
    and the Jacobian stay tridiagonal bands, factored by `factor_banded`;
    on box grids they are sparse matrices, factored by `factor_ldl`
    (see `_operator`).

    The Jacobian is refactored only when the residual falls by less than
    a factor 4 per step (on box grids the LU dominates the cost); each
    step is halved until the weighted residual decreases. When the
    halving fails on a reused factorization, whose direction may no
    longer descend, the Jacobian is refactored at the current iterate
    and the step retried; only a fresh factorization that also stalls
    raises. A residual within 10 tol is accepted where the line search
    or the iteration budget runs out, that being the roundoff floor.
    A DEBUG log line names the folding at the start and, on return, the
    factorization kind, the iterations, the factorizations and the
    residual. Returns (psi, res).
    """
    parity = even_axes(grid, z_int)
    restrict, extend = grids.fold_maps(grid, parity)
    mu = grids.multiplicity(grid, parity)
    folded = [a for a, s in enumerate(parity or ()) if s]
    log.debug("newton: %d of %d unknowns, folded axes %s", mu.size, psi.size, folded)
    weights = restrict(weights)
    apply_Az, factor, kind = _operator(grid, parity, restrict(z_int))
    psi = restrict(psi) / mu

    def residual(v):
        return apply_Az(v) / mu - _nonlin(v, p)

    lu = None
    factorizations = 0
    res_prev = np.inf
    f = residual(psi)
    res = float(np.sqrt(np.sum(weights * f**2)))
    for it in range(NEWTON_MAX_ITER):
        if res < tol:
            break
        fresh = lu is None or res > 0.25 * res_prev
        if fresh:
            lu = factor(mu * p * np.abs(psi) ** (p - 1.0))
            factorizations += 1
        delta = lu.solve(-mu * f)
        lam = 1.0
        for _ in range(25):
            trial = psi + lam * delta
            ft = residual(trial)
            rt = float(np.sqrt(np.sum(weights * ft**2)))
            if rt < res or rt < tol:
                res_prev, res, psi, f = res, rt, trial, ft
                break
            lam *= 0.5
        else:
            # Line search exhausted: at the roundoff floor of the residual.
            if res < 10.0 * tol:
                break
            if not fresh:
                lu = None  # refactor at this iterate and retry the step
                continue
            raise NoConvergence("Newton line search stalled", residual=res, iterations=it)
    else:
        it = NEWTON_MAX_ITER
        if res >= 10.0 * tol:
            raise NoConvergence("Newton did not converge", residual=res, iterations=it)
    log.debug(
        "newton done: %s, %d iterations, %d factorizations, residual %.3e",
        kind, it, factorizations, res,
    )
    return extend(psi), res


def continue_profile(
    limit: Profile,
    params: ProblemParams,
    pair: PotentialPair,
    z: EffectiveZ,
    grid: Grid,
    tol: float = 1e-10,
) -> Profile:
    """The profile at params.epsilon on `grid`, marched from the limit state.

    The limit state is first settled on the grid's own finite-difference
    branch at epsilon = 0 (Newton at constant Z(x0)), which is the result
    at epsilon = 0: the state that L at epsilon = 0 linearizes about. A
    limit state on a radial grid is transplanted to `grid` by radial
    interpolation. From there a geometric epsilon schedule with step
    halving on Newton failure marches to params.epsilon; each accepted
    step must keep the profile positive. A radial grid samples
    Z(x0 + eps y) along one axis only, so it raises ValueError at
    epsilon > 0.
    """
    target = params.epsilon
    if target > 0.0 and grid.geometry == "radial":
        raise ValueError("continuation to epsilon > 0 needs a line or box grid")
    center = tuple(z.x0)

    if limit.grid == grid:
        psi = grids.extract_interior(grid, limit.values)
    elif limit.grid.geometry == "radial":
        radii = grid.radii()
        vals = grids.interpolate_radial(limit.grid, limit.values, radii)
        psi = grids.extract_interior(grid, vals)
    else:
        raise ValueError("limit profile lives on an incompatible grid")

    w = grids.extract_interior(grid, grid.weights())

    # settle on this grid's own discrete branch at epsilon = 0 first
    z0_int = np.full(grid.n_interior(), z.z0)
    psi, res = _newton(grid, z0_int, params.p, psi, w, tol)

    eps_now = 0.0
    step = target / 8.0
    min_step = abs(target) * 1e-4
    while eps_now < target:
        eps_try = min(eps_now + step, target)
        z_int = _z_on_grid(params, pair, grid, center, eps_try)
        try:
            psi_new, res = _newton(grid, z_int, params.p, psi, w, tol)
        except (NoConvergence, SingularOperator) as exc:
            step *= 0.5
            if step < min_step:
                raise NoConvergence(
                    f"continuation stalled at epsilon = {eps_now:.4g}",
                    residual=getattr(exc, "residual", None),
                ) from exc
            continue
        if np.min(psi_new) < -1e-8 * np.max(np.abs(psi_new)):
            raise LostPositivity(f"profile changed sign at epsilon = {eps_try:.4g}")
        psi = psi_new
        eps_now = eps_try
        step *= 1.5

    profile = _profile(grid, np.maximum(psi, 0.0), res, target, params.p, center)
    _decay_check(grid, profile.values)
    return profile


def resolve_at_omega(
    profile: Profile,
    params: ProblemParams,
    pair: PotentialPair,
    tol: float = 1e-10,
) -> Profile:
    """Re-solve on the profile's grid at params.omega (same epsilon, same
    coordinate frame): warm Newton start from the given profile.

    The center is deliberately NOT re-derived from the new omega, so
    that difference quotients in omega, the reference the tests hold the
    frequency derivative to, stay on one coordinate frame.
    """
    grid = profile.grid
    w = grids.extract_interior(grid, grid.weights())
    z_int = _z_on_grid(params, pair, grid, profile.center, profile.epsilon)
    psi = grids.extract_interior(grid, profile.values)
    psi, res = _newton(grid, z_int, params.p, psi, w, tol)
    return _profile(grid, psi, res, profile.epsilon, params.p, profile.center)


# ---------------------------------------------------------------------------
# derivative fields


def compute_T_lambda(profile: Profile) -> np.ndarray:
    """Derivative at lam = 1 of the scaling family
    phi_lam(y) = lam^(-1/(p-1)) phi(y / sqrt(lam)):

        T = -phi/(p-1) - (1/2) y . grad phi

    with the gradient taken by centered differences.
    """
    g = grids.gradient(profile.grid, profile.values)
    # radial nodes lie on the first axis, and d/dr is their one component
    pts = profile.grid.points()
    ydotgrad = sum(pts[..., a] * g[a] for a in range(len(g)))
    return -profile.values / (profile.p - 1.0) - 0.5 * ydotgrad


@dataclass(frozen=True)
class LinearizedOperator:
    """L on the interior nodes, or its block on the fields of a `parity`
    (`grids.fold_maps`) in their orthonormal basis: a mirror pair weighs
    1/sqrt(2), and an even axis couples to its plane node by sqrt(2)."""

    grid: Grid
    diagonal: np.ndarray  # Z(x0 + eps y) - p |phi|^(p-1) on the unknowns
    parity: tuple | None = None

    def matrix(self) -> sp.csr_array:
        a = grids.neg_laplacian(self.grid, self.parity)
        if self.parity is not None:
            s = sp.diags_array(1.0 / np.sqrt(grids.multiplicity(self.grid, self.parity)))
            a = s @ a @ s
        return (a + sp.diags_array(self.diagonal)).tocsr()

    def bands(self) -> tuple:
        """(main, off) of `matrix()` on a line grid, with no sparse matrix:
        the same products in the same order, so the same values."""
        _, main, off = grids.bands(self.grid, self.parity)
        s = 1.0 / np.sqrt(grids.multiplicity(self.grid, self.parity))
        return (s * main) * s + self.diagonal, (s[:-1] * off) * s[1:]


def assemble_L(
    profile: Profile, params: ProblemParams, pair: PotentialPair
) -> LinearizedOperator:
    """L = -lap + Z(x0 + eps y) - p |phi|^(p-1) on the profile's interior nodes.

    Line and box grids only: those are the geometries with a symmetric
    Laplacian, which the eigensolvers require.
    """
    grid = profile.grid
    if grid.geometry == "radial":
        raise ValueError("assemble_L needs a line or box grid (symmetric stencil)")
    zvals = _z_on_grid(params, pair, grid, profile.center, profile.epsilon)
    phi = grids.extract_interior(grid, profile.values)
    diag = zvals - params.p * np.abs(phi) ** (params.p - 1.0)
    return LinearizedOperator(grid=grid, diagonal=diag)


def compute_R_omega(profile: Profile, params: ProblemParams, pair: PotentialPair):
    """Frequency derivative R = d phi / d omega, from one solve with L.

    Differentiating the profile equation in omega gives

        L_eps R = chi,   chi = 2 (omega + V(x)) phi,

    exactly along the discrete branch. Where L and chi are both even in
    an axis (`even_axes`), as they are where Z and V are, so is R, and
    the solve runs on the kept nodes of `grids.fold_maps` as in
    `_newton`: the half line or the quarter box. It takes one
    factorization (`_operator`) and one step of iterative refinement,
    the operator being nearly singular for small epsilon. An identity
    residual ||L_eps R - chi|| above IDENTITY_RTOL ||phi|| raises
    `SingularOperator`. Returns (R, info): info holds that residual, the
    parity, and on the full grid chi ("rhs") and the refinement
    correction dR ("correction"), which prices the solve's error.
    """
    grid = profile.grid
    w = grids.extract_interior(grid, grid.weights())
    v, _, _ = pair.V(profile.sample_points())
    rhs = grids.extract_interior(grid, 2.0 * (params.omega + v) * profile.values)
    diagonal = assemble_L(profile, params, pair).diagonal
    parity = tuple(map(min, even_axes(grid, diagonal), even_axes(grid, rhs)))
    restrict, extend = grids.fold_maps(grid, parity)
    mu = grids.multiplicity(grid, parity)
    apply_L, factor, _ = _operator(grid, parity, restrict(diagonal))
    chi = restrict(rhs)
    lu = factor()
    r = lu.solve(chi)
    dr = lu.solve(chi - apply_L(r))
    r = r + dr

    resid = float(np.sqrt(np.sum(restrict(w) * ((apply_L(r) - chi) / mu) ** 2)))
    phinorm = float(np.sqrt(np.sum(w * grids.extract_interior(grid, profile.values) ** 2)))
    rhs = grids.insert_interior(grid, rhs)
    dr = grids.insert_interior(grid, extend(dr))
    log.debug(
        "R_omega done: parity %s, %d unknowns, identity residual %.3e, <chi, dR> %.3e",
        parity, mu.size, resid, float(np.sum(grid.weights() * rhs * dr)),
    )
    if resid > IDENTITY_RTOL * phinorm:
        raise SingularOperator(
            f"identity residual {resid:.2e} exceeds {IDENTITY_RTOL:.1e} * ||phi||"
        )
    info = {"identity_residual": resid, "parity": parity, "rhs": rhs, "correction": dr}
    return grids.insert_interior(grid, extend(r)), info
