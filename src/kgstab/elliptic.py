"""Ground-state profiles: the limit problem, continuation in epsilon,
the linearized operator L at a profile, and the frequency derivative
R = d phi / d omega that the numeric slope reads.

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
bands (`grids.Fold.bands`), applied in O(n) and factored by LAPACK ?gttrf
(`factor_banded`), with no sparse matrix and no SuperLU; each Newton
Jacobian is factored afresh, at about the cost of one solve. On box
grids it is a sparse matrix, factored by a symmetric-mode SuperLU
(`factor_ldl`), which costs as much as dozens of solves. Each box
matrix is a `SparseLDL`, which carries its fold and is factored at its
first solve. A chain of box Newton solves (the settle at epsilon = 0,
then each continuation step and omega re-solve from it) holds one of
them, factored at its first Jacobian: every later Jacobian on the same
fold is solved by iterative refinement against it, to roundoff, so the
Newton path is that of a fresh factorization per Jacobian. The chain
also keeps the matrices its solves work on (`SparseLDL.operator`): one
-lap + diag of its fold and one Jacobian, assembled once and given each
solve's and each Jacobian's diagonal in place, and one |J|. The slope's
R and the spectrum release it before they factor L
(`release_factorization`). scipy.sparse is imported where a box
operator is first built or factored (`grids.neg_laplacian`, `splu`), so
a line run never loads it.

Besides the fields a solve returns and the Z field a profile keeps, no
array of a box continuation grows with the full box: Z(x0 + eps y) and
the radial transplant are evaluated a block of nodes at a time
(`grids.on_interior`), and the Newton solves work on the fold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import grids
from .errors import GridTooSmall, LostPositivity, NoConvergence, SingularOperator
from .grids import Grid
from .potentials import EffectiveZ, PotentialPair, ProblemParams, eval_Z

log = logging.getLogger("kgstab")

BOUNDARY_DECAY_REL = 1e-5
NEWTON_MAX_ITER = 30  # Newton steps of one nonlinear solve
IDENTITY_RTOL = 1e-6  # largest ||L R - chi|| / ||phi|| that `compute_R_omega` returns
# Refinement stops at this backward error max |b - J x| / max(|J| |x| + |b|).
# It stagnates at about eps, so a sweep from above 8 eps still cuts it 4x.
REFINE_FLOOR = 8.0 * np.finfo(float).eps
# Refinement sweeps one Newton solve makes against the held LDL^T, since
# it began or last factored, past which it factors its next Jacobian
# afresh. A factorization of the 57.6k-unknown quarter of a 481^2 box costs
# about 22 sweeps (0.15 s against 6.5 ms, 2 Xeon vCPUs); this is three of
# them. The benchmark's 2d saddle spends at most 15 sweeps per Newton
# solve and the test suite's boxes at most 55; a 33^2 box whose z jumps
# from 0.81 to 0.85 spent 121, 11 in each of 11 linear solves. A linear
# solve needs no cap of its own: the 4x rule of `SparseLDL` stops one
# after about 27 sweeps, near the cost of a factorization.
REFINE_BUDGET = 66
# SuperLU's panel width in `factor_ldl`, in columns. Its work arrays grow
# with the unknowns times the panel. On the 57.6k-unknown parity blocks of
# a 481^2 box, panels of 1, 2 and 4 factor in the same time to within the
# noise, about 25% faster than the default of 12, with the same fill; 1
# needs the least memory.
SUPERLU_PANEL = 1


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
    # ((m, omega, pair), Z(center + epsilon y) on the interior nodes)
    _z: tuple | None = field(default=None, init=False, repr=False)
    # the LDL^T of the chain of box Newton solves this profile ends
    _held: SparseLDL | None = field(default=None, init=False, repr=False)

    def mass(self) -> float:
        """L^2 norm squared over R^N (in y coordinates)."""
        w = self.grid.weights()
        return float(np.sum(w * self.values**2))

    def sample_points(self) -> np.ndarray:
        """Physical x coordinates of the nodes, shape (*shape, N)."""
        pts = self.grid.points()
        return np.asarray(self.center) + self.epsilon * pts

    def z_field(self, params: ProblemParams, pair: PotentialPair) -> np.ndarray:
        """Z(center + epsilon y) on the interior nodes, for the m and omega
        of `params`: evaluated once and kept with this profile, read-only.
        The continuation and the omega re-solve leave the field they
        solved at here, so L and R read it without evaluating Z again."""
        key = _z_key(params, pair)
        if self._z is None or self._z[0] != key:
            self._z = (key, _z_on_grid(params, pair, self.grid, self.center, self.epsilon))
        return self._z[1]


def sech_ground_state(c: float, p: float, y: np.ndarray) -> np.ndarray:
    """Closed-form 1d ground state of -psi'' + c psi = psi^p."""
    amp = ((p + 1.0) * c / 2.0) ** (1.0 / (p - 1.0))
    arg = 0.5 * np.sqrt(c) * (p - 1.0) * y
    return amp * np.cosh(arg) ** (-2.0 / (p - 1.0))


def _nonlin(psi: np.ndarray, p: float) -> np.ndarray:
    # sign-safe power, keeps odd symmetry for non-integer p
    return np.abs(psi) ** (p - 1.0) * psi


def _decay_check(grid: Grid, values: np.ndarray):
    peak = float(max(values.max(), -values.min()))  # max |values|, with no temporary
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
    flat = values.ravel()
    top = (1.0 - 1e-12) * max(flat.max(), -flat.min())  # of max |value|
    first = int(np.flatnonzero((flat >= top) | (flat <= -top))[0])
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
    return _newton(grid, z, p, psi, tol, even_axes(grid, z))


def _sine_transform(v: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """-DST-I of v, `scipy.fft.dst(v, type=1)` negated: Im rfft of the odd
    extension [0, v, 0, -reverse(v)], written into `ext` (2 (v.size + 1)
    entries, zero at 0 and v.size + 1). numpy 2 and scipy run the same
    pocketfft real transform on that extension, so the values are
    scipy's to the bit."""
    n = v.size
    ext[1 : n + 1] = v
    np.negative(v[::-1], out=ext[n + 2 :])
    return np.fft.rfft(ext).imag[1 : n + 1]


def _solve_limit_sine(c: float, p: float, grid: Grid, tol: float):
    """Pseudospectral (sine collocation) variant for line grids.

    The Dirichlet Laplacian is diagonal in the DST basis, so the profile
    is resolved to roundoff rather than O(h^2); used where the grid is
    too coarse for the finite-difference stencil to hit the requested
    pointwise accuracy.

    A = D^-1 diag(mu + c) D with D the DST-I, taken from numpy's real FFT
    (`_sine_transform`), so a line run never imports scipy.fft. The
    inverse D^-1 = D / (2 (n + 1)) multiplies by the reciprocal, as
    `scipy.fft.idst` does: dividing by 2 (n + 1) rounds differently.
    D(v) = -_sine_transform(v), and the two sign flips in each of A and
    A^-1 cancel exactly, so neither is taken.
    """
    k = np.arange(1, grid.n - 1)
    mu = (np.pi * k / (2.0 * grid.extent)) ** 2
    diag = mu + c
    scale = 1.0 / (2.0 * (k.size + 1))
    ext = np.zeros(2 * (k.size + 1))  # the odd extension, refilled by each transform

    def apply_A(v):
        return _sine_transform(_sine_transform(v, ext) * diag, ext) * scale

    def solve_A(v):
        return _sine_transform(_sine_transform(v, ext) / diag, ext) * scale

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


def _z_key(params: ProblemParams, pair: PotentialPair) -> tuple:
    """What Z depends on besides the points: m, omega and the potentials."""
    return params.m, params.omega, pair


def _z_on_grid(params: ProblemParams, pair: PotentialPair, grid: Grid, center, epsilon: float):
    """Z(center + epsilon y) on the interior nodes, value only and
    read-only, evaluated block by block (`grids.on_interior`)."""
    c = np.asarray(center)
    z = grids.on_interior(grid, lambda y: eval_Z(params, pair, c + epsilon * y, derivatives=False))
    z.flags.writeable = False
    return z


def even_axes(grid: Grid, z_int: np.ndarray):
    """The parity to fold by: 1 on each axis in which z is even, else 0.

    Even means max |z - flip(z)| <= 1e-12 max(1, max |z|), the nodes
    being symmetric only to roundoff. A z with a NaN or an infinity is
    even in no axis. None on a radial grid, which has no axes to fold.
    """
    if grid.geometry == "radial":
        return None
    top = float(np.max(np.abs(z_int)))  # NaN or inf where z is not finite
    tol = 1e-12 * max(1.0, top)
    z = z_int.reshape((grid.n - 2,) * grid.dimension)

    def asymmetry(a):
        # max |z - flip(z)|, with one temporary where z is real
        d = z - np.flip(z, a)
        if np.iscomplexobj(d):
            d = np.abs(d)
        return float(max(d.max(), -d.min()))

    return tuple(int(top < np.inf and asymmetry(a) <= tol) for a in range(grid.dimension))


def factor_ldl(a):
    """Symmetric-mode SuperLU of the CSC matrix `a`.

    Minimum-degree ordering on A + A^T and pivots taken from the
    diagonal, so P A P^T = L D L^T with D = diag(U) when perm_r == perm_c.
    Box grids factor here: the `SparseLDL` a chain of Newton solves holds,
    the parity block of L that `compute_R_omega` solves with, and the
    shift-invert operators of `spectrum.eig_low`. It is the one caller
    of `splu`. SuperLU's panel is `SUPERLU_PANEL` columns wide.
    """
    return splu(
        a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, panel_size=SUPERLU_PANEL,
        options=dict(SymmetricMode=True),
    )


def splu(*args, **kwargs):
    """`scipy.sparse.linalg.splu`, imported at the first call: only box
    runs factor sparse matrices, so only they load scipy.sparse."""
    from scipy.sparse.linalg import splu

    return splu(*args, **kwargs)


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
    three bands (`grids.Fold.bands`), applied in O(n) and factored by
    `factor_banded`; box grids assemble the sparse matrix once
    (`_sparse_operator`), and `factor` gives a `SparseLDL` of it on
    `parity`, which factors by `factor_ldl` at its first solve. A chain
    of box Newton solves keeps its own (`SparseLDL.operator`). `kind`
    names the factorization for the log.
    """
    if grid.geometry == "box":
        # -lap is symmetric to the bit: its transpose is its CSC form
        a = grids.neg_laplacian(grid, parity).T
        a.setdiag(a.diagonal() + diagonal)
        return _sparse_operator(a, parity)
    lower, main, upper = grids.fold(grid, parity).bands
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


def _sparse_operator(a, parity):
    """(apply, factor, kind) of `_operator` for the CSC matrix `a` on `parity`.

    `factor(shift)` writes a's diagonal less `shift` on one Jacobian, a
    matrix with a's structure sharing its index arrays, built at the
    first such call, and wraps it in a new `SparseLDL`: a Jacobian older
    than the last one no longer holds its values.
    """
    jac = None

    def factor_sparse(shift=None):
        nonlocal jac
        if shift is None:
            return SparseLDL(a, parity)
        if jac is None:
            jac = _with_data(a, a.data.copy())
        jac.setdiag(a.diagonal() - shift)
        return SparseLDL(jac, parity)

    return a.__matmul__, factor_sparse, "LDL^T"


def _with_data(m, data: np.ndarray):
    """A compressed sparse matrix with m's structure, sharing its index
    arrays, and `data` as its values."""
    return type(m)((data, m.indices, m.indptr), shape=m.shape)


class SparseLDL:
    """A sparse matrix on the kept nodes of a fold (`parity`) and its
    LDL^T (`factor_ldl`), factored at the first solve; a failed
    factorization raises `SingularOperator`. An empty one holds nothing.

    A chain of box Newton solves on one grid holds one, and `solve(b,
    other)` solves each later Jacobian `other` on the same fold by
    iterative refinement against it (Moler, J. ACM 14, 1967; Higham, IMA
    J. Numer. Anal. 17, 1997): x += LU^-1 (b - J x) until the backward
    error is at its roundoff floor `REFINE_FLOOR`, so each solve is exact
    to roundoff and the Newton path is that of a fresh factorization per
    Jacobian. A sweep that cuts that error by less than 4x, the chord
    rule of `_newton`, a Jacobian on another fold, or `refine=False`
    drops the held factorization, then takes `other`'s matrix and fold
    in its place and factors them: no two are held at once.
    `factorizations`, `sweeps` and `most_sweeps` (the most in one solve)
    count the work done.

    The chain also keeps the operator its Newton solves build
    (`operator`): one -lap + diag of its fold, whose diagonal each solve
    overwrites, with the one Jacobian of its `factor`, and one |J| for
    the backward error of the refinement.
    """

    def __init__(self, matrix=None, parity=None):
        self.matrix, self.parity = matrix, parity
        self._lu = None
        self._of = None  # the Jacobian whose matrix was factored
        self._ops = None  # ((grid, parity), -lap's diagonal, -lap + diag, its operator)
        self._mag = None  # (J, |J|) of the last refinement
        self.factorizations = self.sweeps = self.most_sweeps = 0

    def operator(self, grid: Grid, parity, diagonal: np.ndarray):
        """(apply, factor, kind) of `_operator` on a box, kept for the
        chain's later solves on the same fold. The first call on a fold
        builds its -lap (`grids.neg_laplacian`) and its
        `_sparse_operator`; each call writes -lap's diagonal plus
        `diagonal` on that matrix's, with the sums of a fresh assembly:
        the same matrix to the bit."""
        if self._ops is None or self._ops[0] != (grid, parity):
            self._ops = self._mag = None  # dropped before the new fold's are built
            # -lap is symmetric to the bit: its transpose is its CSC form
            a = grids.neg_laplacian(grid, parity).T
            self._ops = (grid, parity), a.diagonal(), a, _sparse_operator(a, parity)
        _, lap, a, ops = self._ops
        a.setdiag(lap + diagonal)
        return ops

    def solve(self, b: np.ndarray, other: SparseLDL | None = None, refine: bool = True):
        """x with other.matrix x = b, or this matrix's where `other` is None."""
        if other is not None and other is not self._of:
            if refine and self._lu is not None and other.parity == self.parity:
                x = self._refine(other.matrix, b)
                if x is not None:
                    return x
            self._lu = None  # drop it before factoring another
            self.matrix, self.parity, self._of = other.matrix, other.parity, other
        if self._lu is None:
            try:
                self._lu = factor_ldl(self.matrix)
            except RuntimeError as exc:
                raise SingularOperator(f"sparse factorization failed: {exc}") from exc
            self.factorizations += 1
        return self._lu.solve(b)

    def release(self):
        """Drop the matrices and the factorization."""
        self.matrix = self._lu = self._of = self._ops = self._mag = None

    def _refine(self, jac, b: np.ndarray):
        """x by refinement against the held LDL^T, or None where a sweep stalls."""
        if self._mag is None or self._mag[0] is not jac:
            self._mag = None  # the last |J| goes before this one is built
            self._mag = jac, _with_data(jac, np.abs(jac.data))
        else:
            np.abs(jac.data, out=self._mag[1].data)
        mag, b_mag = self._mag[1], np.abs(b)
        x = np.zeros_like(b)
        r, err_prev = b, 1.0  # the backward error of x = 0
        sweeps = 0
        while True:
            x = x + self._lu.solve(r)
            sweeps += 1
            self.sweeps += 1
            self.most_sweeps = max(self.most_sweeps, sweeps)
            r = b - jac @ x
            err = float(np.max(np.abs(r)) / np.max(mag @ np.abs(x) + b_mag))
            if err <= REFINE_FLOOR:
                return x
            if not err <= 0.25 * err_prev:
                return None
            err_prev = err


def _newton(
    grid: Grid,
    z_int: np.ndarray,
    p: float,
    psi: np.ndarray,
    tol: float,
    parity,
    held: SparseLDL | None = None,
):
    """Damped Newton for -lap phi + z phi - phi^p = 0, z on interior nodes.

    Every nonlinear finite-difference solve runs through here: the limit
    state (constant z = c), each continuation step in epsilon and the
    omega re-solves. `parity` is the caller's `even_axes` of z: on the
    axes it marks it solves on the kept nodes of its `grids.fold`, the
    half line or the quarter box, with a mirror ghost node at each plane,
    and returns the even extension. The residual norm weighs a kept node
    by its full-box weight times its multiplicity; the Jacobian, scaled
    by the multiplicities, is symmetric.

    The Jacobian is renewed only when the residual falls by less than a
    factor 4 per step, and each step is halved until the weighted
    residual decreases. When the halving fails on an old Jacobian, whose
    direction may no longer descend, the Jacobian is renewed at the
    current iterate and the step retried; only a fresh Jacobian that also
    stalls raises. A residual within 10 tol is accepted where the line
    search or the iteration budget runs out, that being the roundoff
    floor.

    On line and radial grids each Jacobian is three bands, factored by
    `factor_banded`, O(n). On box grids each is a `SparseLDL`, solved
    through `held`, the chain's `SparseLDL` (an empty one when None): the
    first Jacobian of the chain is factored by `factor_ldl` and later
    ones refine against it, so a continuation that passes `held` from
    solve to solve factors once, unless one of its solves spends
    `REFINE_BUDGET` sweeps against one factorization: its next Jacobian
    is then factored afresh. The operator and the Jacobians are the
    chain's matrices (`SparseLDL.operator`), assembled once per fold. A
    DEBUG log line names the folding at the start and, on return, the
    factorization kind, the iterations, the factorizations, the
    refinement sweeps and the residual. Returns (psi, res).
    """
    fold = grids.fold(grid, parity)
    mu = fold.multiplicity
    folded = [a for a, s in enumerate(parity or ()) if s]
    log.debug("newton: %d of %d unknowns, folded axes %s", mu.size, psi.size, folded)
    weights = fold.weights
    held = held or SparseLDL()
    operator = held.operator if grid.geometry == "box" else _operator
    apply_Az, factor, kind = operator(grid, parity, fold.restrict(z_int))
    held_before = held.factorizations, held.sweeps
    psi = fold.restrict(psi) / mu

    def residual(v):
        return apply_Az(v) / mu - _nonlin(v, p)

    jac = None
    factorizations = 0  # banded ones; `held` counts those of the box
    spent = 0  # sweeps against the held LDL^T since this solve began or factored
    res_prev = np.inf
    f = residual(psi)
    res = float(np.sqrt(np.sum(weights * f**2)))
    for it in range(NEWTON_MAX_ITER):
        if res < tol:
            break
        fresh = jac is None or res > 0.25 * res_prev
        if fresh:
            jac = factor(mu * p * np.abs(psi) ** (p - 1.0))
        if kind == "banded":
            factorizations += fresh
            delta = jac.solve(-mu * f)
        else:
            before = held.factorizations, held.sweeps
            delta = held.solve(-mu * f, jac, refine=spent < REFINE_BUDGET)
            spent = 0 if held.factorizations > before[0] else spent + held.sweeps - before[1]
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
                jac = None  # renew the Jacobian at this iterate and retry the step
                continue
            raise NoConvergence("Newton line search stalled", residual=res, iterations=it)
    else:
        it = NEWTON_MAX_ITER
        if res >= 10.0 * tol:
            raise NoConvergence("Newton did not converge", residual=res, iterations=it)
    log.debug(
        "newton done: %s, %d iterations, %d factorizations, %d refinement sweeps, residual %.3e",
        kind, it, factorizations + held.factorizations - held_before[0],
        held.sweeps - held_before[1], res,
    )
    return fold.extend(psi), res


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
    step must keep the profile positive. The steps fold the axes in which
    Z is even about x0 (`even_axes`), decided once, at the first step:
    Z(x0 + eps y) has that symmetry at every eps > 0. A radial grid
    samples Z(x0 + eps y) along one axis only, so it raises ValueError at
    epsilon > 0.

    On a box the settle and the steps are one chain of Newton solves
    sharing one held LDL^T (a `SparseLDL`), continued from the limit
    state's chain where that lives on this grid; the profile returned
    ends the chain, so a continuation from it, or `resolve_at_omega`,
    refines against the same factorization until
    `release_factorization`.
    """
    target = params.epsilon
    if target > 0.0 and grid.geometry == "radial":
        raise ValueError("continuation to epsilon > 0 needs a line or box grid")
    center = tuple(z.x0)

    if limit.grid == grid:
        psi = grids.extract_interior(grid, limit.values)
    elif limit.grid.geometry == "radial":
        psi = grids.transplant_radial(limit.grid, limit.values, grid)
    else:
        raise ValueError("limit profile lives on an incompatible grid")

    # one chain of box Newton solves from the limit state's, where it has one
    held = (limit._held if limit.grid == grid else None) or SparseLDL()
    # settle on this grid's own discrete branch at epsilon = 0 first
    z0_int = np.full(grid.n_interior(), z.z0)
    psi, res = _newton(grid, z0_int, params.p, psi, tol, even_axes(grid, z0_int), held)
    del z0_int  # the steps hold one Z field: their own

    # Z(x0 + eps y) of the step tried, the one Z field held: at the end,
    # that of the last step, at the target
    z_try = None
    parity = None  # Z(x0 + eps y) is as even as Z about x0 at every eps > 0
    eps_now = 0.0
    step = target / 8.0
    min_step = abs(target) * 1e-4
    while eps_now < target:
        eps_try = min(eps_now + step, target)
        z_try = None  # dropped before the next one is built
        z_try = _z_on_grid(params, pair, grid, center, eps_try)
        if parity is None:
            parity = even_axes(grid, z_try)
        try:
            psi_new, res = _newton(grid, z_try, params.p, psi, tol, parity, held)
        except (NoConvergence, SingularOperator) as exc:
            step *= 0.5
            if step < min_step:
                raise NoConvergence(
                    f"continuation stalled at epsilon = {eps_now:.4g}",
                    residual=getattr(exc, "residual", None),
                ) from exc
            continue
        low, high = np.min(psi_new), np.max(psi_new)
        if low < -1e-8 * max(high, -low):  # max |psi_new|, with no temporary
            raise LostPositivity(f"profile changed sign at epsilon = {eps_try:.4g}")
        psi = psi_new
        eps_now = eps_try
        step *= 1.5

    # psi is the last Newton solve's own array
    profile = _profile(grid, np.maximum(psi, 0.0, out=psi), res, target, params.p, center)
    _decay_check(grid, profile.values)
    if z_try is not None:
        profile._z = (_z_key(params, pair), z_try)
    profile._held = held
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
    frequency derivative to, stay on one coordinate frame. On a box the
    Newton solve continues the profile's chain: it refines against the
    `SparseLDL` the profile holds, and the result holds it in turn.
    """
    grid = profile.grid
    z_int = _z_on_grid(params, pair, grid, profile.center, profile.epsilon)
    psi = grids.extract_interior(grid, profile.values)
    held = profile._held or SparseLDL()
    psi, res = _newton(grid, z_int, params.p, psi, tol, even_axes(grid, z_int), held)
    out = _profile(grid, psi, res, profile.epsilon, params.p, profile.center)
    out._z = (_z_key(params, pair), z_int)
    out._held = held
    return out


def chain_counters(profile: Profile) -> dict | None:
    """The work of the chain of box Newton solves that ends in `profile`,
    from the chain's start: its LDL^T factorizations, its refinement
    sweeps and the most sweeps in one solve. None off a box."""
    held = profile._held
    if held is None or profile.grid.geometry != "box":
        return None
    return {
        "factorizations": held.factorizations,
        "refinement_sweeps": held.sweeps,
        "most_sweeps_per_solve": held.most_sweeps,
    }


def release_factorization(profile: Profile):
    """Drop the LDL^T held by the chain of box Newton solves that ends in
    `profile`, before another large factorization: no two are held at once."""
    if profile._held is not None:
        profile._held.release()


@dataclass(frozen=True)
class LinearizedOperator:
    """L on the interior nodes, or its block on the fields of a `parity`
    (`grids.fold`) in their orthonormal basis: a mirror pair weighs
    1/sqrt(2), and an even axis couples to its plane node by sqrt(2)."""

    grid: Grid
    diagonal: np.ndarray  # Z(x0 + eps y) - p |phi|^(p-1) on the unknowns
    parity: tuple | None = None

    def matrix(self):
        """S (-lap) S + diag as a CSR array, S the inverse square root of
        the fold's multiplicities, on the structure of
        `grids.neg_laplacian`: the values of `S @ a @ S + diag(diagonal)`,
        to the bit."""
        a = grids.neg_laplacian(self.grid, self.parity)
        if self.parity is not None:
            s = 1.0 / np.sqrt(grids.fold(self.grid, self.parity).multiplicity)
            rows = np.repeat(np.arange(s.size), np.diff(a.indptr))
            a.data = (s[rows] * a.data) * s[a.indices]
        a.setdiag(a.diagonal() + self.diagonal)
        return a

    def bands(self) -> tuple:
        """(main, off) of `matrix()` on a line grid, with no sparse matrix:
        the same products in the same order, so the same values."""
        fold = grids.fold(self.grid, self.parity)
        _, main, off = fold.bands
        s = 1.0 / np.sqrt(fold.multiplicity)
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
    phi = grids.extract_interior(grid, profile.values)
    diag = profile.z_field(params, pair) - params.p * np.abs(phi) ** (params.p - 1.0)
    return LinearizedOperator(grid=grid, diagonal=diag)


def compute_R_omega(profile: Profile, params: ProblemParams, pair: PotentialPair):
    """Frequency derivative R = d phi / d omega, from one solve with L.

    Differentiating the profile equation in omega gives

        L_eps R = chi,   chi = 2 (omega + V(x)) phi,

    exactly along the discrete branch. Where L and chi are both even in
    an axis (`even_axes`), as they are where Z and V are, so is R, and
    the solve runs on the kept nodes of its `grids.fold` as in
    `_newton`: the half line or the quarter box. It takes one
    factorization (`_operator`) and one step of iterative refinement,
    the operator being nearly singular for small epsilon. An identity
    residual ||L_eps R - chi|| above IDENTITY_RTOL ||phi|| raises
    `SingularOperator`. Returns (R, info): info holds that residual, the
    parity, and on the full grid chi ("rhs") and the refinement
    correction dR ("correction"), which prices the solve's error.
    """
    grid = profile.grid
    release_factorization(profile)  # before L is built and factored
    w = grids.extract_interior(grid, grid.weights())
    c, eps = np.asarray(profile.center), profile.epsilon
    v = grids.on_interior(grid, lambda y: pair.V(c + eps * y, derivatives=False))
    rhs = 2.0 * (params.omega + v) * grids.extract_interior(grid, profile.values)
    diagonal = assemble_L(profile, params, pair).diagonal
    parity = tuple(map(min, even_axes(grid, diagonal), even_axes(grid, rhs)))
    fold = grids.fold(grid, parity)
    restrict, mu = fold.restrict, fold.multiplicity
    apply_L, factor, _ = _operator(grid, parity, restrict(diagonal))
    chi = restrict(rhs)
    lu = factor()
    r = lu.solve(chi)
    dr = lu.solve(chi - apply_L(r))
    r = r + dr

    resid = float(np.sqrt(np.sum(fold.weights * ((apply_L(r) - chi) / mu) ** 2)))
    phinorm = float(np.sqrt(np.sum(w * grids.extract_interior(grid, profile.values) ** 2)))
    rhs = grids.insert_interior(grid, rhs)
    dr = grids.insert_interior(grid, fold.extend(dr))
    log.debug(
        "R_omega done: parity %s, %d unknowns, identity residual %.3e, <chi, dR> %.3e",
        parity, mu.size, resid, float(np.sum(grid.weights() * rhs * dr)),
    )
    if resid > IDENTITY_RTOL * phinorm:
        raise SingularOperator(
            f"identity residual {resid:.2e} exceeds {IDENTITY_RTOL:.1e} * ||phi||"
        )
    info = {"identity_residual": resid, "parity": parity, "rhs": rhs, "correction": dr}
    return grids.insert_interior(grid, fold.extend(r)), info
