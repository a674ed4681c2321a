"""Low spectrum of the linearized operator, and the GSS verdict.

The self-adjoint operator controlling the spectral half of the
classification is

    L = -lap + Z(x0 + eps y) - p |phi|^(p-1)

on the profile's grid with Dirichlet walls (assembled by
`elliptic.assemble_L`; the frequency derivative R of the slope solves
L R = 2 (omega + V) phi with the same diagonal).  Its negative-eigenvalue
count combines with the slope sign: one negative eigenvalue plus a
negative slope gives stability, while an odd value of
n_negative - p(omega) gives instability (p(omega) = 1 when the slope is
negative, else 0).

The count and the low eigenvalues come from `eig_low`, run on each
parity block of L when its diagonal Z - p |phi|^(p-1) is even in some
axes (`elliptic.even_axes`, `parity_blocks`): the
block counts add up to n(L), and the blocks' lowest eigenvalues merge
into L's.  On a line grid a block is tridiagonal and solved from its
bands.
On a box grid the spectrum is sliced at zero (Parlett, *The Symmetric
Eigenvalue Problem*): one symmetric LDL^T of the block gives the exact
number of its negative eigenvalues by Sylvester's law of inertia, and
the same factorization drives shift-invert Lanczos at zero for the
eigenvalues around the zero cluster.  A second, short shift-invert
below the spectrum runs only for the deep negative eigenvalues that the
first one does not reach.

The semiclassical structure pins the low spectrum: a single O(1)
negative eigenvalue, then N eigenvalues that leave zero like c_j eps^2
with

    c_j = (N/2) (||psi||^2 / ||grad psi||^2) a_j,

a_j the Hessian eigenvalues of Z at the concentration point.  The
gradient norm is evaluated through the integration-by-parts identity
||grad psi||^2 = integral psi^(p+1) - c ||psi||^2, which beats numerical
differentiation on the acceptance tolerances.

Eigenvalues near zero are counted by their sign (the shifts above are
genuine spectrum, not noise) but annotated with a tolerance band of
max(10 c_max eps^2, 100 h^2) inside which membership of the zero cluster
is ambiguous at the discretization order.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import elliptic, grids
from .elliptic import LinearizedOperator, Profile, assemble_L
from .errors import EigSolverFailure
from .potentials import EffectiveZ, PotentialPair, ProblemParams
from .stability import SlopeReport

log = logging.getLogger("kgstab")


@dataclass(frozen=True)
class SpectrumReport:
    epsilon: float
    eigenvalues: tuple
    n_negative: int
    predicted_shifts: tuple
    hessian_negatives: int
    spectral_tol: float
    zero_cluster: tuple  # indices of eigenvalues inside the tolerance band
    count_consistent: bool
    gss: str = "inconclusive"  # "stable" | "unstable" | "inconclusive"
    p_omega: int | None = None


def eig_low(op: LinearizedOperator, k: int) -> np.ndarray:
    """The k algebraically smallest eigenvalues, ascending.

    Line grids pass L's bands to the symmetric tridiagonal solver
    (machine precision), with no sparse matrix.  Box grids slice the spectrum at zero by inertia:

    1. a symmetric-mode LDL^T of L (no off-diagonal pivoting, so
       perm_r == perm_c) counts the negative eigenvalues exactly, as the
       negative pivots on U's diagonal (Sylvester's law of inertia);
    2. shift-inverted Lanczos at sigma = 0, reusing that factorization,
       finds the k eigenvalues nearest zero;
    3. only if that misses some of the negatives, a second shift-invert
       below the diagonal minimum, where L - sigma is positive definite
       (factored the same way), finds the lowest missing ones.

    The k smallest of the union are the answer: every eigenvalue nearer
    zero than the farthest one of step 2 is in it, and the negatives it
    lacks are the lowest ones.  A failed factorization, a pivoted one, or
    a result whose negative count disagrees with the inertia raises
    `EigSolverFailure`.
    """
    n = op.diagonal.size
    k = min(k, n - 1)
    if op.grid.geometry == "line":
        main, off = op.bands()
        vals = eigh_tridiagonal(main, off, select="i", select_range=(0, k - 1), eigvals_only=True)
        return np.asarray(vals)
    a = op.matrix().tocsc()
    # fixed-seed start vector: reproducible reports, generic against symmetry
    v0 = np.random.default_rng(1905).standard_normal(n)
    lu = _factor(a)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigSolverFailure("LDL^T factorization pivoted off the diagonal: inertia unknown")
    n_neg = int(np.count_nonzero(lu.U.diagonal() < 0.0))
    log.debug("eig_low: parity %s, %d unknowns, %d negative pivots", op.parity, n, n_neg)
    vals = _shift_invert(a, k, 0.0, lu, v0)
    missing = n_neg - int(np.count_nonzero(vals < 0.0))
    if missing > 0:
        del lu  # never hold two large factorizations at once
        sigma = float(np.min(op.diagonal)) - 1.0
        lu = _factor(a - sigma * sp.eye_array(n, format="csc"))
        vals = np.concatenate([vals, _shift_invert(a, min(missing, k), sigma, lu, v0)])
    vals = np.sort(vals)[:k]
    found = int(np.count_nonzero(vals < 0.0))
    if found != min(n_neg, k):
        raise EigSolverFailure(
            f"{found} negative eigenvalues among the lowest {k}, inertia counts {n_neg}"
        )
    return vals


def _factor(a):
    try:
        return elliptic.factor_ldl(a)
    except RuntimeError as exc:
        raise EigSolverFailure(f"shift-invert factorization failed: {exc}") from exc


def _shift_invert(a, k: int, sigma: float, lu, v0: np.ndarray) -> np.ndarray:
    """The k eigenvalues of `a` nearest sigma; `lu` factors a - sigma I."""
    op_inv = LinearOperator(a.shape, matvec=lu.solve, dtype=a.dtype)
    try:
        return eigsh(
            a, k=k, sigma=sigma, which="LM", v0=v0, OPinv=op_inv, return_eigenvectors=False
        )
    except ArpackNoConvergence as exc:
        raise EigSolverFailure(f"shift-inverted Lanczos stalled: {exc}") from exc
    except RuntimeError as exc:
        raise EigSolverFailure(f"shift-inverted Lanczos failed: {exc}") from exc


def parity_blocks(op: LinearizedOperator, even: tuple) -> list:
    """L split into 2^s blocks, one per even/odd choice on its s even axes.

    `even` marks the axes in which L's diagonal is even. A block's
    diagonal is the reflection average of L's on its kept nodes, which
    drops the roundoff asymmetry of the profile; L itself is the one
    block when no axis is even. The union of the blocks' spectra is L's.
    """
    if not any(even):
        return [op]
    restrict, extend = grids.fold_maps(op.grid, even)
    average = extend(restrict(op.diagonal) / grids.multiplicity(op.grid, even))
    parities = itertools.product(*[(1, -1) if s else (0,) for s in even])
    return [replace(op, diagonal=average[grids.kept_nodes(op.grid, p)], parity=p) for p in parities]


def predicted_shifts(limit: Profile, z: EffectiveZ) -> np.ndarray:
    """c_1..c_N: the eps^2 rates at which the zero eigenvalues move."""
    w = limit.grid.weights()
    psi = limit.values
    mass = float(np.sum(w * psi**2))
    pth = float(np.sum(w * np.abs(psi) ** (limit.p + 1.0)))
    grad2 = pth - z.z0 * mass  # by parts on the limit equation
    n = limit.grid.dimension
    a = np.asarray(z.hess_eigs)
    return 0.5 * n * (mass / grad2) * a


def build_spectrum_report(
    profile: Profile,
    params: ProblemParams,
    pair: PotentialPair,
    z: EffectiveZ,
    limit: Profile,
) -> SpectrumReport:
    k = params.dimension + 3  # the dimension + 1 near-zero and negative ones, and two more
    op = assemble_L(profile, params, pair)
    blocks = parity_blocks(op, elliptic.even_axes(op.grid, op.diagonal))
    log.debug("spectrum: parity blocks of %s unknowns", [b.diagonal.size for b in blocks])
    vals = np.sort(np.concatenate([eig_low(b, k) for b in blocks]))[:k]
    floor = 1e-10 * max(1.0, abs(float(vals[0])))
    n_neg = int(np.sum(vals < -floor))
    shifts = predicted_shifts(limit, z)
    c_max = float(np.max(np.abs(shifts))) if shifts.size else 0.0
    band = max(10.0 * c_max * profile.epsilon**2, 100.0 * op.grid.h**2)
    cluster = tuple(int(i) for i in np.nonzero(np.abs(vals) <= band)[0])
    return SpectrumReport(
        epsilon=profile.epsilon,
        eigenvalues=tuple(float(v) for v in vals),
        n_negative=n_neg,
        predicted_shifts=tuple(float(c) for c in shifts),
        hessian_negatives=z.hessian_negatives(),
        spectral_tol=band,
        zero_cluster=cluster,
        count_consistent=n_neg == z.hessian_negatives() + 1,
    )


def gss_classify(report: SpectrumReport, slope: SlopeReport) -> SpectrumReport:
    """Fill the verdict fields from the spectral count and the slope sign.

    The numeric slope sign is used when it clears its noise margin,
    otherwise the asymptotic prediction; with neither available the
    verdict is inconclusive.
    """
    sign = slope.slope_sign
    if sign == "indeterminate":
        sign = slope.predicted_sign
    if sign == "indeterminate":
        return replace(report, gss="inconclusive", p_omega=None)
    p_om = 1 if sign == "negative" else 0
    if report.n_negative == 1 and sign == "negative":
        verdict = "stable"
    elif (report.n_negative - p_om) % 2 == 1:
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    return replace(report, gss=verdict, p_omega=p_om)
