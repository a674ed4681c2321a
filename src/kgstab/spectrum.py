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

The count and the low eigenvalues come from one `eig_low` call on the
parity blocks of L, split where its diagonal Z - p |phi|^(p-1) is even
in some axes (`elliptic.even_axes`, `parity_blocks`): the block counts
add up to n(L), and the blocks' lowest eigenvalues merge into L's.  On
a line grid the blocks are tridiagonal.  Their bands, joined by zero
couplings, make one tridiagonal matrix, and one bisection finds its k
lowest eigenvalues: the Sturm counts of a split tridiagonal add across
its blocks (Parlett, *The Symmetric Eigenvalue Problem*, ch. 3), so
LAPACK bisects k eigenvalues in all, not k per block.
On a box grid each block's spectrum is sliced at zero (Parlett): one
symmetric LDL^T of the block gives the exact number of its negative
eigenvalues by Sylvester's law of inertia, and the same factorization
drives shift-invert Lanczos at zero for the eigenvalues around the zero
cluster.  Where that run does not reach every negative eigenvalue, a
second Lanczos run on the same factorization finds them all: they are
the negative eigenvalues theta = 1/lambda of the inverse (spectral
transformation; Ericsson and Ruhe, Math. Comp. 35, 1980), so a block
is factored once.  Only a block with more negatives than eigenvalues
asked for is factored again, shifted below its spectrum.  The
blocks do not depend on each other: they run in forked worker
processes (`workers.worker_map`), one per CPU in the affinity mask and
at most one per block, each with scipy's bundled OpenBLAS (the BLAS
under SuperLU and ARPACK) set to one thread, so that the workers do not
oversubscribe the cores.  A run stays in-process, one block after
another, for a single block, on one CPU (`taskset -c 0`), off Linux,
inside a worker (a sweep point) and where no scipy OpenBLAS thread
setter is found.  The blocks' eigenvalues then merge.  Lanczos stops
at the residual bound `LANCZOS_RTOL`, not at machine precision: a Ritz
value's error is at most the square of its residual over its gap
(Kato-Temple; Parlett), so the eigenvalues are as exact as the
factorization allows.

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
from scipy.linalg import eigh_tridiagonal

from . import elliptic, grids, workers
from .elliptic import LinearizedOperator, Profile, assemble_L
from .errors import EigSolverFailure
from .potentials import EffectiveZ, PotentialPair, ProblemParams
from .stability import SlopeReport

log = logging.getLogger("kgstab")

# ARPACK stops when a Ritz value theta of OP = (A - sigma)^-1 has residual
# at most tol |theta| (Lehoucq, Sorensen and Yang, *ARPACK Users' Guide*).
# For a symmetric OP, theta is then off by at most tol^2 |theta|^2 / delta,
# delta its gap in theta (Kato-Temple), so lambda - sigma = 1/theta moves
# by less than 1e-15 relative wherever delta > 1e-3 |theta|: below the
# LDL^T's own backward error, eps ||A|| (about 5e-13 on a 481^2 box).
LANCZOS_RTOL = 1e-9

# A Krylov space of one start vector holds one vector of each eigenspace,
# so one Lanczos run finds one copy of a multiple eigenvalue, and another
# only through rounding.  A box block has multiple eigenvalues for a
# reason only where its diagonal is separable or invariant under a
# symmetry of its -lap that does not square to the identity
# (`_may_have_multiples`); a diagonal counts as such to this tolerance,
# relative to 1 + its largest magnitude.  On the 2d boxes of the tests a
# single run still missed a copy of a double eigenvalue of a constant
# diagonal with noise of amplitude 1e-14 added, and none at 1e-13 or more.
SYMMETRY_RTOL = 1e-8


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


def eig_low(blocks, k: int) -> np.ndarray:
    """The k algebraically smallest eigenvalues of the union of the blocks'
    spectra, ascending: `blocks` is `parity_blocks(L, ...)` or [L].

    On a line grid the blocks' bands, joined by zero couplings, go to one
    call of the tridiagonal solver (LAPACK ?stebz, machine precision),
    which splits the matrix there and bisects k eigenvalues in all; at
    most one fewer than the unknowns.  On a box grid each block's
    spectrum is sliced at zero by inertia (`_eig_box`), and the results
    merge.  The box blocks run in forked workers, one per CPU and at most
    one per block, each with scipy's OpenBLAS at one thread; they run
    in-process where `workers.worker_count` gives one worker or no scipy
    OpenBLAS thread setter is found.  This process writes each block's
    DEBUG lines, in block order, after the last block returns.
    """
    if blocks[0].grid.geometry == "line":
        bands = [b.bands() for b in blocks]
        main = np.concatenate([m for m, _ in bands])
        off = np.concatenate([np.append(o, 0.0) for _, o in bands])[:-1]
        k = min(k, main.size - 1)
        vals = eigh_tridiagonal(main, off, select="i", select_range=(0, k - 1), eigvals_only=True)
        return np.asarray(vals)
    # loaded before the pool forks, so that no worker imports it
    import scipy.sparse.linalg  # noqa: F401

    n_workers = workers.worker_count(len(blocks))
    setter = workers.scipy_openblas_setter() if n_workers > 1 else None
    if setter is None:
        n_workers = 1
    log.debug("eig_low pool: %d parity blocks in %d workers", len(blocks), n_workers)
    with workers.worker_map(n_workers, setter, (1,)) as block_map:
        results = list(block_map(_eig_box, blocks, [k] * len(blocks)))
    pivots = "eig_low: parity %s, %d unknowns, %d negative pivots"
    done = "eig_low done: parity %s, %d factorizations, %d shift-invert solves, %d Lanczos runs"
    for op, (_, n_neg, *counts) in zip(blocks, results):
        log.debug(pivots, op.parity, op.diagonal.size, n_neg)
        log.debug(done, op.parity, *counts)
    return np.sort(np.concatenate([vals for vals, *_ in results]))[:k]


def _eig_box(op: LinearizedOperator, k: int) -> tuple:
    """(the k smallest eigenvalues of one box-grid block, ascending, at
    most one fewer than its unknowns; its negative pivots; its
    factorizations; its shift-invert solves; its Lanczos runs).

    1. a symmetric-mode LDL^T of the block (no off-diagonal pivoting, so
       perm_r == perm_c) counts the negative eigenvalues exactly, as the
       negative pivots on U's diagonal (Sylvester's law of inertia);
    2. shift-inverted Lanczos at sigma = 0, reusing that factorization,
       finds the k eigenvalues nearest zero;
    3. only if that misses some of the negatives, a second Lanczos run
       on the same factorization finds all n_neg of them: they are the
       n_neg algebraically smallest eigenvalues theta = 1/lambda of the
       inverse (Ericsson and Ruhe, Math. Comp. 35, 1980), which replace
       the negatives of step 2.  A block with more than k negatives, for
       which that run would not find the lowest ones, takes a second
       shift-invert below the diagonal minimum instead, where the block
       less sigma is positive definite (factored the same way), for the
       lowest missing ones.

    The k smallest of the union are the answer: every eigenvalue nearer
    zero than the farthest one of step 2 is in it, and the negatives it
    lacks are the lowest ones.  Every Lanczos run stops at the residual
    bound `LANCZOS_RTOL` |theta|, which leaves an eigenvalue off by less
    than 1e-15 relative wherever its gap exceeds 1e-3 |theta| (see the
    constant; Kato-Temple).  In the run of step 3 the negatives' theta
    lie below zero and the rest above it, so each negative's gap in
    theta to the rest of the spectrum exceeds its own |theta|.

    A block that may have multiple eigenvalues (`_may_have_multiples`)
    keeps the eigenvectors of its runs, and Lanczos runs for one
    eigenvalue each on their orthogonal complement add the copies a run
    missed: after steps 2 and 3 below the deep shift, until one finds
    none nearer the shift than the farthest found (`_complete`); in
    step 3 at zero, one negative per run until the inertia's count.

    It logs nothing, as it may run in a worker, whose log records never
    reach this process's handlers.  A failed factorization, a pivoted
    one, or a result whose negative count disagrees with the inertia
    raises `EigSolverFailure`.
    """
    n = op.diagonal.size
    k = min(k, n - 1)
    multiples = _may_have_multiples(op)  # its arrays go before the LDL^T comes
    a = op.matrix().tocsc()
    # fixed-seed start vector: reproducible reports, generic against symmetry
    v0 = np.random.default_rng(1905).standard_normal(n)
    lu = _factor(a)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigSolverFailure("LDL^T factorization pivoted off the diagonal: inertia unknown")
    n_neg = int(np.count_nonzero(lu.U.diagonal() < 0.0))
    no_vectors = np.empty((n, 0)) if multiples else None
    vals, vecs, solves = _shift_invert(a, k, 0.0, lu, v0, basis=no_vectors)
    runs = 1
    if multiples:
        vals, vecs, more, extra = _complete(a, 0.0, lu, v0, vals, vecs)
        solves, runs = solves + more, runs + extra
    missing = n_neg - int(np.count_nonzero(vals < 0.0))
    factorizations = 1
    if 0 < missing and n_neg <= k and multiples:
        negatives = vals[vals < 0.0]
        while negatives.size < n_neg:
            (val,), vec, more = _shift_invert(a, 1, 0.0, lu, v0, which="SA", basis=vecs)
            solves, runs = solves + more, runs + 1
            if val >= 0.0:
                break  # the negative count check below raises
            negatives, vecs = np.append(negatives, val), np.column_stack([vecs, vec])
        vals = np.concatenate([vals[vals >= 0.0], negatives])
    elif 0 < missing and n_neg <= k:
        negatives, _, more = _shift_invert(a, n_neg, 0.0, lu, v0, which="SA")
        vals, solves, runs = np.concatenate([vals[vals >= 0.0], negatives]), solves + more, 2
    elif missing > 0:
        del lu  # never hold two large factorizations at once
        sigma = float(np.min(op.diagonal)) - 1.0
        import scipy.sparse as sp

        lu = _factor(a - sigma * sp.eye_array(n, format="csc"))
        deep, vecs, more = _shift_invert(a, min(missing, k), sigma, lu, v0, basis=no_vectors)
        solves, runs, factorizations = solves + more, runs + 1, 2
        if multiples:
            deep, _, more, extra = _complete(a, sigma, lu, v0, deep, vecs)
            solves, runs = solves + more, runs + extra
        # the missing ones are the lowest: higher copies `_complete` added
        # may be among the negatives of step 2 already
        vals = np.concatenate([vals, np.sort(deep)[:missing]])
    vals = np.sort(vals)[:k]
    found = int(np.count_nonzero(vals < 0.0))
    if found != min(n_neg, k):
        raise EigSolverFailure(
            f"{found} negative eigenvalues among the lowest {k}, inertia counts {n_neg}"
        )
    return vals, n_neg, factorizations, solves, runs


def _may_have_multiples(op: LinearizedOperator) -> bool:
    """Whether the box block `op` may have a multiple eigenvalue for a
    reason: its diagonal, on the kept nodes' sub-box, is separable (a sum
    of one function per axis, so its eigenvalues are sums of the axes'
    and may coincide) or invariant under a symmetry of the block's -lap
    whose square is not the identity, such as a quarter turn.  The
    symmetries of a diagonal form a group; where each squares to the
    identity it is abelian and all its real irreducible representations
    have dimension one, otherwise some have two or more.  The symmetries
    of -lap permute axes of equal parity and reverse unfolded ones.  Both
    tests hold to `SYMMETRY_RTOL`.  Otherwise an exactly multiple
    eigenvalue is an accident of measure zero.  A block on one axis is
    tridiagonal: its eigenvalues are simple.
    """
    parity = op.parity or (0,) * op.grid.dimension
    shape = tuple(mass.size for mass in grids.fold(op.grid, parity).masses)
    d = op.diagonal.reshape(shape)
    if d.ndim < 2:
        return False
    atol = SYMMETRY_RTOL * (1.0 + float(np.max(np.abs(d))))
    axes = range(d.ndim)
    # d = sum_a f_a(x_a) exactly when d + (ndim - 1) mean(d) is the sum of
    # its marginal means
    rest = d + (d.ndim - 1) * np.mean(d)
    for a in axes:
        rest = rest - np.mean(d, axis=tuple(b for b in axes if b != a), keepdims=True)
    if np.max(np.abs(rest)) <= atol:
        return True
    index = np.arange(d.size).reshape(shape)
    maps = []
    for perm in itertools.permutations(axes):
        if any(parity[b] != parity[a] for a, b in zip(axes, perm)):
            continue
        for flips in itertools.product(*[(False, True) if s == 0 else (False,) for s in parity]):
            flipped = tuple(a for a in axes if flips[a])
            g = np.flip(np.transpose(index, perm), flipped).ravel()
            if np.max(np.abs(d.ravel()[g] - d.ravel())) <= atol:
                maps.append(g)
    return any(not np.array_equal(g[g], index.ravel()) for g in maps)


def _complete(a, sigma: float, lu, v0: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """(vals, vecs, solves, runs): the eigenpairs of `a` nearest sigma of
    one Lanczos run, with every copy of a multiple eigenvalue that it
    missed added.  Each further run finds the eigenvalue nearest sigma on
    the orthogonal complement of the eigenvectors found; it joins them
    while it is nearer sigma than the farthest of them."""
    solves = runs = 0
    while True:
        (val,), vec, more = _shift_invert(a, 1, sigma, lu, v0, basis=vecs)
        solves, runs = solves + more, runs + 1
        if abs(val - sigma) >= np.max(np.abs(vals - sigma)):
            return vals, vecs, solves, runs
        vals, vecs = np.append(vals, val), np.column_stack([vecs, vec])


def _factor(a):
    try:
        return elliptic.factor_ldl(a)
    except RuntimeError as exc:
        raise EigSolverFailure(f"shift-invert factorization failed: {exc}") from exc


def _shift_invert(
    a, k: int, sigma: float, lu, v0: np.ndarray, which: str = "LM", basis=None
):
    """(the k eigenvalues of `a` whose theta = 1/(lambda - sigma) come
    first by `which`, as in `eigsh`: by default the k nearest sigma;
    their eigenvectors, or None; the solves with `lu` it took); `lu`
    factors a - sigma I.  With `basis`, orthonormal eigenvectors of `a`
    as columns (maybe none), the run is on their orthogonal complement,
    and it returns its eigenvectors."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

    solves = 0

    def project(v):
        return v - basis @ (basis.T @ v)

    def solve(v):
        nonlocal solves
        solves += 1
        if basis is None:
            return lu.solve(v)
        return project(lu.solve(project(v)))

    op_inv = LinearOperator(a.shape, matvec=solve, dtype=a.dtype)
    vectors = basis is not None
    try:
        found = eigsh(
            a, k, sigma=sigma, which=which, v0=project(v0) if vectors else v0, OPinv=op_inv,
            tol=LANCZOS_RTOL, return_eigenvectors=vectors,
        )
    except ArpackNoConvergence as exc:
        raise EigSolverFailure(f"shift-inverted Lanczos stalled: {exc}") from exc
    except RuntimeError as exc:
        raise EigSolverFailure(f"shift-inverted Lanczos failed: {exc}") from exc
    return found + (solves,) if vectors else (found, None, solves)


def eigsh(*args, **kwargs):
    """`scipy.sparse.linalg.eigsh`, imported at the first call: only box
    runs take a Lanczos run, so only they load scipy.sparse."""
    from scipy.sparse.linalg import eigsh

    return eigsh(*args, **kwargs)


def parity_blocks(op: LinearizedOperator, even: tuple) -> list:
    """L split into 2^s blocks, one per even/odd choice on its s even axes.

    `even` marks the axes in which L's diagonal is even. A block's
    diagonal is the reflection average of L's on its kept nodes, which
    drops the roundoff asymmetry of the profile; L itself is the one
    block when no axis is even. The union of the blocks' spectra is L's.
    """
    if not any(even):
        return [op]
    fold = grids.fold(op.grid, even)
    average = fold.extend(fold.restrict(op.diagonal) / fold.multiplicity)
    parities = itertools.product(*[(1, -1) if s else (0,) for s in even])
    return [replace(op, diagonal=average[grids.fold(op.grid, p).kept], parity=p) for p in parities]


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
    # before the blocks' own factorizations, and before L and its blocks are built
    elliptic.release_factorization(profile)
    op = assemble_L(profile, params, pair)
    blocks = parity_blocks(op, elliptic.even_axes(op.grid, op.diagonal))
    log.debug("spectrum: parity blocks of %s unknowns", [b.diagonal.size for b in blocks])
    vals = eig_low(blocks, k)
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
