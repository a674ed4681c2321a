import itertools
import logging
import re

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
from dataclasses import replace

from kgstab import elliptic, grids, workers
from kgstab.elliptic import (
    LinearizedOperator,
    _newton,
    assemble_L,
    compute_R_omega,
    continue_profile,
    resolve_at_omega,
    sech_ground_state,
    solve_limit_ground_state,
)
from kgstab.errors import GridTooSmall, NoConvergence, SingularOperator
from kgstab.grids import Grid
from kgstab.spectrum import build_spectrum_report
from kgstab.stability import build_slope_report
from kgstab.potentials import (
    GaussianTerm,
    PotentialSpec,
    ProblemParams,
    QuadraticTerm,
    effective_z_at,
    find_critical_point,
    resolve_potentials,
)


from conftest import (
    assert_same_sparse,
    compute_T_lambda,
    fd_R_omega,
    kronecker_sum_laplacian,
    sech_exact,
)


def test_limit_solver_residual_and_positivity(free_limit):
    assert free_limit.residual <= 1e-10
    assert np.min(free_limit.values) >= 0.0
    assert free_limit.peak[0] == pytest.approx(0.0, abs=1e-12)


def test_limit_matches_sech_up_to_discretization(free_limit):
    g = free_limit.grid
    err = np.max(np.abs(free_limit.values - sech_exact(1.0, g.axis)))
    # fd solution differs from the continuum profile at O(h^2)
    assert err < 5e-5


def test_sine_solver_hits_continuum_profile():
    g = Grid(1, "line", 15.0, 3001)
    prof = solve_limit_ground_state(1.0, 3.0, g, method="sine")
    err = np.abs(prof.values - sech_exact(1.0, g.axis))
    # away from the Dirichlet truncation layer the profile is spectral
    bulk = np.abs(g.axis) <= 10.0
    assert err[bulk].max() < 1e-8
    # outside, the error is the boundary correction e^{-(2L-|y|)}
    assert np.all(err <= 1e-8 + 3.0 * np.exp(-(2.0 * g.extent - np.abs(g.axis))))


def _petviashvili_applying_A_every_iteration(apply_A, solve_A, weights, psi, p, tol, max_iter=400):
    """The fixed point as it was before A psi was carried between iterates."""
    gamma_exp = p / (p - 1.0)
    res = np.inf
    res_prev = np.inf
    for it in range(max_iter):
        f = elliptic._nonlin(psi, p)
        num = float(np.sum(weights * psi * apply_A(psi)))
        den = float(np.sum(weights * psi * f))
        if den <= 0:
            raise NoConvergence("fixed-point iteration lost positivity of <psi^p, psi>")
        gamma = num / den
        psi = gamma**gamma_exp * solve_A(f)
        if it % 5 == 4 or it > 40:
            res = float(np.sqrt(np.sum(weights * (apply_A(psi) - elliptic._nonlin(psi, p)) ** 2)))
            if res < tol:
                return psi, res, it + 1
            if res > 0.98 * res_prev and it > 60:
                break
            res_prev = res
    return psi, res, max_iter


def test_sine_limit_carries_A_psi_between_iterates(monkeypatch):
    calls = []
    transform = elliptic._sine_transform

    def counting(v, ext):
        calls.append(1)
        return transform(v, ext)

    monkeypatch.setattr(elliptic, "_sine_transform", counting)
    g = Grid(1, "line", 20.0, 801)
    got = solve_limit_ground_state(1.0, 3.0, g, method="sine", tol=1e-6)
    n_got = len(calls)
    calls.clear()
    monkeypatch.setattr(elliptic, "_petviashvili", _petviashvili_applying_A_every_iteration)
    want = solve_limit_ground_state(1.0, 3.0, g, method="sine", tol=1e-6)
    # five iterations and one check: 4 * 5 + 2 transforms before, 2 + 2 * 5 + 2 now
    assert len(calls) == 22
    assert n_got <= 14
    assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(want.values)


@pytest.mark.parametrize(
    # odd and even unknowns, and those of lines that `_fft_nodes` sizes
    "n", [1, 2, 7, 8, 100, 101, 799, 4799, 5999, 23999, 12004],
)
def test_sine_transform_is_scipys_dst1(n):
    # numpy 2 runs scipy's pocketfft real transform: the same bits; older
    # numpy has its own FFT, within roundoff
    v = np.random.default_rng(n).standard_normal(n)
    ext = np.zeros(2 * (n + 1))
    forward = -elliptic._sine_transform(v, ext)
    inverse = -elliptic._sine_transform(v, ext) * (1.0 / (2.0 * (n + 1)))
    for got, want in ((forward, scipy.fft.dst(v, type=1)), (inverse, scipy.fft.idst(v, type=1))):
        if int(np.__version__.split(".")[0]) >= 2:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert ext[0] == ext[n + 1] == 0.0


def test_peak_tie_between_centre_nodes_reports_the_lower_one():
    g = Grid(1, "line", 4.0, 40)  # even n: two centre nodes at -h/2 and +h/2
    right = np.exp(-(g.axis[20:] ** 2))
    values = np.concatenate([right[::-1], right])
    raised = values.copy()
    raised[20] = np.nextafter(raised[20], np.inf)
    assert elliptic._peak_of(g, values) == elliptic._peak_of(g, raised) == (g.axis[19],)


def test_limit_mass_closed_form():
    # 1d cubic: ||psi||^2 = 4 sqrt(c)
    for c in (0.14, 0.36, 1.0):
        g = Grid(1, "line", 18.0 / np.sqrt(c), 4001)
        prof = solve_limit_ground_state(c, 3.0, g, method="fd")
        assert prof.mass() == pytest.approx(4.0 * np.sqrt(c), rel=1e-4)


def test_townes_mass_is_c_invariant():
    vals = []
    for c in (0.75, 1.0):
        g = Grid(2, "radial", 28.0 / np.sqrt(c), 2801)
        prof = solve_limit_ground_state(c, 3.0, g)
        vals.append(prof.mass())
    assert vals[0] == pytest.approx(vals[1], rel=1e-5)
    assert vals[1] == pytest.approx(11.7009, rel=1e-3)  # Townes mass


@pytest.mark.parametrize("c", [0.5, 1.0])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fd_limit_converges_positive_and_decays(dim, p, c):
    extent = 24.0 / np.sqrt(c)
    if dim == 1:
        g = Grid(1, "line", extent, 2401)
    else:
        g = Grid(dim, "radial", extent, 1201)
    prof = solve_limit_ground_state(c, p, g, tol=1e-10, method="fd")
    assert prof.residual <= 1e-10
    interior = grids.extract_interior(g, prof.values)
    assert np.all(interior > 0.0)
    peak = prof.values.max()
    assert prof.peak == pytest.approx((0.0,) * dim, abs=1e-12)
    # last interior node (the line state is even, so both of its ends)
    assert prof.values[-2] < 1e-5 * peak
    if dim == 1:
        # reflection-averaged Newton iterates: even to the last bit
        assert np.array_equal(prof.values, prof.values[::-1])


def test_newton_failure_carries_residual_and_iterations():
    g = Grid(1, "line", 15.0, 1501)
    psi = grids.extract_interior(g, sech_exact(1.0, g.axis))
    # a zero tolerance is unreachable: the line search stalls at roundoff
    with pytest.raises(NoConvergence) as info:
        _newton(g, np.ones(g.n_interior()), 3.0, psi, 0.0, (1,))
    assert 0 < info.value.iterations < 30
    assert 0.0 < info.value.residual < 1e-10


@pytest.mark.parametrize(
    "g, factor",
    [(Grid(1, "line", 1000.0, 9), "factor_banded"), (Grid(2, "box", 1000.0, 9), "factor_ldl")],
    ids=["line", "box"],
)
def test_newton_refactors_a_stale_lu_before_giving_up(g, factor, monkeypatch):
    # h = 250 leaves the nodes almost uncoupled, so each solves x - x^3 = 0
    # from x = 0.501: the first step lands near -1 and cuts the residual
    # more than 4x, so the LU from the start is reused, but its Jacobian
    # has the other sign there and no halving of the chord step descends
    factored = []
    entry = getattr(elliptic, factor)

    def counting_factor(*bands):
        factored.append(bands[-1].shape)
        return entry(*bands)

    monkeypatch.setattr(elliptic, factor, counting_factor)
    z, start = np.ones(g.n_interior()), np.full(g.n_interior(), 0.501)
    psi, res = _newton(g, z, 3.0, start, 1e-12, elliptic.even_axes(g, z))
    assert res < 1e-12
    assert np.allclose(psi, -1.0, atol=1e-4)
    assert len(factored) >= 2


@pytest.mark.parametrize(
    "grid",
    [Grid(1, "line", 12.0, 200), Grid(2, "box", 10.0, 33)],
    ids=["line-plane-between-nodes", "box-plane-node"],
)
def test_folded_newton_matches_full_box_newton(grid):
    # z even in every axis, an anisotropic start that is not
    y = grid.points()
    r2 = np.sum(y**2, axis=-1)
    z = grids.extract_interior(grid, 0.8 + 0.01 * r2 + 0.02 * y[..., 0] ** 2)
    start = 1.5 * np.exp(-0.5 * r2) * (1.0 + 0.05 * np.tanh(y[..., 0]))
    start = grids.extract_interior(grid, start)
    assert elliptic.even_axes(grid, z) == (1,) * grid.dimension
    folded, res_folded = _newton(grid, z, 3.0, start, 1e-13, (1,) * grid.dimension)
    full, res_full = _newton(grid, z, 3.0, start, 1e-13, (0,) * grid.dimension)
    assert max(res_folded, res_full) < 1e-12
    assert np.max(np.abs(folded - full)) <= 1e-12 * np.max(np.abs(full))
    # the folded solve returns the even extension: exactly even
    values = grids.insert_interior(grid, folded)
    for a in range(grid.dimension):
        assert np.array_equal(values, np.flip(values, axis=a))


def _sparse_newton(monkeypatch):
    """Newton on line and radial grids as box grids run it: a sparse
    -lap + diag and `factor_ldl` (the reference for the bands)."""

    def operator(grid, parity, diagonal):
        a = (grids.neg_laplacian(grid, parity) + sp.diags_array(diagonal)).tocsc()
        return elliptic._sparse_operator(a, parity)

    monkeypatch.setattr(elliptic, "_operator", operator)


@pytest.mark.parametrize("n", [9, 10], ids=["plane-node", "plane-between-nodes"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_operator_matrix_is_the_scaled_sparse_sum_to_the_bit(dim, n):
    # S a S + diag as sparse products and a sparse sum, S = diag(1/sqrt(multiplicity))
    g = Grid(dim, "line" if dim == 1 else "box", 3.0, n)
    rng = np.random.default_rng(dim * n)
    for parity in list(itertools.product((0, 1, -1), repeat=dim)) + [None]:
        a = kronecker_sum_laplacian(g, parity or (0,) * dim)
        diagonal = rng.standard_normal(a.shape[0])
        if parity is not None:
            s = sp.diags_array(1.0 / np.sqrt(grids.fold(g, parity).multiplicity))
            a = s @ a @ s
        want = (a + sp.diags_array(diagonal)).tocsr()
        assert_same_sparse(LinearizedOperator(g, diagonal, parity).matrix(), want)


@pytest.mark.parametrize("n", [9, 10], ids=["plane-node", "plane-between-nodes"])
@pytest.mark.parametrize("dim", [2, 3])
def test_box_jacobians_are_the_shifted_sparse_sum_to_the_bit(dim, n):
    # -lap + diag, and each Jacobian less its shift, as sparse sums
    g = Grid(dim, "box", 3.0, n)
    rng = np.random.default_rng(dim * n)
    for parity in itertools.product((0, 1, -1), repeat=dim):
        diagonal, shift = rng.standard_normal((2, grids.fold(g, parity).multiplicity.size))
        a = (kronecker_sum_laplacian(g, parity) + sp.diags_array(diagonal)).tocsc()
        _, factor, _ = elliptic._operator(g, parity, diagonal)
        assert_same_sparse(factor().matrix, a)
        assert_same_sparse(factor(shift).matrix, (a - sp.diags_array(shift)).tocsc())


@pytest.mark.parametrize("shift", [0.0, 0.3], ids=["folded", "unfolded"])
def test_banded_newton_matches_the_sparse_path_on_a_line(shift, monkeypatch):
    g = Grid(1, "line", 12.0, 201)
    y = g.axis[1:-1]
    z = 0.8 + 0.05 * (y - shift) ** 2
    start = 1.5 * np.exp(-0.5 * y**2) * (1.0 + 0.05 * np.tanh(y))
    assert elliptic.even_axes(g, z) == (int(shift == 0.0),)
    parity = elliptic.even_axes(g, z)
    banded, res_banded = _newton(g, z, 3.0, start, 1e-13, parity)
    _sparse_newton(monkeypatch)
    sparse, res_sparse = _newton(g, z, 3.0, start, 1e-13, parity)
    assert max(res_banded, res_sparse) < 1e-12
    assert np.max(np.abs(banded - sparse)) <= 1e-12 * np.max(np.abs(sparse))


def test_banded_radial_limit_solve_matches_the_sparse_path(monkeypatch):
    g = Grid(2, "radial", 16.0, 401)
    banded = solve_limit_ground_state(0.75, 3.0, g, tol=1e-13, method="fd")
    _sparse_newton(monkeypatch)
    sparse = solve_limit_ground_state(0.75, 3.0, g, tol=1e-13, method="fd")
    assert max(banded.residual, sparse.residual) < 1e-12
    assert np.max(np.abs(banded.values - sparse.values)) <= 1e-12 * np.max(sparse.values)


def test_singular_tridiagonal_raises_singular_operator():
    # a zero-diagonal tridiagonal matrix of odd size has the eigenvalue 0
    g = Grid(1, "line", 3.0, 9)
    _, factor, kind = elliptic._operator(g, None, np.full(g.n_interior(), -2.0 / g.h**2))
    assert kind == "banded"
    with pytest.raises(SingularOperator):
        factor()
    with pytest.raises(SingularOperator):
        elliptic.factor_banded(np.array([1.0, 0.0]), np.ones(3), np.array([1.0, 0.0]))


_DONE = re.compile(
    r"newton done: (\S+), (\d+) iterations, (\d+) factorizations, "
    r"(\d+) refinement sweeps, residual (\S+)$"
)


@pytest.mark.parametrize(
    "g, kind, factor",
    [
        (Grid(1, "line", 12.0, 200), "banded", "factor_banded"),
        (Grid(2, "radial", 12.0, 200), "banded", "factor_banded"),
        (Grid(2, "box", 10.0, 33), "LDL^T", "factor_ldl"),
    ],
    ids=["line", "radial", "box"],
)
def test_debug_log_records_each_newton_solve(g, kind, factor, monkeypatch, caplog):
    # two solves of one chain: the second starts from the first's state at
    # another z; a box refines it against the first's LDL^T
    start = grids.extract_interior(g, 1.3 * np.exp(-0.4 * g.radii() ** 2))
    calls = []
    entry = getattr(elliptic, factor)
    monkeypatch.setattr(elliptic, factor, lambda *a: calls.append(1) or entry(*a))
    held = elliptic.SparseLDL()
    for c in (0.8, 0.81):
        z = np.full(g.n_interior(), c)
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kgstab"):
            start, res = _newton(g, z, 3.0, start, 1e-12, elliptic.even_axes(g, z), held)
        done = [r.getMessage() for r in caplog.records if r.getMessage().startswith("newton done:")]
        assert len(done) == 1
        got_kind, iterations, factorizations, sweeps, residual = _DONE.match(done[0]).groups()
        assert got_kind == kind
        # the logged factorizations are the calls of the factorization
        assert int(factorizations) == len(calls)
        assert 1 <= int(iterations) < 30
        assert float(residual) == pytest.approx(res, rel=1e-3)
        if kind == "banded":
            assert 1 <= len(calls) <= int(iterations) and int(sweeps) == 0
    if kind == "LDL^T":
        assert len(calls) == 0 and int(sweeps) > 0


def _small_saddle(epsilon=0.1):
    """The 2d saddle of the spectrum tests at `epsilon`, its limit state and a small box."""
    params = ProblemParams(2, 3.0, 1.0, 0.5, epsilon)
    spec = PotentialSpec(2, (QuadraticTerm(((0.3, 0.0), (0.0, -0.3)), (0.0, 0.0)),))
    pair = resolve_potentials(params, None, spec)
    z = find_critical_point(params, pair, (0.0, 0.0))
    limit = solve_limit_ground_state(z.z0, 3.0, Grid(2, "radial", 16.0, 401))
    return params, pair, z, limit, Grid(2, "box", 14.0, 71)


def _continued(params, pair, z, limit, grid, tol=1e-10):
    """The scenario's chain: the epsilon = 0 state, then the profile at epsilon."""
    base = continue_profile(limit, replace(params, epsilon=0.0), pair, z, grid, tol=tol)
    return continue_profile(base, params, pair, z, grid, tol=tol)


def test_box_continuation_factors_once_and_keeps_the_newton_path(monkeypatch, caplog):
    params, pair, z, limit, grid = _small_saddle()
    calls = []
    real = elliptic.factor_ldl
    monkeypatch.setattr(elliptic, "factor_ldl", lambda a: calls.append(a.shape) or real(a))
    # the last Newton step stops at a truncated residual (3e-9), so the
    # profile, and the pair near zero most, show any change of the path
    with caplog.at_level(logging.DEBUG, logger="kgstab"):
        held = _continued(params, pair, z, limit, grid, tol=1e-8)
    steps = [r.getMessage() for r in caplog.records if r.getMessage().startswith("newton done:")]
    assert len(steps) >= 4  # two settles at epsilon = 0 and at least two steps
    quarter = ((grid.n - 2) // 2 + 1) ** 2
    assert calls == [(quarter, quarter)]

    # the reference: a fresh factorization for every Jacobian, no refinement
    monkeypatch.setattr(elliptic.SparseLDL, "_refine", lambda self, jac, b: None)
    calls.clear()
    fresh = _continued(params, pair, z, limit, grid, tol=1e-8)
    assert len(calls) > 1
    assert np.max(np.abs(held.values - fresh.values)) <= 1e-12 * np.max(fresh.values)
    low = [
        np.array(build_spectrum_report(p, params, pair, z, limit).eigenvalues)
        for p in (held, fresh)
    ]
    assert np.all(np.abs(low[0] - low[1]) <= 1e-10 * np.abs(low[1]))


def test_a_released_chain_factors_once_more_then_refines_again(monkeypatch):
    params, pair, z, limit, grid = _small_saddle()
    prof = _continued(params, pair, z, limit, grid)
    calls = []
    real = elliptic.factor_ldl
    monkeypatch.setattr(elliptic, "factor_ldl", lambda a: calls.append(1) or real(a))

    def chain():
        # the slope's omega re-solves after the spectrum released the chain
        elliptic.release_factorization(prof)
        calls.clear()
        up = resolve_at_omega(prof, replace(params, omega=params.omega + 0.01), pair)
        counts = [len(calls)]
        down = resolve_at_omega(up, replace(params, omega=params.omega - 0.01), pair)
        return counts + [len(calls) - counts[0]], down

    counts, held = chain()
    assert counts == [1, 0]
    # the reference: a fresh factorization for every Jacobian, no refinement
    monkeypatch.setattr(elliptic.SparseLDL, "_refine", lambda self, jac, b: None)
    counts, fresh = chain()
    assert counts[1] > 0
    assert np.max(np.abs(held.values - fresh.values)) <= 1e-12 * np.max(fresh.values)


def _box_system(diagonal, parity=(0, 0)):
    """A SparseLDL of -lap + diag on a 9 x 9 box, labelled with `parity`."""
    g = Grid(2, "box", 4.0, 11)
    a = (grids.neg_laplacian(g) + sp.diags_array(diagonal)).tocsc()
    return elliptic.SparseLDL(a, parity)


def test_a_far_off_held_factorization_leads_to_one_fresh_one(monkeypatch):
    calls = []
    real = elliptic.factor_ldl
    monkeypatch.setattr(elliptic, "factor_ldl", lambda a: calls.append(1) or real(a))
    b = np.linspace(1.0, 2.0, 81)
    held = elliptic.SparseLDL()
    near = _box_system(np.full(81, 1.0))
    held.solve(b, near)
    # a nearby Jacobian refines against the held factorization
    x = held.solve(b, _box_system(np.full(81, 1.1)))
    assert calls == [1] and held.matrix is near.matrix and held.sweeps > 1
    far = _box_system(np.full(81, -30.0))
    x = held.solve(b, far)
    assert calls == [1, 1] and held.matrix is far.matrix
    assert np.max(np.abs(far.matrix @ x - b)) <= 1e-12 * np.max(np.abs(b))
    # the held matrix itself solves with the held factorization
    held.solve(b, far)
    assert calls == [1, 1] and held.factorizations == 2
    # another fold never refines against it: it is factored afresh
    held.solve(b, _box_system(np.full(81, -30.0), parity=(1, 1)))
    assert calls == [1, 1, 1] and held.parity == (1, 1)


def test_a_singular_jacobian_raises_singular_operator():
    held = elliptic.SparseLDL()
    b = np.ones(81)
    held.solve(b, _box_system(np.ones(81)))
    # zero diagonal: symmetric-mode SuperLU meets an exactly zero pivot
    singular = _box_system(np.full(81, -4.0 / 0.8**2))
    assert np.all(singular.matrix.diagonal() == 0.0)
    with pytest.raises(SingularOperator):
        held.solve(b, singular)
    assert held._lu is None  # dropped before the factorization
    # and the next Jacobian is factored afresh, with no refinement
    sweeps = held.sweeps
    x = held.solve(b, _box_system(np.full(81, 2.0)))
    assert held.factorizations == 2 and held.sweeps == sweeps
    assert np.max(np.abs(held.matrix @ x - b)) <= 1e-12


def test_no_factorization_is_held_when_the_spectrum_factors(monkeypatch):
    params, pair, z, limit, grid = _small_saddle()
    prof = _continued(params, pair, z, limit, grid)
    held = prof._held
    assert held._lu is not None
    monkeypatch.setattr(workers, "scipy_openblas_setter", lambda: None)  # blocks in-process
    dropped = []
    real = elliptic.factor_ldl
    monkeypatch.setattr(
        elliptic, "factor_ldl",
        lambda a: dropped.append(held._lu is None and held.matrix is None) or real(a),
    )
    build_spectrum_report(prof, params, pair, z, limit)
    assert len(dropped) >= 4 and all(dropped)


def test_the_spectrum_releases_the_chain_before_it_builds_l(monkeypatch):
    from kgstab import spectrum

    params, pair, z, limit, grid = _small_saddle()
    prof = _continued(params, pair, z, limit, grid)
    held = prof._held
    assert held._lu is not None and held._ops is not None
    released = []
    real = spectrum.assemble_L
    monkeypatch.setattr(
        spectrum, "assemble_L",
        lambda *a: released.append(held._lu is None and held._ops is None) or real(*a),
    )
    build_spectrum_report(prof, params, pair, z, limit)
    assert released == [True]


def test_a_box_chain_builds_its_operator_once(monkeypatch):
    # the settles at epsilon = 0 and every step run on the quarter box: one
    # -lap for all of them, whose diagonal and the Jacobian's each solve
    # overwrites
    params, pair, z, limit, grid = _small_saddle()
    calls = []
    real = grids.neg_laplacian
    monkeypatch.setattr(
        grids, "neg_laplacian", lambda g, parity=None: calls.append(parity) or real(g, parity)
    )
    base = continue_profile(limit, replace(params, epsilon=0.0), pair, z, grid)
    ops, jac = base._held._ops, base._held._of.matrix  # the settle factored its Jacobian
    prof = continue_profile(base, params, pair, z, grid)
    assert calls == [(1, 1)]
    assert prof._held._ops is ops and prof._held._mag[0] is jac


def test_a_box_continuation_holds_no_full_box_temporaries():
    # numpy's peak over a continuation of the small saddle from its
    # epsilon = 0 state on a 201^2 box (five blocks of `grids.on_interior`),
    # in full-box float fields: the profile it returns (values and Z
    # field), the iterate and the Z field of the step tried, and the Newton
    # solves' fold-sized arrays. Whole-box coordinates, their Z temporaries
    # and a Jacobian copy per Newton solve took 16.
    import tracemalloc

    params, pair, z, limit, _ = _small_saddle()
    grid = Grid(2, "box", 14.0, 201)
    base = continue_profile(limit, replace(params, epsilon=0.0), pair, z, grid)
    field = grid.n**grid.dimension * 8
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        prof = continue_profile(base, params, pair, z, grid)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert prof.epsilon == params.epsilon
    assert peak <= 9 * field, f"peak of {peak / field:.1f} full-box fields"


def test_a_newton_solve_past_its_refinement_budget_factors_afresh(monkeypatch):
    # a 33^2 box whose z jumps from 0.81 to 0.85: the second Newton solve
    # refined each of its 11 Jacobians in 11 sweeps against the first's
    # last LDL^T, 121 sweeps where a factorization costs about 22
    g = Grid(2, "box", 10.0, 33)
    start = grids.extract_interior(g, 1.3 * np.exp(-0.4 * g.radii() ** 2))

    def chain():
        held, psi = elliptic.SparseLDL(), start
        for c in (0.81, 0.85):
            z = np.full(g.n_interior(), c)
            before = held.factorizations, held.sweeps
            psi, res = _newton(g, z, 3.0, psi, 1e-12, elliptic.even_axes(g, z), held)
            assert res < 1e-12
        return psi, held.factorizations - before[0], held.sweeps - before[1]

    psi, factorizations, sweeps = chain()
    assert factorizations == 1 and sweeps < elliptic.REFINE_BUDGET + 20
    # the reference: refinement with no budget
    monkeypatch.setattr(elliptic, "REFINE_BUDGET", np.inf)
    ref, factorizations, sweeps = chain()
    assert factorizations == 0 and sweeps > 100
    assert np.max(np.abs(psi - ref)) <= 1e-12 * np.max(ref)


def test_continuation_decides_its_fold_once(s1, monkeypatch):
    params, pair, z, _, _ = s1
    grid = Grid(1, "line", 30.0, 1201)
    limit = solve_limit_ground_state(z.z0, params.p, grid)
    checks = []
    real = elliptic.even_axes
    monkeypatch.setattr(elliptic, "even_axes", lambda g, f: checks.append(1) or real(g, f))
    continue_profile(limit, params, pair, z, grid)
    assert len(checks) == 2  # the settle at epsilon = 0, then every step


def test_box_limit_solve_seeds_with_the_radius():
    # a box seed from the 1d axis raised IndexError; now a too-small box is
    # a GridTooSmall the block guard records, and a larger one solves
    with pytest.raises(GridTooSmall):
        solve_limit_ground_state(1.0, 3.0, Grid(2, "box", 8.0, 41))
    prof = solve_limit_ground_state(1.0, 3.0, Grid(2, "box", 14.0, 41))
    assert prof.residual < 1e-10
    assert prof.peak == (0.0, 0.0)


@pytest.mark.parametrize(
    "grid", [Grid(1, "line", 15.0, 301), Grid(2, "radial", 15.0, 301)], ids=["line", "radial"]
)
def test_limit_seed_by_radius_is_bit_identical_on_line_and_radial_grids(grid):
    # the seed the fd limit solver used before it took the radius
    assert np.array_equal(
        sech_ground_state(1.0, 3.0, grid.radii()), sech_ground_state(1.0, 3.0, grid.axis)
    )


def test_decay_check_raises_on_small_domain():
    with pytest.raises(GridTooSmall):
        solve_limit_ground_state(0.05, 3.0, Grid(1, "line", 6.0, 601), method="fd")


def test_continuation_identity_at_zero(s1, monkeypatch):
    params, pair, z, grid, limit = s1

    def points(self):
        raise AssertionError("a settle at epsilon = 0 built the node coordinates")

    # no step runs, so no Z(x0 + eps y) is sampled
    monkeypatch.setattr(Grid, "points", points)
    out = continue_profile(limit, replace(params, epsilon=0.0), pair, z, grid=grid)
    assert np.array_equal(out.values, limit.values)


def test_continuation_needs_a_line_or_box_grid():
    # a radial grid samples Z(x0 + eps y) along one axis only
    params = ProblemParams(dimension=2, p=3.0, m=1.0, omega=0.5, epsilon=0.05)
    spec_w = PotentialSpec(2, (GaussianTerm(0.05, (0.0, 0.0), 1.0),))
    pair = resolve_potentials(params, None, spec_w)
    z = find_critical_point(params, pair, (0.0, 0.0))
    radial = Grid(2, "radial", 40.0, 801)
    limit = solve_limit_ground_state(z.z0, params.p, radial)
    with pytest.raises(ValueError, match="line or box"):
        continue_profile(limit, params, pair, z, radial)


def test_continuation_second_order_in_epsilon(s1):
    params, pair, z, grid, limit = s1
    w = grid.weights()
    errs = []
    for eps in (0.05, 0.025):
        prof = continue_profile(limit, replace(params, epsilon=eps), pair, z, grid=grid)
        assert prof.residual <= 1e-10
        diff = prof.values - limit.values
        errs.append(float(np.sqrt(np.sum(w * diff**2))))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_continuation_keeps_even_symmetry(s1_profile):
    vals = s1_profile.values
    assert np.max(np.abs(vals - vals[::-1])) < 1e-12 * np.max(vals)
    assert s1_profile.peak[0] == pytest.approx(0.0, abs=1e-12)


def test_resolve_at_omega_moves_the_branch(s1, s1_profile):
    params, pair, z, grid, limit = s1
    shifted = resolve_at_omega(s1_profile, replace(params, omega=0.89), pair)
    assert shifted.residual <= 1e-10
    # mass grows as omega decreases toward the stable side here
    assert shifted.mass() > s1_profile.mass()


def test_T_lambda_pointwise(free_limit):
    T = compute_T_lambda(free_limit)
    mid = free_limit.grid.n // 2
    # at the even peak the gradient term vanishes
    assert T[mid] == pytest.approx(-free_limit.values[mid] / 2.0, rel=1e-8)
    zero = replace(free_limit, values=np.zeros_like(free_limit.values))
    assert np.array_equal(compute_T_lambda(zero), np.zeros(free_limit.grid.n))


def test_T_lambda_scaling_integral(free_limit):
    g = free_limit.grid
    w = g.weights()
    lhs = 2.0 * float(np.sum(w * free_limit.values * compute_T_lambda(free_limit)))
    # (N/2 - 2/(p-1)) ||psi||^2 = -0.5 * 4 = -2 for c = 1
    assert lhs == pytest.approx(-2.0, abs=1e-4)


def test_R_omega_free_oracle():
    # V = W = 0: d||phi||^2/domega = -4 omega / sqrt(c), c = m - omega^2
    om = 0.6
    c = 1.0 - om**2
    params = ProblemParams(1, 3.0, 1.0, om, 0.05)
    pair = resolve_potentials(params, None, None)
    z = effective_z_at(params, pair, np.array([0.0]))
    g = Grid(1, "line", 30.0 / np.sqrt(c), 6001)
    limit = solve_limit_ground_state(c, 3.0, g, method="fd")
    prof = continue_profile(limit, params, pair, z, grid=g)
    oracle = -4.0 * om / np.sqrt(c)
    R_solve, _ = compute_R_omega(prof, params, pair)
    R_fd = fd_R_omega(prof, params, pair, 1e-3)
    for method, R in (("linear-solve", R_solve), ("finite-difference", R_fd)):
        got = 2.0 * float(np.sum(g.weights() * prof.values * R))
        assert got == pytest.approx(oracle, rel=1e-4), method


def test_R_omega_methods_converge_quadratically(s1, s1_profile):
    params, pair, z, grid, limit = s1
    R_ls, _ = compute_R_omega(s1_profile, params, pair)
    w = grid.weights()
    gaps = []
    for dw in (2e-3, 1e-3):
        R_fd = fd_R_omega(s1_profile, params, pair, dw)
        gaps.append(float(np.sqrt(np.sum(w * (R_fd - R_ls) ** 2))))
    assert 3.0 < gaps[0] / gaps[1] < 5.0


def test_R_omega_identity_residual(s1, s1_profile, caplog):
    params, pair, z, grid, limit = s1
    with caplog.at_level(logging.DEBUG, logger="kgstab"):
        _, info = compute_R_omega(s1_profile, params, pair)
    norm = np.sqrt(np.sum(grid.weights() * s1_profile.values**2))
    assert info["identity_residual"] <= 1e-6 * norm
    # solved on the half line, and said so in one DEBUG line
    done = [r.getMessage() for r in caplog.records if r.getMessage().startswith("R_omega done:")]
    assert done == [
        f"R_omega done: parity (1,), 3200 unknowns, identity residual "
        f"{info['identity_residual']:.3e}, <chi, dR> "
        f"{np.sum(grid.weights() * info['rhs'] * info['correction']):.3e}"
    ]


def test_R_omega_identity_residual_on_a_box(monkeypatch):
    # the 2d saddle of the spectrum tests on a small box: L has a pair
    # of eigenvalues near zero, factored as LDL^T
    params = ProblemParams(2, 3.0, 1.0, 0.5, 0.1)
    spec = PotentialSpec(2, (QuadraticTerm(((0.3, 0.0), (0.0, -0.3)), (0.0, 0.0)),))
    pair = resolve_potentials(params, None, spec)
    z = find_critical_point(params, pair, (0.0, 0.0))
    limit = solve_limit_ground_state(z.z0, 3.0, Grid(2, "radial", 16.0, 401))
    grid = Grid(2, "box", 14.0, 71)
    prof = continue_profile(limit, params, pair, z, grid=grid)
    R, info = compute_R_omega(prof, params, pair)
    norm = np.sqrt(np.sum(grid.weights() * prof.values**2))
    assert info["identity_residual"] <= 1e-6 * norm

    # solved on the (even, even) quarter box, it is the full-box solve
    assert info["parity"] == (1, 1)
    L = assemble_L(prof, params, pair)
    _, factor, _ = elliptic._operator(grid, None, L.diagonal)
    chi = grids.extract_interior(grid, 2.0 * params.omega * prof.values)  # V = 0
    R_full = grids.insert_interior(grid, factor().solve(chi))
    assert np.max(np.abs(R - R_full)) <= 1e-10 * np.max(np.abs(R_full))

    # the numeric slope costs one factorization, of the quarter-box block
    shapes = []
    real = elliptic.factor_ldl

    def counted(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(elliptic, "factor_ldl", counted)
    rep = build_slope_report(prof, params, pair, z, limit)
    assert rep.slope_numeric is not None
    quarter = ((grid.n - 2) // 2 + 1) ** 2
    assert shapes == [(quarter, quarter)]


def _allclose_even_axes(grid, z_int):
    """The reference rule: np.allclose of z and its mirror image."""
    scale = max(1.0, float(np.max(np.abs(z_int))))
    z = z_int.reshape((grid.n - 2,) * grid.dimension)
    return tuple(
        int(np.allclose(z, np.flip(z, a), rtol=0.0, atol=1e-12 * scale))
        for a in range(grid.dimension)
    )


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("amplitude", [0.0, 300.0])
@pytest.mark.parametrize("defect", [0.0, 0.5e-12, 0.99e-12, 1.01e-12, 1e-9])
def test_even_axes_is_the_allclose_rule(n, amplitude, defect):
    # an even-even field, its first row moved by `defect` times the
    # tolerance's scale: axis 0 is even only while that stays below 1e-12
    g = Grid(2, "box", 3.0, n)
    x, y = np.meshgrid(g.axis[1:-1], g.axis[1:-1], indexing="ij")
    z = 0.5 + amplitude * np.exp(-(x**2) - 2.0 * y**2)
    scale = max(1.0, float(np.max(np.abs(z))))
    z[0] += defect * scale
    got = elliptic.even_axes(g, z.ravel())
    assert got == _allclose_even_axes(g, z.ravel())
    assert got == (int(defect < 1e-12), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_even_axes_of_a_non_finite_field_is_none_of_them(bad):
    g = Grid(1, "line", 3.0, 11)
    z = np.ones(9)
    z[0] = bad
    assert elliptic.even_axes(g, z) == (0,)
    z[-1] = bad  # a mirrored NaN or infinity is not even either
    assert elliptic.even_axes(g, z) == (0,)


def test_an_epsilon_block_evaluates_z_once_per_continuation_step(s1, monkeypatch):
    from kgstab.spectrum import build_spectrum_report

    params, pair, z, grid, limit = s1
    calls = []
    z_on_grid = elliptic._z_on_grid
    monkeypatch.setattr(elliptic, "_z_on_grid", lambda *args: calls.append(args) or z_on_grid(*args))
    prof = continue_profile(limit, params, pair, z, grid=grid)
    steps = len(calls)
    assert steps > 0
    # R and L read the field of the last continuation step
    build_slope_report(prof, params, pair, z, limit)
    build_spectrum_report(prof, params, pair, z, limit)
    assert len(calls) == steps
    kept = prof.z_field(params, pair)
    assert not kept.flags.writeable
    # it is the field a fresh evaluation gives, to the bit
    fresh = replace(prof).z_field(params, pair)
    assert len(calls) == steps + 1
    assert fresh.tobytes() == kept.tobytes()
    # another omega is another field
    other = prof.z_field(replace(params, omega=0.8), pair)
    assert len(calls) == steps + 2 and not np.array_equal(other, kept)
