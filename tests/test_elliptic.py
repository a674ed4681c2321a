import logging
import re

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
from dataclasses import replace

from kgstab import elliptic, grids
from kgstab.elliptic import (
    _newton,
    assemble_L,
    compute_R_omega,
    compute_T_lambda,
    continue_profile,
    resolve_at_omega,
    sech_ground_state,
    solve_limit_ground_state,
)
from kgstab.errors import GridTooSmall, NoConvergence, SingularOperator
from kgstab.grids import Grid
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


from conftest import fd_R_omega, sech_exact


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
    for name in ("dst", "idst"):
        transform = getattr(scipy.fft, name)

        def counting(*args, _transform=transform, **kwargs):
            calls.append(1)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counting)
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
    w = grids.extract_interior(g, g.weights())
    psi = grids.extract_interior(g, sech_exact(1.0, g.axis))
    # a zero tolerance is unreachable: the line search stalls at roundoff
    with pytest.raises(NoConvergence) as info:
        _newton(g, np.ones(g.n_interior()), 3.0, psi, w, tol=0.0)
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
    w = grids.extract_interior(g, g.weights())
    psi, res = _newton(g, np.ones(g.n_interior()), 3.0, np.full(g.n_interior(), 0.501), w, 1e-12)
    assert res < 1e-12
    assert np.allclose(psi, -1.0, atol=1e-4)
    assert len(factored) >= 2


@pytest.mark.parametrize(
    "grid",
    [Grid(1, "line", 12.0, 200), Grid(2, "box", 10.0, 33)],
    ids=["line-plane-between-nodes", "box-plane-node"],
)
def test_folded_newton_matches_full_box_newton(grid, monkeypatch):
    # z even in every axis, an anisotropic start that is not
    y = grid.points()
    r2 = np.sum(y**2, axis=-1)
    z = grids.extract_interior(grid, 0.8 + 0.01 * r2 + 0.02 * y[..., 0] ** 2)
    w = grids.extract_interior(grid, grid.weights())
    start = 1.5 * np.exp(-0.5 * r2) * (1.0 + 0.05 * np.tanh(y[..., 0]))
    start = grids.extract_interior(grid, start)
    assert elliptic.even_axes(grid, z) == (1,) * grid.dimension
    folded, res_folded = _newton(grid, z, 3.0, start, w, 1e-13)
    monkeypatch.setattr(elliptic, "even_axes", lambda grid, z_int: (0,) * grid.dimension)
    full, res_full = _newton(grid, z, 3.0, start, w, 1e-13)
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

        def factor(shift=None):
            return elliptic.factor_ldl(a if shift is None else (a - sp.diags_array(shift)).tocsc())

        return a.__matmul__, factor, "LDL^T"

    monkeypatch.setattr(elliptic, "_operator", operator)


@pytest.mark.parametrize("shift", [0.0, 0.3], ids=["folded", "unfolded"])
def test_banded_newton_matches_the_sparse_path_on_a_line(shift, monkeypatch):
    g = Grid(1, "line", 12.0, 201)
    y = g.axis[1:-1]
    z = 0.8 + 0.05 * (y - shift) ** 2
    w = grids.extract_interior(g, g.weights())
    start = 1.5 * np.exp(-0.5 * y**2) * (1.0 + 0.05 * np.tanh(y))
    assert elliptic.even_axes(g, z) == (int(shift == 0.0),)
    banded, res_banded = _newton(g, z, 3.0, start, w, 1e-13)
    _sparse_newton(monkeypatch)
    sparse, res_sparse = _newton(g, z, 3.0, start, w, 1e-13)
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


_DONE = re.compile(r"newton done: (\S+), (\d+) iterations, (\d+) factorizations, residual (\S+)$")


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
    z = np.full(g.n_interior(), 0.8)
    w = grids.extract_interior(g, g.weights())
    start = grids.extract_interior(g, 1.3 * np.exp(-0.4 * g.radii() ** 2))
    calls = []
    entry = getattr(elliptic, factor)
    monkeypatch.setattr(elliptic, factor, lambda *a: calls.append(1) or entry(*a))
    with caplog.at_level(logging.DEBUG, logger="kgstab"):
        _, res = _newton(g, z, 3.0, start, w, 1e-12)
    done = [r.getMessage() for r in caplog.records if r.getMessage().startswith("newton done:")]
    assert len(done) == 1
    got_kind, iterations, factorizations, residual = _DONE.match(done[0]).groups()
    assert got_kind == kind
    assert int(factorizations) == len(calls)
    assert 1 <= len(calls) <= int(iterations) < 30
    assert float(residual) == pytest.approx(res, rel=1e-3)


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


def test_continuation_identity_at_zero(s1):
    params, pair, z, grid, limit = s1
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
