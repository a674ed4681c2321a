import logging

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from kgstab import elliptic, spectrum
from kgstab.elliptic import LinearizedOperator, continue_profile, solve_limit_ground_state
from kgstab.errors import EigSolverFailure
from kgstab.grids import Grid
from kgstab.potentials import (
    GaussianTerm,
    PotentialSpec,
    ProblemParams,
    QuadraticTerm,
    find_critical_point,
    resolve_potentials,
)
from kgstab.spectrum import (
    assemble_L,
    build_spectrum_report,
    eig_low,
    gss_classify,
    parity_blocks,
    predicted_shifts,
)
from kgstab.stability import build_slope_report


def test_assemble_rejects_radial(s1):
    params, pair, z, grid, limit = s1
    rg = Grid(2, "radial", 20.0, 501)
    prof = solve_limit_ground_state(0.75, 3.0, rg)
    with pytest.raises(ValueError):
        assemble_L(prof, replace(params, dimension=2), pair)


def test_operator_is_symmetric(s1, s1_profile):
    params, pair, z, grid, limit = s1
    op = assemble_L(s1_profile, params, pair)
    a = op.matrix()
    assert abs(a - a.T).max() < 1e-12


def test_limit_spectrum_poschl_teller(s1):
    # at epsilon = 0 the linearization around psi_c has lambda0 = -3c exactly
    params, pair, z, grid, limit = s1
    prof0 = continue_profile(limit, replace(params, epsilon=0.0), pair, z, grid=grid)
    op = assemble_L(prof0, replace(params, epsilon=0.0), pair)
    vals = eig_low(op, 4)
    c = z.z0
    assert vals[0] == pytest.approx(-3.0 * c, rel=1e-4)
    assert abs(vals[1]) < 1e-6  # translation zero mode
    assert vals[2] >= 0.9 * c  # continuum edge approximation


def test_predicted_shift_hand_value(s1):
    params, pair, z, grid, limit = s1
    shifts = predicted_shifts(limit, z)
    # N=1, Z''(0) = 0.1, c = 0.14: (1/2) (mass/grad2) a1 = 15/14
    assert shifts[0] == pytest.approx(15.0 / 14.0, rel=1e-4)


def test_eig_low_free_operator():
    # -u'' + c u on the interval: eigenvalues c + (pi k / 2L)^2
    g = Grid(1, "line", 10.0, 2001)
    params = ProblemParams(1, 3.0, 1.0, 0.9, 0.05)
    pair = resolve_potentials(params, None, None)
    prof = solve_limit_ground_state(1.0, 3.0, Grid(1, "line", 15.0, 1501), method="fd")
    # zero profile on the target grid: plain Schrodinger operator with Z = m - omega^2
    from kgstab.elliptic import Profile

    zero = Profile(
        grid=g,
        values=np.zeros(g.n),
        epsilon=0.05,
        p=3.0,
        center=(0.0,),
        residual=0.0,
        peak=(0.0,),
    )
    op = assemble_L(zero, params, pair)
    vals = eig_low(op, 3)
    c = 1.0 - 0.81
    for k, v in enumerate(vals, start=1):
        assert v == pytest.approx(c + (np.pi * k / 20.0) ** 2, rel=1e-4)


def test_spectrum_report_s1(s1, s1_profile):
    params, pair, z, grid, limit = s1
    rep = build_spectrum_report(s1_profile, params, pair, z, limit)
    assert rep.n_negative == 1
    assert rep.hessian_negatives == 0
    assert rep.count_consistent
    assert len(rep.eigenvalues) == 4
    # the shifted translation mode sits inside the annotation band
    assert 1 in rep.zero_cluster
    lam1 = rep.eigenvalues[1] / params.epsilon**2
    assert lam1 == pytest.approx(rep.predicted_shifts[0], rel=0.1)
    assert rep.gss == "inconclusive"  # not yet classified


def test_gss_classification_branches(s1, s1_profile):
    params, pair, z, grid, limit = s1
    spec = build_spectrum_report(s1_profile, params, pair, z, limit)
    slope = build_slope_report(s1_profile, params, pair, z, limit)
    out = gss_classify(spec, slope)
    assert out.gss == "stable"
    assert out.p_omega == 1

    # unstable branch: omega = 0.3 has positive slope, n(L) = 1, odd mismatch
    params2 = replace(params, omega=0.3)
    z2 = find_critical_point(params2, pair, (0.0,))
    limit2 = solve_limit_ground_state(z2.z0, 3.0, grid, method="fd")
    prof2 = continue_profile(limit2, params2, pair, z2, grid=grid)
    spec2 = build_spectrum_report(prof2, params2, pair, z2, limit2)
    slope2 = build_slope_report(prof2, params2, pair, z2, limit2)
    out2 = gss_classify(spec2, slope2)
    assert out2.gss == "unstable"
    assert out2.p_omega == 0


def test_gss_uses_predicted_sign_when_numeric_missing(s1, s1_profile):
    params, pair, z, grid, limit = s1
    spec = build_spectrum_report(s1_profile, params, pair, z, limit)
    slope = build_slope_report(s1_profile, params, pair, z, limit, with_numeric=False)
    out = gss_classify(spec, slope)
    assert out.gss == "stable"


def test_shift_convergence_down_epsilon(s1):
    params, pair, z, grid, limit = s1
    errs = []
    for eps in (0.1, 0.05):
        pe = replace(params, epsilon=eps)
        prof = continue_profile(limit, pe, pair, z, grid=grid)
        rep = build_spectrum_report(prof, pe, pair, z, limit)
        lam1 = rep.eigenvalues[1] / eps**2
        errs.append(abs(lam1 / rep.predicted_shifts[0] - 1.0))
    assert errs[1] < errs[0]


def _box_operator(n, diagonal, extent=6.0):
    """L = -lap + diagonal(x, y) on the interior of a small 2d box."""
    g = Grid(2, "box", extent, n)
    x, y = np.meshgrid(g.axis[1:-1], g.axis[1:-1], indexing="ij")
    return LinearizedOperator(g, np.asarray(diagonal(x, y), dtype=float).ravel())


def _well(depth, width):
    # off-centre and anisotropic, so no eigenvalue is degenerate
    return lambda x, y: 0.3 + 0.02 * x - depth * np.exp(-(x**2 + 0.7 * y**2) / width**2)


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# (n, diagonal, n_negative, negatives among the 5 eigenvalues nearest 0)
BOX_CASES = {
    "free": (21, lambda x, y: 0.2 + 0.0 * x, 0, 0),
    "all-negatives-near-zero": (25, _well(3.0, 1.0), 1, 1),
    "one-missing": (25, _well(6.0, 1.0), 1, 0),
    "saddle-like": (25, _well(4.0, 1.5), 3, 2),
    "more-negatives-than-k": (25, _well(8.0, 2.0), 8, 1),
    "strongly-negative": (17, lambda x, y: -30.0 + 0.1 * x + 0.05 * y**2, 225, 5),
}


@pytest.mark.parametrize("case", sorted(BOX_CASES))
def test_eig_low_box_matches_dense(case, monkeypatch):
    n, diagonal, n_neg, m = BOX_CASES[case]
    k = 5
    op = _box_operator(n, diagonal)
    dense = np.linalg.eigvalsh(op.matrix().toarray())
    nearest = dense[np.argsort(np.abs(dense))[:k]]
    assert (int(np.sum(dense < 0)), int(np.sum(nearest < 0))) == (n_neg, m)
    splu_calls = _counting(monkeypatch, elliptic, "splu")
    eigsh_calls = _counting(monkeypatch, spectrum, "eigsh")
    vals = eig_low(op, k)
    np.testing.assert_allclose(vals, dense[:k], rtol=1e-9, atol=0.0)
    # every factorization goes through kgstab.elliptic.splu; the second
    # shift-invert runs only when the first one misses a negative
    solves = 1 if m >= n_neg else 2
    assert len(splu_calls) == len(eigsh_calls) == solves


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([15, 19, 23]),
    offset=st.floats(-4.0, 2.0),
    spread=st.floats(0.0, 6.0),
)
def test_eig_low_box_random_diagonal(seed, n, offset, spread):
    noise = np.random.default_rng(seed).standard_normal((n - 2, n - 2))
    op = _box_operator(n, lambda x, y: offset + spread * noise)
    dense = np.linalg.eigvalsh(op.matrix().toarray())[:5]
    vals = eig_low(op, 5)
    scale = max(1.0, float(np.max(np.abs(dense))))
    np.testing.assert_allclose(vals, dense, rtol=1e-9, atol=1e-9 * scale)
    assert int(np.sum(vals < 0)) == int(np.sum(dense < 0))


class _PositivePivots:
    """A factorization whose pivots deny every negative eigenvalue."""

    def __init__(self, lu):
        self.lu = lu
        self.perm_r, self.perm_c, self.solve = lu.perm_r, lu.perm_c, lu.solve

    @property
    def U(self):
        return abs(self.lu.U)


class _Pivoted:
    """A factorization that pivoted rows off the diagonal."""

    def __init__(self, n):
        self.perm_r, self.perm_c = np.arange(n), np.arange(n)[::-1]


def _singular(a, **options):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize(
    "factor",
    [
        _singular,
        lambda a, **options: _PositivePivots(splu(a, **options)),
        lambda a, **options: _Pivoted(a.shape[0]),
    ],
    ids=["factorization-fails", "count-disagrees", "pivoted"],
)
def test_eig_low_box_failures_raise(factor, monkeypatch):
    op = _box_operator(17, _well(4.0, 1.5))
    monkeypatch.setattr(elliptic, "splu", factor)
    with pytest.raises(EigSolverFailure):
        eig_low(op, 5)


@pytest.fixture(scope="module")
def townes_coarse():
    return solve_limit_ground_state(0.75, 3.0, Grid(2, "radial", 16.0, 401))


def _saddle_spectrum(matrix, townes, centre=(0.0, 0.0)):
    # h = 0.25 at eps = 0.1 resolves the zero-cluster pair: n_negative = 2
    params = ProblemParams(2, 3.0, 1.0, 0.5, 0.1)
    pair = resolve_potentials(params, None, PotentialSpec(2, (QuadraticTerm(matrix, centre),)))
    z = find_critical_point(params, pair, centre)
    prof = continue_profile(townes, params, pair, z, grid=Grid(2, "box", 15.0, 121))
    return build_spectrum_report(prof, params, pair, z, townes)


ORIGIN, SHIFTED = (0.0, 0.0), (3.7, -1.3)


@pytest.mark.parametrize(
    "inputs",
    [
        # swapping the saddle's axes, and translating it by a vector
        [
            (((0.3, 0.0), (0.0, -0.3)), ORIGIN),
            (((-0.3, 0.0), (0.0, 0.3)), ORIGIN),
            (((0.3, 0.0), (0.0, -0.3)), SHIFTED),
        ],
        # a coupled saddle, its axes swapped, and reflected in x
        [
            (((0.3, 0.1), (0.1, -0.3)), ORIGIN),
            (((-0.3, 0.1), (0.1, 0.3)), ORIGIN),
            (((0.3, -0.1), (-0.1, -0.3)), ORIGIN),
        ],
    ],
    ids=["swap-axes", "coupled-swap-reflect"],
)
def test_box_spectrum_invariant_under_axis_maps(inputs, townes_coarse):
    reports = [_saddle_spectrum(m, townes_coarse, centre) for m, centre in inputs]
    assert reports[0].n_negative == 2
    for rep in reports[1:]:
        assert rep.n_negative == reports[0].n_negative
        np.testing.assert_allclose(rep.eigenvalues, reports[0].eigenvalues, rtol=1e-10, atol=0.0)


def _line_operator(n, diagonal, extent=6.0):
    g = Grid(1, "line", extent, n)
    return LinearizedOperator(g, np.asarray(diagonal(g.axis[1:-1]), dtype=float))


# (operator, whether the even-even block needs the second shift)
SYMMETRIC_CASES = {
    "box-plane-node": (lambda: _box_operator(25, _centred_well(1.5, 1.5)), False),
    "box-plane-between-nodes": (lambda: _box_operator(24, _centred_well(1.5, 1.5)), False),
    "box-deep-even-ground-state": (lambda: _box_operator(21, _centred_well(6.0, 1.0)), True),
    "line-plane-node": (lambda: _line_operator(41, lambda x: 0.3 - 3.0 * np.exp(-(x**2))), False),
    "line-plane-between-nodes": (
        lambda: _line_operator(40, lambda x: 0.3 - 3.0 * np.exp(-(x**2))), False
    ),
}


def _centred_well(depth, width):
    # even in both axes, anisotropic
    return lambda x, y: 0.3 - depth * np.exp(-(x**2 + 0.7 * y**2) / width**2)


@pytest.mark.parametrize("n", [40, 41], ids=["plane-between-nodes", "plane-node"])
def test_banded_eig_low_matches_dense_on_lines(n):
    # a deep well with a noisy, uneven diagonal: the full operator and
    # both parity blocks of its even part
    noise = np.random.default_rng(n).standard_normal(n - 2)
    ops = [_line_operator(n, lambda x: 0.3 - 3.0 * np.exp(-(x**2)) + 0.5 * noise)]
    ops += parity_blocks(_line_operator(n, lambda x: 0.3 - 3.0 * np.exp(-(x**2))), (1,))
    for op in ops:
        a = op.matrix()
        main, off = op.bands()
        # the bands are the assembled matrix's, to the last bit
        assert np.array_equal(main, a.diagonal()) and np.array_equal(off, a.diagonal(1))
        dense = np.linalg.eigvalsh(a.toarray())[:5]
        scale = float(np.max(np.abs(dense)))
        np.testing.assert_allclose(eig_low(op, 5), dense, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("case", sorted(SYMMETRIC_CASES))
def test_parity_blocks_split_the_spectrum(case, monkeypatch):
    make, second_shift = SYMMETRIC_CASES[case]
    op = make()
    k = 5
    even = elliptic.even_axes(op.grid, op.diagonal)
    assert even == (1,) * op.grid.dimension
    full = eig_low(op, k)
    dense = np.linalg.eigvalsh(op.matrix().toarray())[:k]
    eigsh_calls = _counting(monkeypatch, spectrum, "eigsh")
    blocks = parity_blocks(op, even)
    assert len(blocks) == 2**op.grid.dimension
    assert sum(b.diagonal.size for b in blocks) == op.diagonal.size
    split = np.sort(np.concatenate([eig_low(b, k) for b in blocks]))[:k]
    np.testing.assert_allclose(split, full, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(split, dense, rtol=1e-9, atol=0.0)
    if op.grid.geometry == "box":
        # the even-even block comes first; its deep ground state lies
        # below the shift-0 window only in the deep case
        assert len(eigsh_calls) == len(blocks) + second_shift


@pytest.mark.parametrize(
    "matrix, folded",
    [(((0.3, 0.0), (0.0, -0.3)), [0, 1]), (((0.3, 0.1), (0.1, -0.3)), [])],
    ids=["diagonal-saddle", "coupled-saddle"],
)
def test_debug_log_names_the_folded_axes_and_the_blocks(matrix, folded, townes_coarse, caplog):
    with caplog.at_level(logging.DEBUG, logger="kgstab"):
        _saddle_spectrum(matrix, townes_coarse)
    messages = [r.getMessage() for r in caplog.records]
    full = 119**2
    newton = [m for m in messages if m.startswith("newton:")]
    # the last solve runs at epsilon = 0.1, where Z is the saddle's
    reduced = 60**2 if folded else full
    assert newton[-1] == f"newton: {reduced} of {full} unknowns, folded axes {folded}"
    (blocks,) = [m for m in messages if m.startswith("spectrum:")]
    sizes = [60 * 60, 60 * 59, 59 * 60, 59 * 59] if folded else [full]
    assert blocks == f"spectrum: parity blocks of {sizes} unknowns"
    pivots = [m for m in messages if m.startswith("eig_low:")]
    assert len(pivots) == len(sizes)
