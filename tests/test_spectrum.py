import ctypes
import glob
import logging
import multiprocessing
import os
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy
from scipy.linalg import block_diag, eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from kgstab import elliptic, spectrum, workers
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
    vals = eig_low([op], 4)
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
    vals = eig_low([op], 3)
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
    vals = eig_low([op], k)
    np.testing.assert_allclose(vals, dense[:k], rtol=1e-9, atol=0.0)
    # every factorization goes through kgstab.elliptic.splu. A second
    # Lanczos run follows only when the first one misses a negative; it
    # runs on the one factorization unless there are more than k negatives
    runs = 1 if m >= n_neg else 2
    factorizations = 2 if n_neg > k else 1
    assert len(splu_calls) == factorizations
    if not spectrum._may_have_multiples(op):
        assert len(eigsh_calls) == runs
        return
    # "free" is constant and "strongly-negative" separable: a run on the
    # complement of its eigenvectors follows each run, and one more for
    # each copy of a multiple eigenvalue that it missed
    assert case in ("free", "strongly-negative")
    copies = _repeats(nearest) + (_repeats(dense[:k]) if n_neg > k else 0)
    assert 2 * runs <= len(eigsh_calls) <= 2 * runs + copies


def _repeats(vals):
    """How many of `vals` repeat another to 1e-9."""
    return int(np.sum(np.diff(np.sort(vals)) < 1e-9))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([15, 19, 23]),
    offset=st.floats(-4.0, 2.0),
    spread=st.floats(0.0, 6.0),
)
# a constant diagonal has double eigenvalues, of which one Lanczos run
# found one copy at these sizes and offsets
@example(seed=0, n=23, offset=1.25, spread=0.0)
@example(seed=0, n=19, offset=1.5, spread=0.0)
# and here the deep shift's run added a copy of a double eigenvalue that
# the run at zero had found: it was counted twice
@example(seed=0, n=23, offset=-0.75, spread=0.0)
def test_eig_low_box_random_diagonal(seed, n, offset, spread):
    noise = np.random.default_rng(seed).standard_normal((n - 2, n - 2))
    op = _box_operator(n, lambda x, y: offset + spread * noise)
    dense = np.linalg.eigvalsh(op.matrix().toarray())[:5]
    vals = eig_low([op], 5)
    scale = max(1.0, float(np.max(np.abs(dense))))
    np.testing.assert_allclose(vals, dense, rtol=1e-9, atol=1e-9 * scale)
    assert int(np.sum(vals < 0)) == int(np.sum(dense < 0))


def _pinwheel(x, y):
    # invariant under a quarter turn, odd under the axis reflections and
    # the axis swap, and not separable
    return 0.4 + 0.3 * x * y * (x**2 - y**2) / (1.0 + (x**2 + y**2) ** 2)


# (box operator, how its multiple eigenvalues arise)
MULTIPLE_CASES = {
    "constant-nearest-zero": lambda: _box_operator(23, lambda x, y: 1.25 + 0.0 * x),
    "constant-negative-missed": lambda: _box_operator(19, lambda x, y: -0.5 + 0.0 * x),
    "constant-below-deep-shift": lambda: _box_operator(15, lambda x, y: -30.0 + 0.0 * x),
    "constant-deep-shift-overlap": lambda: _box_operator(23, lambda x, y: -0.75 + 0.0 * x),
    "quarter-turn": lambda: _box_operator(21, _pinwheel),
    "constant-cube": lambda: LinearizedOperator(Grid(3, "box", 6.0, 9), np.full(7**3, 0.3)),
}


@pytest.mark.parametrize("case", sorted(MULTIPLE_CASES))
def test_eig_low_box_finds_every_copy_of_a_multiple_eigenvalue(case):
    op = MULTIPLE_CASES[case]()
    dense = np.linalg.eigvalsh(op.matrix().toarray())
    assert _repeats(dense[:5]) > 0
    assert spectrum._may_have_multiples(op)
    vals = eig_low([op], 5)
    np.testing.assert_allclose(vals, dense[:5], rtol=1e-9, atol=1e-12)


def _radial(x, y):
    return 0.3 - 2.0 * np.exp(-(x**2 + y**2))


@pytest.mark.parametrize(
    "diagonal, parity, multiples",
    [
        (lambda x, y: 0.7 + 0.0 * x, None, True),
        (lambda x, y: np.sin(x) + 0.2 * y**3, None, True),
        (_pinwheel, None, True),
        (_radial, None, True),
        (_radial, (1, 1), False),
        (_radial, (-1, -1), False),
        (_radial, (1, -1), False),
        (_well(4.0, 1.5), None, False),
        (lambda x, y: 0.7 + 1e-6 * np.cos(3.0 * x * y + x), None, False),
    ],
    ids=[
        "constant",
        "separable",
        "quarter-turn",
        "radial-unfolded",
        "radial-even-even-swap-only",
        "radial-odd-odd-swap-only",
        "radial-even-odd",
        "anisotropic-well",
        "near-constant-beyond-tolerance",
    ],
)
def test_may_have_multiples_finds_separable_and_higher_order_symmetric_diagonals(
    diagonal, parity, multiples
):
    op = _box_operator(25, diagonal)
    if parity is not None:
        (op,) = [b for b in parity_blocks(op, (True, True)) if b.parity == parity]
    assert spectrum._may_have_multiples(op) is multiples


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


FAILING_FACTORS = pytest.mark.parametrize(
    "factor",
    [
        _singular,
        lambda a, **options: _PositivePivots(splu(a, **options)),
        lambda a, **options: _Pivoted(a.shape[0]),
    ],
    ids=["factorization-fails", "count-disagrees", "pivoted"],
)


@FAILING_FACTORS
def test_eig_low_box_failures_raise(factor, monkeypatch):
    op = _box_operator(17, _well(4.0, 1.5))
    monkeypatch.setattr(elliptic, "splu", factor)
    with pytest.raises(EigSolverFailure):
        eig_low([op], 5)


def _with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _four_blocks():
    """The four parity blocks of a small box operator even in both axes."""
    op = _box_operator(25, _centred_well(3.0, 1.0))
    return parity_blocks(op, (1, 1))


def _pool_line(messages):
    (line,) = [m for m in messages if m.startswith("eig_low pool:")]
    return line


forks_workers = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="block workers are forked on Linux only"
)


@forks_workers
def test_blocks_in_workers_match_the_in_process_blocks(monkeypatch, caplog):
    blocks = _four_blocks()
    results = {}
    for cpus in (1, 2):
        _with_cpus(monkeypatch, cpus)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kgstab"):
            results[cpus] = eig_low(blocks, 6)
        pool = _pool_line([r.getMessage() for r in caplog.records])
        assert pool == f"eig_low pool: 4 parity blocks in {cpus} workers"
    # the in-process side keeps this process's BLAS threads: not bit-equal
    np.testing.assert_allclose(results[2], results[1], rtol=1e-12, atol=0.0)
    assert np.sum(results[2] < 0.0) == np.sum(results[1] < 0.0) > 0


@forks_workers
@FAILING_FACTORS
def test_a_block_failure_in_a_worker_raises_as_in_process(factor, monkeypatch):
    blocks = _four_blocks()
    monkeypatch.setattr(elliptic, "splu", factor)  # forked workers inherit the patch
    raised = []
    for cpus in (1, 2):
        _with_cpus(monkeypatch, cpus)
        with pytest.raises(EigSolverFailure) as exc:
            eig_low(blocks, 6)
        raised.append((exc.type, str(exc.value)))
    assert raised[0] == raised[1]


def _scipy_blas_threads(op, k):
    """In place of `_eig_box`: the threads of scipy's bundled OpenBLAS,
    as the block's one eigenvalue."""
    libdir = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    (lib,) = glob.glob(os.path.join(libdir, "*openblas*"))
    handle = ctypes.CDLL(lib)
    get = getattr(handle, "scipy_openblas_get_num_threads", None) or handle.openblas_get_num_threads
    return np.array([float(get())]), 0, 1, 0, 1


@forks_workers
def test_block_workers_run_scipy_openblas_at_one_thread(monkeypatch):
    if workers.scipy_openblas_setter() is None:
        pytest.skip("scipy bundles no OpenBLAS here")
    _with_cpus(monkeypatch, 2)
    monkeypatch.setattr(spectrum, "_eig_box", _scipy_blas_threads)
    assert eig_low(_four_blocks(), 4).tolist() == [1.0] * 4


def _not_linux(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")


def _inside_a_worker(monkeypatch):
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())


def _no_blas_setter(monkeypatch):
    monkeypatch.setattr(workers, "scipy_openblas_setter", lambda: None)


@pytest.mark.parametrize(
    "blocks, patch",
    [
        pytest.param(1, lambda monkeypatch: None, id="one-block"),
        pytest.param(4, _not_linux, id="not-linux"),
        pytest.param(4, _inside_a_worker, id="inside-a-worker"),
        pytest.param(4, _no_blas_setter, id="no-blas-setter"),
    ],
)
def test_blocks_in_process_start_no_process(blocks, patch, monkeypatch, caplog):
    def fork():
        raise AssertionError("eig_low started a process")

    _with_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    patch(monkeypatch)
    ops = _four_blocks()[:blocks]
    with caplog.at_level(logging.DEBUG, logger="kgstab"):
        vals = eig_low(ops, 6)
    assert vals.size == 6
    pool = _pool_line([r.getMessage() for r in caplog.records])
    assert pool == f"eig_low pool: {blocks} parity blocks in 1 workers"


class _CountingSolves:
    """A factorization that counts its solves in `solves`."""

    def __init__(self, lu, solves):
        self.lu, self.solves = lu, solves
        self.perm_r, self.perm_c, self.U = lu.perm_r, lu.perm_c, lu.U

    def solve(self, v):
        self.solves.append(1)
        return self.lu.solve(v)


def _eigsh_to_machine_precision(a, k, which, v0):
    """scipy's eigsh at sigma = 0 and its default tol=0 on the LDL^T of a,
    and the solves it took."""
    lu = _CountingSolves(elliptic.factor_ldl(a), [])
    op_inv = LinearOperator(a.shape, matvec=lu.solve, dtype=a.dtype)
    vals = eigsh(
        a, k, sigma=0.0, which=which, v0=v0, OPinv=op_inv, tol=0, return_eigenvectors=False
    )
    return vals, len(lu.solves)


def test_lanczos_stops_at_the_ritz_value_bound(monkeypatch):
    # a deep ground state outside the shift-0 window, so the second
    # Lanczos run looks for the negatives, and a low pair 1e-6 apart
    op = _box_operator(25, lambda x, y: 0.3 - 6.0 * np.exp(-(x**2 + (1.0 + 2.5e-6) * y**2)))
    k = 5
    a = op.matrix().tocsc()
    dense = np.linalg.eigvalsh(a.toarray())
    assert dense[0] < 0.0 < dense[1] and 5e-7 < dense[2] - dense[1] < 2e-6
    # eig_low's fixed-seed start vector
    v0 = np.random.default_rng(1905).standard_normal(a.shape[0])
    near, near_solves = _eigsh_to_machine_precision(a, k, "LM", v0)
    assert np.all(near > 0.0)
    deep, deep_solves = _eigsh_to_machine_precision(a, 1, "SA", v0)
    exact = np.sort(np.concatenate([near, deep]))[:k]
    solves, factored = [], []
    factor = elliptic.factor_ldl
    monkeypatch.setattr(
        elliptic, "factor_ldl", lambda m: factored.append(1) or _CountingSolves(factor(m), solves)
    )
    vals = eig_low([op], k)
    norm = np.linalg.norm(a.toarray(), 2)
    np.testing.assert_allclose(vals, dense[:k], rtol=0.0, atol=1e-12 * norm)
    np.testing.assert_allclose(vals, exact, rtol=1e-14, atol=0.0)
    assert len(solves) < near_solves + deep_solves
    # one factorization serves both runs
    assert len(factored) == 1


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


# (operator, whether the even-even block needs the second Lanczos run)
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
        np.testing.assert_allclose(eig_low([op], 5), dense, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("case", sorted(SYMMETRIC_CASES))
def test_parity_blocks_split_the_spectrum(case, monkeypatch):
    make, second_shift = SYMMETRIC_CASES[case]
    op = make()
    k = 5
    even = elliptic.even_axes(op.grid, op.diagonal)
    assert even == (1,) * op.grid.dimension
    full = eig_low([op], k)
    dense = np.linalg.eigvalsh(op.matrix().toarray())[:k]
    blocks = parity_blocks(op, even)
    np.testing.assert_allclose(eig_low(blocks, k), full, rtol=1e-9, atol=0.0)
    factor_calls = _counting(monkeypatch, elliptic, "factor_ldl")
    eigsh_calls = _counting(monkeypatch, spectrum, "eigsh")
    assert len(blocks) == 2**op.grid.dimension
    assert sum(b.diagonal.size for b in blocks) == op.diagonal.size
    vals, calls = [], []
    for b in blocks:
        before = len(factor_calls), len(eigsh_calls)
        vals.append(eig_low([b], k))
        calls.append((len(factor_calls) - before[0], len(eigsh_calls) - before[1]))
    split = np.sort(np.concatenate(vals))[:k]
    np.testing.assert_allclose(split, full, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(split, dense, rtol=1e-9, atol=0.0)
    if op.grid.geometry == "box":
        # one factorization per block. The even-even block comes first;
        # its deep ground state lies outside the shift-0 window only in
        # the deep case, where a second run on that factorization finds it
        assert calls == [(1, 1 + second_shift)] + [(1, 1)] * (len(blocks) - 1)


@pytest.mark.parametrize("cpus", [1, 2], ids=["1cpu", "2cpus"])
@pytest.mark.parametrize(
    "matrix, folded",
    [(((0.3, 0.0), (0.0, -0.3)), [0, 1]), (((0.3, 0.1), (0.1, -0.3)), [])],
    ids=["diagonal-saddle", "coupled-saddle"],
)
def test_debug_log_names_the_folded_axes_and_the_blocks(
    matrix, folded, cpus, townes_coarse, monkeypatch, caplog
):
    # the blocks' lines come from this process in block order, also when
    # the blocks run in workers
    _with_cpus(monkeypatch, cpus)
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
    # one line per block after its solves, the same counts in a second run
    done = _eig_low_done(messages)
    assert [parity for parity, *_ in done] == [re.match(PIVOTS, m)[1] for m in pivots]
    # L has at most k negatives: one factorization per block
    assert all(f == 1 and solves > 0 and runs in (1, 2) for _, f, solves, runs in done)
    n_workers = min(cpus, len(sizes)) if sys.platform.startswith("linux") else 1
    pool = f"eig_low pool: {len(sizes)} parity blocks in {n_workers} workers"
    assert _pool_line(messages) == pool
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="kgstab"):
        _saddle_spectrum(matrix, townes_coarse)
    assert _eig_low_done([r.getMessage() for r in caplog.records]) == done


PIVOTS = r"eig_low: parity (.*), \d+ unknowns, \d+ negative pivots"
DONE = (
    r"eig_low done: parity (.*), (\d+) factorizations, (\d+) shift-invert solves, "
    r"(\d+) Lanczos runs"
)


def _eig_low_done(messages):
    """(parity, factorizations, solves, Lanczos runs) of each `eig_low done:` line."""
    found = [re.fullmatch(DONE, m) for m in messages if m.startswith("eig_low done:")]
    assert all(found)
    return [(f[1], int(f[2]), int(f[3]), int(f[4])) for f in found]


def _line_blocks(n, noise=0.0):
    """The parity blocks of an even line operator, each diagonal perturbed
    by `noise` times a fixed random vector (any tridiagonal blocks will do)."""
    blocks = parity_blocks(_line_operator(n, lambda x: 0.3 - 3.0 * np.exp(-(x**2))), (1,))
    rng = np.random.default_rng(n)
    noisy = [b.diagonal + noise * rng.standard_normal(b.diagonal.size) for b in blocks]
    return [replace(b, diagonal=d) for b, d in zip(blocks, noisy)]


def _norm_bound(blocks):
    """Gershgorin's bound on the norm of the blocks' joined matrix."""
    bands = [b.bands() for b in blocks]
    return max(np.max(np.abs(m)) + 2.0 * np.max(np.abs(o), initial=0.0) for m, o in bands)


@pytest.mark.parametrize("n", [8, 9, 10, 11, 20, 21, 40, 41])
@pytest.mark.parametrize("noise", [0.0, 0.5])
def test_joined_line_spectrum_matches_the_dense_block_diagonal(n, noise):
    blocks = _line_blocks(n, noise)
    t = block_diag(*[b.matrix().toarray() for b in blocks])
    dense = np.linalg.eigvalsh(t)
    vals = eig_low(blocks, 4)
    assert vals.size == 4
    np.testing.assert_allclose(vals, dense[:4], rtol=0.0, atol=1e-12 * np.linalg.norm(t, 2))


def test_joined_line_spectrum_is_the_per_block_merge():
    # as many values as the merge of per-block solves, at the k of a 1d
    # report (dimension + 3), and the same values to roundoff
    for n in range(8, 80):
        blocks = _line_blocks(n, 0.5)
        merged = np.sort(np.concatenate([eig_low([b], 4) for b in blocks]))[:4]
        joined = eig_low(blocks, 4)
        assert joined.size == merged.size
        np.testing.assert_allclose(joined, merged, rtol=0.0, atol=1e-12 * _norm_bound(blocks))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    sizes=st.lists(st.integers(6, 30), min_size=1, max_size=4),
    k=st.integers(1, 6),
)
def test_joined_line_spectrum_ignores_block_order(data, sizes, k):
    blocks = []
    for m in sizes:
        diagonal = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m))
        blocks.append(LinearizedOperator(Grid(1, "line", 3.0, m + 2), np.array(diagonal)))
    shuffled = data.draw(st.permutations(blocks))
    atol = 1e-12 * _norm_bound(blocks)
    np.testing.assert_allclose(eig_low(shuffled, k), eig_low(blocks, k), rtol=0.0, atol=atol)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    sizes=st.lists(st.integers(6, 30), min_size=1, max_size=4),
    k=st.integers(1, 8),
)
def test_line_eig_low_is_eigh_tridiagonal_to_the_bit(data, sizes, k):
    # the direct ?stebz call is the one eigh_tridiagonal makes on the
    # blocks' bands joined by zero couplings
    blocks = []
    for m in sizes:
        diagonal = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=m, max_size=m))
        extent = data.draw(st.floats(1.0, 40.0))
        blocks.append(LinearizedOperator(Grid(1, "line", extent, m + 2), np.array(diagonal)))
    bands = [b.bands() for b in blocks]
    main = np.concatenate([m for m, _ in bands])
    off = np.concatenate([np.append(o, 0.0) for _, o in bands])[:-1]
    top = min(k, main.size - 1)
    want = eigh_tridiagonal(main, off, select="i", select_range=(0, top - 1), eigvals_only=True)
    assert np.array_equal(eig_low(blocks, k), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_line_eig_low_rejects_a_non_finite_diagonal(bad, monkeypatch):
    # the bands are checked before LAPACK sees them, as eigh_tridiagonal's
    # check_finite did
    calls = []
    real = elliptic.flapack.dstebz
    monkeypatch.setattr(elliptic, "flapack", SimpleNamespace(dstebz=lambda *a: calls.append(a) or real(*a)))
    op = _line_operator(11, lambda x: 0.3 - 3.0 * np.exp(-(x**2)))
    op.diagonal[4] = bad
    with pytest.raises(EigSolverFailure, match="not finite"):
        eig_low(parity_blocks(op, (0,)), 3)
    assert calls == []


def test_line_eig_low_raises_where_lapack_fails(monkeypatch):
    # ?stebz's info != 0 raises and returns no eigenvalues
    real = elliptic.flapack.dstebz
    monkeypatch.setattr(elliptic, "flapack", SimpleNamespace(dstebz=lambda *a: (*real(*a)[:4], 2)))
    with pytest.raises(EigSolverFailure, match="info=2"):
        eig_low(_line_blocks(21), 3)
