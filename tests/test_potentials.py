import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgstab.errors import DegenerateHessian, ModeConflict, SchemaError
from kgstab.potentials import (
    GaussianTerm,
    PotentialSpec,
    ProblemParams,
    QuadraticTerm,
    check_assumptions,
    effective_z_at,
    eval_Z,
    find_critical_point,
    resolve_potentials,
)

finite = st.floats(-3.0, 3.0, allow_nan=False)


def fd_grad(f, x, h=1e-6):
    d = len(x)
    g = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


@given(amp=st.floats(-2.0, 2.0), width=st.floats(0.3, 3.0), x=finite, y=finite)
@settings(max_examples=50, deadline=None)
def test_gaussian_derivatives_match_finite_differences(amp, width, x, y):
    term = GaussianTerm(amp, (0.2, -0.4), width)
    spec = PotentialSpec(2, (term,))
    pt = np.array([x, y])
    val, grad, hess = spec.evaluate(pt)
    assert np.allclose(grad, fd_grad(lambda q: spec.evaluate(q)[0], pt), atol=1e-6)
    for i in range(2):
        col = fd_grad(lambda q: spec.evaluate(q)[1][i], pt)
        assert np.allclose(hess[i], col, atol=1e-5)


def test_quadratic_is_exact():
    a = ((0.4, 0.1), (0.1, -0.2))
    spec = PotentialSpec(2, (QuadraticTerm(a, (1.0, 0.0)),))
    pt = np.array([2.0, -1.0])
    val, grad, hess = spec.evaluate(pt)
    d = pt - np.array([1.0, 0.0])
    assert val == pytest.approx(0.5 * d @ np.array(a) @ d)
    assert np.allclose(grad, np.array(a) @ d)
    assert np.allclose(hess, a)


def test_quadratic_rejects_asymmetric_matrix():
    with pytest.raises(SchemaError):
        QuadraticTerm(((0.0, 1.0), (0.0, 0.0)), (0.0, 0.0))


def test_gaussian_rejects_nonpositive_width():
    with pytest.raises(SchemaError):
        GaussianTerm(1.0, (0.0,), 0.0)


def test_spec_batch_evaluation():
    spec = PotentialSpec(1, (GaussianTerm(0.5, (0.0,), 1.0),))
    xs = np.linspace(-2, 2, 7)[:, None]
    val, grad, hess = spec.evaluate(xs)
    assert val.shape == (7,)
    assert grad.shape == (7, 1)
    assert hess.shape == (7, 1, 1)
    assert np.allclose(val, 0.5 * np.exp(-xs[:, 0] ** 2))


def test_params_validation():
    with pytest.raises(SchemaError):
        ProblemParams(4, 3.0, 1.0, 0.9, 0.1)
    with pytest.raises(SchemaError):
        ProblemParams(1, 1.0, 1.0, 0.9, 0.1)
    with pytest.raises(SchemaError):
        ProblemParams(3, 5.0, 1.0, 0.9, 0.1)  # >= (d+2)/(d-2)
    with pytest.raises(SchemaError):
        ProblemParams(1, 3.0, -1.0, 0.9, 0.1)
    with pytest.raises(SchemaError):
        ProblemParams(1, 3.0, 1.0, 0.9, 0.1, mode="weird")
    # p = 5 is fine in 1d
    ProblemParams(1, 5.0, 1.0, 0.9, 0.1)


def test_mode_resolution():
    params = ProblemParams(1, 3.0, 1.0, 0.9, 0.1, mode="schrodinger")
    v = PotentialSpec(1, (GaussianTerm(0.1, (0.0,), 1.0),))
    with pytest.raises(SchemaError):
        resolve_potentials(params, v, None)
    params = ProblemParams(1, 3.0, 1.0, 0.9, 0.1, mode="covariant")
    with pytest.raises(ModeConflict):
        resolve_potentials(params, v, v)


def test_covariant_w_equals_v_squared():
    params = ProblemParams(1, 3.0, 1.0, 0.9, 0.1, mode="covariant")
    v = PotentialSpec(1, (GaussianTerm(0.3, (0.1,), 1.2),))
    pair = resolve_potentials(params, v, None)
    xs = np.linspace(-2, 2, 9)[:, None]
    vv, gv, hv = pair.V(xs)
    wv, gw, hw = pair.W(xs)
    assert np.allclose(wv, vv**2)
    assert np.allclose(gw, 2.0 * vv[:, None] * gv)
    # chain rule for the second derivative
    for k in range(9):
        exact = 2.0 * (np.outer(gv[k], gv[k]) + vv[k] * hv[k])
        assert np.allclose(hw[k], exact)


def test_eval_z_composition():
    params = ProblemParams(1, 3.0, 1.0, 0.9, 0.1)
    w = PotentialSpec(1, (GaussianTerm(0.05, (0.0,), 1.0),))
    pair = resolve_potentials(params, None, w)
    z, gz, hz = eval_Z(params, pair, np.array([0.0]))
    assert z == pytest.approx(1.0 - 0.81 - 0.05)
    assert gz[0] == pytest.approx(0.0, abs=1e-14)
    assert hz[0, 0] == pytest.approx(0.10)  # -W'' = +2*0.05


def test_find_critical_point_off_center_start():
    params = ProblemParams(1, 3.0, 1.0, 0.9, 0.1)
    w = PotentialSpec(1, (GaussianTerm(0.05, (0.3,), 1.0),))
    pair = resolve_potentials(params, None, w)
    z = find_critical_point(params, pair, (0.1,))
    assert z.x0[0] == pytest.approx(0.3, abs=1e-10)
    assert z.grad_norm < 1e-10
    assert z.hessian_negatives() == 0


def test_find_critical_point_flat_z_is_degenerate():
    params = ProblemParams(1, 3.0, 1.0, 0.9, 0.1)
    pair = resolve_potentials(params, None, None)
    with pytest.raises(DegenerateHessian):
        find_critical_point(params, pair, (0.0,))


@pytest.mark.parametrize("small, singular", [(7.5e-7, True), (2e-6, False)])
def test_search_and_assumption_check_share_the_nondegeneracy_rule(small, singular):
    # W's Hessian has eigenvalues 100 and `small` along the diagonals: its
    # largest entry is 50, and the rule's scale is the largest eigenvalue,
    # so both callers put the threshold at 1e-8 * 100
    a, b = 50.0 + small / 2.0, 50.0 - small / 2.0
    params = ProblemParams(2, 3.0, 1.0, 0.5, 0.1)
    w = PotentialSpec(2, (QuadraticTerm(((a, b), (b, a)), (0.0, 0.0)),))
    pair = resolve_potentials(params, None, w)
    report = check_assumptions(effective_z_at(params, pair, np.zeros(2)))
    assert report.hessian_nondegenerate is not singular
    if singular:
        with pytest.raises(DegenerateHessian):
            find_critical_point(params, pair, (0.0, 0.0))
    else:
        assert find_critical_point(params, pair, (0.0, 0.0)).x0 == (0.0, 0.0)


def test_check_assumptions_flags_nonpositive_z():
    # omega too large: m - omega^2 < 0 at the critical point
    params = ProblemParams(1, 3.0, 1.0, 1.2, 0.1)
    w = PotentialSpec(1, (GaussianTerm(0.05, (0.0,), 1.0),))
    pair = resolve_potentials(params, None, w)
    z = effective_z_at(params, pair, np.array([0.0]))
    rep = check_assumptions(z)
    assert not rep.positivity_ok
    assert not rep.all_ok
    assert any("not positive" in msg for msg in rep.messages)


def test_saddle_counting_in_2d():
    params = ProblemParams(2, 3.0, 1.0, 0.5, 0.1)
    w = PotentialSpec(2, (QuadraticTerm(((0.3, 0.0), (0.0, -0.3)), (0.0, 0.0)),))
    pair = resolve_potentials(params, None, w)
    z = find_critical_point(params, pair, (0.05, -0.05))
    assert z.hess_eigs == pytest.approx((-0.3, 0.3))
    assert z.hessian_negatives() == 1
    assert z.laplacian_Z == pytest.approx(0.0, abs=1e-12)


@st.composite
def potential_terms(draw, d):
    """One to three random gaussian or quadratic terms in dimension d."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        center = tuple(draw(finite) for _ in range(d))
        if draw(st.booleans()):
            terms.append(GaussianTerm(draw(st.floats(-2.0, 2.0)), center, draw(st.floats(0.3, 3.0))))
        else:
            upper = {(i, j): draw(finite) for i in range(d) for j in range(i, d)}
            rows = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(d)) for i in range(d))
            terms.append(QuadraticTerm(rows, center))
    return PotentialSpec(d, tuple(terms))


@given(data=st.data(), d=st.integers(1, 3), mode=st.sampled_from(["general", "schrodinger", "covariant"]))
@settings(max_examples=60, deadline=None)
def test_value_only_evaluation_is_bit_equal_to_the_first_of_the_three(data, d, mode):
    # the solves read Z, V and W without derivatives: the same operations
    # in the same order, so the same bits
    spec_v = None if mode == "schrodinger" else data.draw(potential_terms(d))
    spec_w = None if mode == "covariant" else data.draw(potential_terms(d))
    params = ProblemParams(d, 3.0, 1.0, data.draw(st.floats(-2.0, 2.0)), 0.1, mode=mode)
    pair = resolve_potentials(params, spec_v, spec_w)
    seed = data.draw(st.integers(0, 2**32 - 1))
    x = 3.0 * np.random.default_rng(seed).standard_normal((7, 5, d))
    for full, value in (
        (eval_Z(params, pair, x)[0], eval_Z(params, pair, x, derivatives=False)),
        (pair.V(x)[0], pair.V(x, derivatives=False)),
        (pair.W(x)[0], pair.W(x, derivatives=False)),
    ):
        assert value.shape == full.shape == (7, 5)
        assert value.tobytes() == full.tobytes()
