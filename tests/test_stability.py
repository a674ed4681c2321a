import numpy as np
import pytest
from dataclasses import replace

from kgstab import grids
from kgstab.elliptic import Profile, continue_profile, solve_limit_ground_state
from kgstab.grids import Grid
from kgstab.potentials import (
    GaussianTerm,
    PotentialSpec,
    ProblemParams,
    QuadraticTerm,
    find_critical_point,
    resolve_potentials,
)
from kgstab.stability import (
    REGIME_RTOL,
    build_slope_report,
    charge_scaled,
    classify_slope,
    critical_discriminant,
    limit_norms,
    noncritical_discriminant,
    numeric_sign,
    slope_asymptotic,
    slope_numeric,
)

from conftest import richardson_slope


def test_limit_norms_closed_forms(free_limit):
    mass, ymom = limit_norms(free_limit)
    assert mass == pytest.approx(4.0, rel=1e-4)
    # ||y psi||^2 = pi^2 / (3 sqrt(c)) for the 1d cubic state
    assert ymom == pytest.approx(np.pi**2 / 3.0, rel=1e-4)


def test_charge_definition(s1, s1_profile):
    params, pair, z, grid, limit = s1
    q_sc = charge_scaled(s1_profile, params, pair)
    # V = 0 in this scenario, so the scaled charge is omega * mass
    assert q_sc == pytest.approx(params.omega * s1_profile.mass(), rel=1e-12)
    slope = build_slope_report(s1_profile, params, pair, z, limit, with_numeric=False)
    assert slope.charge == pytest.approx(params.epsilon * q_sc)


def test_charge_includes_potential_term():
    params = ProblemParams(1, 3.0, 1.0, 0.7, 0.05)
    v = PotentialSpec(1, (GaussianTerm(0.05, (0.0,), 1.0),))
    pair = resolve_potentials(params, v, None)
    z = find_critical_point(params, pair, (0.0,))
    g = Grid(1, "line", 40.0, 4001)
    limit = solve_limit_ground_state(z.z0, 3.0, g, method="fd")
    prof = continue_profile(limit, params, pair, z, grid=g)
    q_sc = charge_scaled(prof, params, pair)
    w = g.weights()
    vv, _, _ = pair.V(params.epsilon * g.points())
    direct = params.omega * prof.mass() + float(np.sum(w * vv * prof.values**2))
    assert q_sc == pytest.approx(direct, rel=1e-12)


def test_box_charge_evaluates_v_a_block_at_a_time():
    # V(center + eps y) is evaluated on blocks of interior nodes
    # (`grids.on_interior`): the charge is that of V on whole-box
    # coordinates to the bit, and its numpy peak stays under 5 full-box
    # float fields, where the whole-box coordinates and their V
    # temporaries took 9
    import tracemalloc

    params = ProblemParams(2, 3.0, 1.0, 0.5, 0.1)
    v_spec = PotentialSpec(2, (GaussianTerm(0.2, (0.3, -0.1), 1.5),))
    w_spec = PotentialSpec(2, (QuadraticTerm(((0.3, 0.0), (0.0, -0.3)), (0.0, 0.0)),))
    pair = resolve_potentials(params, v_spec, w_spec)
    grid = Grid(2, "box", 14.0, 201)
    values = grids.insert_interior(grid, grids.extract_interior(grid, np.exp(-0.5 * grid.radii() ** 2)))
    prof = Profile(grid, values, params.epsilon, params.p, (0.05, -0.02), 0.0, (0.0, 0.0))
    w = grid.weights()
    v, _, _ = pair.V(np.asarray(prof.center) + prof.epsilon * grid.points())
    direct = params.omega * prof.mass() + float(np.sum(w * v * values**2))
    field = grid.n**grid.dimension * 8
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        q_sc = charge_scaled(prof, params, pair)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert q_sc == direct
    assert peak <= 5 * field, f"peak of {peak / field:.1f} full-box fields"


def test_regime_detection():
    params = ProblemParams(1, 3.0, 1.0, 0.9, 0.05)
    pair = resolve_potentials(
        params, None, PotentialSpec(1, (GaussianTerm(0.05, (0.0,), 1.0),))
    )
    z = find_critical_point(params, pair, (0.0,))
    g = Grid(1, "line", 44.0, 2201)
    limit = solve_limit_ground_state(z.z0, 3.0, g, method="fd")
    regime, *_ = slope_asymptotic(z, params, limit)
    assert regime == "noncritical"

    # W = 0.28 gaussian at omega = 0.6 sits exactly on Z(0) = omega^2
    params = ProblemParams(1, 3.0, 1.0, 0.6, 0.05)
    pair = resolve_potentials(
        params, None, PotentialSpec(1, (GaussianTerm(0.28, (0.0,), 1.0),))
    )
    z = find_critical_point(params, pair, (0.0,))
    assert abs(z.z0 - params.omega**2) <= REGIME_RTOL * max(1.0, z.z0)
    g = Grid(1, "line", 30.0, 1501)
    limit = solve_limit_ground_state(z.z0, 3.0, g, method="fd")
    regime, *_ = slope_asymptotic(z, params, limit)
    assert regime == "critical"


def test_noncritical_coefficient_hand_value(s1):
    params, pair, z, grid, limit = s1
    regime, nd, cd, coeff, scaled = slope_asymptotic(z, params, limit)
    assert regime == "noncritical"
    # (1 + (omega+V0)^2/Z0 * (N - 4/(p-1))) * mass with Z0 = 0.14
    mass = limit_norms(limit)[0]
    hand = (1.0 + 0.81 / 0.14 * (1.0 - 2.0)) * mass
    assert coeff == pytest.approx(hand, rel=1e-12)
    assert coeff == pytest.approx(-7.1626, rel=1e-4)
    assert nd < 0.0


def _z_data(z0, v0=0.0, lap_z=0.0, lap_v=0.0):
    from kgstab.potentials import EffectiveZ

    return EffectiveZ(
        x0=(0.0,),
        z0=z0,
        grad_norm=0.0,
        hess_eigs=(lap_z,),
        laplacian_Z=lap_z,
        v0=v0,
        laplacian_V=lap_v,
    )


def test_discriminant_signs():
    # noncritical discriminant flips sign with p across 1 + 4/N
    z = _z_data(0.14)
    assert noncritical_discriminant(ProblemParams(1, 3.0, 1.0, 0.9, 0.05), z) < 0.0
    assert noncritical_discriminant(ProblemParams(1, 5.5, 1.0, 0.9, 0.05), z) > 0.0


def test_critical_discriminant_bare_form():
    # bare sign rule: ddZ - ddV (1 + beta), here with V = 0
    params = ProblemParams(1, 3.0, 1.0, 0.6, 0.05)
    val = critical_discriminant(params, _z_data(0.36, lap_z=0.56))
    assert val == pytest.approx(0.56)


def test_numeric_sign_margin():
    assert numeric_sign(-1.0, 0.05) == "negative"
    assert numeric_sign(1.0, 0.05) == "positive"
    assert numeric_sign(1.0, 0.2) == "indeterminate"  # 10x margin not met


def test_classify_slope():
    assert classify_slope(-2.0) == "negative"
    assert classify_slope(2.0) == "positive"
    assert classify_slope(-1.0) == "negative"


def test_slope_numeric_matches_asymptotic(s1, s1_profile):
    params, pair, z, grid, limit = s1
    slope, err = slope_numeric(s1_profile, params, pair)
    scaled = slope / params.epsilon
    assert scaled == pytest.approx(-7.1626, rel=0.02)
    assert err < 0.01 * abs(slope)


@pytest.mark.parametrize("omega", [0.3, 0.7, 0.95])
def test_slope_numeric_within_richardson_error(s1, omega):
    # the one-solve slope against Richardson's four re-solves, across the
    # S1 stability boundary; each must land inside the other's error bar
    params, pair, z, grid, limit = s1
    params = replace(params, omega=omega)
    z = find_critical_point(params, pair, (0.0,))
    extent = 24.0 / np.sqrt(z.z0)
    g = Grid(1, "line", extent, int(round(2.0 * extent / 0.02)) + 1)
    lim = solve_limit_ground_state(z.z0, params.p, g)
    for eps in (0.1, 0.025):
        pe = replace(params, epsilon=eps)
        prof = continue_profile(lim, pe, pair, z, grid=g)
        slope, err = slope_numeric(prof, pe, pair)
        ref, ref_err = richardson_slope(prof, pe, pair)
        assert abs(slope - ref) <= ref_err, (eps, slope, ref, ref_err)
        assert err <= 1e-10 * abs(slope)


def test_slope_report_fields(s1, s1_profile):
    params, pair, z, grid, limit = s1
    rep = build_slope_report(s1_profile, params, pair, z, limit)
    assert rep.regime == "noncritical"
    assert rep.slope_sign == "negative"
    assert rep.predicted_sign == "negative"
    assert rep.epsilon == params.epsilon
    assert rep.charge == pytest.approx(params.epsilon * rep.charge_scaled)
    assert rep.slope_scaled == pytest.approx(rep.asymptotic_slope_scaled, rel=0.05)


def test_slope_positive_on_unstable_branch(s1):
    params, pair, z, grid, limit = s1
    params2 = replace(params, omega=0.3)
    z2 = find_critical_point(params2, pair, (0.0,))
    limit2 = solve_limit_ground_state(z2.z0, 3.0, grid, method="fd")
    prof2 = continue_profile(limit2, params2, pair, z2, grid=grid)
    rep = build_slope_report(prof2, params2, pair, z2, limit2)
    assert rep.slope_sign == "positive"
    assert rep.predicted_sign == "positive"


def test_report_without_numeric(s1, s1_profile):
    params, pair, z, grid, limit = s1
    rep = build_slope_report(s1_profile, params, pair, z, limit, with_numeric=False)
    assert rep.slope_numeric is None
    assert rep.slope_sign == "indeterminate"
    assert rep.predicted_sign == "negative"
