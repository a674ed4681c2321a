import numpy as np
import pytest
from dataclasses import replace

from kgstab.dynamics import (
    Perturbation,
    charge,
    energy,
    evolve,
    h1_norm,
    init_perturbed_standing_wave,
    orbital_distance,
    stable_dt,
)
from kgstab.elliptic import continue_profile, solve_limit_ground_state
from kgstab.errors import UnstableStep
from kgstab.grids import Grid
from kgstab.potentials import (
    GaussianTerm,
    PotentialSpec,
    ProblemParams,
    find_critical_point,
    resolve_potentials,
)
import pytest


EPS = 0.1


@pytest.fixture(scope="module")
def wave():
    # small stable setup: S1 potentials on a short line grid
    params = ProblemParams(1, 3.0, 1.0, 0.9, EPS)
    pair = resolve_potentials(
        params, None, PotentialSpec(1, (GaussianTerm(0.05, (0.0,), 1.0),))
    )
    z = find_critical_point(params, pair, (0.0,))
    g = Grid(1, "line", 50.0, 2001)
    limit = solve_limit_ground_state(z.z0, 3.0, g, method="fd")
    prof = continue_profile(limit, params, pair, z, grid=g)
    return params, pair, z, prof


def fresh_state(wave, delta=0.0, kind="radial-bump", seed=0):
    params, pair, z, prof = wave
    pert = Perturbation(kind=kind, delta=delta, seed=seed)
    return init_perturbed_standing_wave(prof, params, pair, pert)


def test_initial_distance_matches_delta(wave):
    params, pair, z, prof = wave
    norm = h1_norm(prof.grid, prof.values, EPS, 1)
    for kind in ("radial-bump", "random-smooth"):
        st = fresh_state(wave, delta=1e-3, kind=kind, seed=4)
        d0 = orbital_distance(st, prof)
        assert d0 == pytest.approx(1e-3 * norm, rel=1e-8), kind


def test_unperturbed_distance_is_zero(wave):
    params, pair, z, prof = wave
    st = fresh_state(wave)
    assert orbital_distance(st, prof) < 1e-14


def test_invariants_conserved(wave):
    params, pair, z, prof = wave
    st = fresh_state(wave, delta=1e-3, seed=2)
    dt = stable_dt(st, params, pair)
    q0, e0 = charge(st), energy(st, params, pair)
    rec = evolve(st, params, pair, dt, 400 * dt, record_every=40)
    assert rec.charge_drift < 1e-11
    assert rec.energy_drift < 1e-8  # strang keeps E to O(dt^2), no growth
    assert charge(st) == pytest.approx(q0, rel=1e-12)
    assert energy(st, params, pair) == pytest.approx(e0, rel=1e-8)


def test_phase_rotation_of_standing_wave(wave):
    # with delta = 0 the solution is e^{i omega t / eps} phi
    params, pair, z, prof = wave
    st = fresh_state(wave)
    dt = 0.5 * stable_dt(st, params, pair)
    steps = 100
    evolve(st, params, pair, dt, steps * dt, record_every=steps)
    theta = params.omega * st.t / EPS
    expected = np.exp(1j * theta) * prof.values
    err = np.max(np.abs(st.u - expected))
    assert err < 1e-5 * np.max(np.abs(prof.values))


def test_time_reversal(wave):
    params, pair, z, prof = wave
    st = fresh_state(wave, delta=1e-3, seed=9)
    u0, v0 = st.u.copy(), st.v.copy()
    dt = stable_dt(st, params, pair)
    evolve(st, params, pair, dt, 50 * dt, record_every=50)
    evolve(st, params, pair, -dt, -50 * dt, record_every=50)
    assert np.max(np.abs(st.u - u0)) < 1e-10 * np.max(np.abs(u0))
    assert np.max(np.abs(st.v - v0)) < 1e-10 * np.max(np.abs(v0))
    assert st.t == pytest.approx(0.0, abs=1e-12)


def test_fourth_order_variant_is_more_accurate(wave):
    params, pair, z, prof = wave
    dt = stable_dt(fresh_state(wave), params, pair)
    dists = {}
    for order in (2, 4):
        st = fresh_state(wave)
        rec = evolve(
            st, params, pair, dt, 200 * dt, record_every=20,
            profile=prof, order=order,
        )
        dists[order] = rec.max_distance
    assert dists[4] < 0.05 * dists[2]


def test_step_bound_enforced(wave):
    params, pair, z, prof = wave
    st = fresh_state(wave)
    dt = stable_dt(st, params, pair)
    with pytest.raises(UnstableStep):
        evolve(st, params, pair, 1.5 * dt, 10 * dt)


def test_tube_exit_detection(wave):
    params, pair, z, prof = wave
    st = fresh_state(wave, delta=1e-3, seed=5)
    norm = h1_norm(prof.grid, prof.values, EPS, 1)
    dt = stable_dt(st, params, pair)
    # radius below the initial distance: must exit on the first sample
    rec = evolve(
        st, params, pair, dt, 100 * dt, record_every=5,
        profile=prof, tube_exit=0.5e-3 * norm, delta=1e-3,
    )
    assert rec.verdict == "exited-tube"
    assert rec.exit_time is not None
    assert rec.steps < 100


def test_stayed_in_tube_verdict(wave):
    params, pair, z, prof = wave
    st = fresh_state(wave, delta=1e-4, seed=5)
    norm = h1_norm(prof.grid, prof.values, EPS, 1)
    dt = stable_dt(st, params, pair)
    rec = evolve(
        st, params, pair, dt, 100 * dt, record_every=10,
        profile=prof, tube_exit=1e-2 * norm, delta=1e-4,
    )
    assert rec.verdict == "stayed-in-tube"
    assert rec.exit_time is None
    assert not rec.blow_up and not rec.boundary_touched


def test_boundary_flag(wave):
    params, pair, z, prof = wave
    st = fresh_state(wave)
    # plant mass on the interior ring next to the wall
    st.u[1] = 0.5 * np.max(np.abs(st.u))
    dt = stable_dt(st, params, pair)
    rec = evolve(st, params, pair, dt, 20 * dt, record_every=1, profile=prof)
    assert rec.boundary_touched


def test_charge_formula(wave):
    params, pair, z, prof = wave
    st = fresh_state(wave)
    # standing wave with V = 0: Q = eps * omega * ||phi||^2
    assert charge(st) == pytest.approx(EPS * params.omega * prof.mass(), rel=1e-10)


def test_random_smooth_varies_along_every_axis_in_3d():
    # the random factor field/envelope must depend on all three axes
    from kgstab.dynamics import _perturbation_field, _rms_width
    from kgstab.elliptic import Profile

    g = Grid(3, "box", 4.0, 13)
    values = np.exp(-np.sum(g.points() ** 2, axis=-1))
    prof = Profile(g, values, 0.9, EPS, 3.0, (0.0, 0.0, 0.0), 0.0, (0.0, 0.0, 0.0))
    field = _perturbation_field(prof, Perturbation("random-smooth", 1e-3, 5))
    assert field.shape == g.shape
    s = _rms_width(prof)
    envelope = np.exp(-np.sum(g.points() ** 2, axis=-1) / (2.0 * s**2))
    factor = field / envelope
    for axis in range(3):
        spread = np.abs(np.diff(factor, axis=axis)).max()
        assert spread > 1e-3 * np.abs(factor).max(), axis
