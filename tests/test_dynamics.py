import json

import numpy as np
import pytest
from dataclasses import replace

from kgstab import grids
from kgstab.cli import DynamicsOptions, _dynamics_summary
from kgstab.io import write_report
from kgstab.dynamics import (
    BLOWUP_FACTOR,
    BOUNDARY_FLAG_REL,
    _YOSHIDA_W1,
    FieldState,
    Perturbation,
    TrajectoryRecord,
    _boundary_ring,
    charge,
    energy,
    evolve,
    h1_norm,
    init_perturbed_standing_wave,
    orbital_distance,
    stable_dt,
)
from kgstab.elliptic import Profile, continue_profile, solve_limit_ground_state
from kgstab.errors import UnstableStep
from kgstab.grids import Grid
from kgstab.potentials import (
    GaussianTerm,
    PotentialPair,
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
    vw = (pair.V(st.x_points())[0], pair.W(st.x_points())[0])
    q0, e0 = charge(st), energy(st, params, *vw)
    rec = evolve(st, params, pair, dt, 400 * dt, record_every=40)
    assert rec.charge_drift < 1e-11
    assert rec.energy_drift < 1e-8  # strang keeps E to O(dt^2), no growth
    assert charge(st) == pytest.approx(q0, rel=1e-12)
    assert energy(st, params, *vw) == pytest.approx(e0, rel=1e-8)


def test_evolve_evaluates_the_potentials_once(wave, monkeypatch):
    # the step bound and the per-sample energy reuse evolve's V and W:
    # one evaluation each, however many samples are recorded
    params, pair, z, prof = wave
    st = fresh_state(wave, delta=1e-3, seed=2)
    dt = stable_dt(st, params, pair)
    calls = []
    for name in ("V", "W"):
        real = getattr(PotentialPair, name)
        monkeypatch.setattr(
            PotentialPair,
            name,
            lambda self, x, name=name, real=real: calls.append(name) or real(self, x),
        )
    rec = evolve(st, params, pair, dt, 40 * dt, record_every=4)
    assert len(rec.times) == 11
    assert sorted(calls) == ["V", "W"]


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
        profile=prof, tube_exit=0.5e-3 * norm,
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
        profile=prof, tube_exit=1e-2 * norm,
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
    prof = Profile(g, values, EPS, 3.0, (0.0, 0.0, 0.0), 0.0, (0.0, 0.0, 0.0))
    field = _perturbation_field(prof, Perturbation("random-smooth", 1e-3, 5))
    assert field.shape == g.shape
    s = _rms_width(prof)
    envelope = np.exp(-np.sum(g.points() ** 2, axis=-1) / (2.0 * s**2))
    factor = field / envelope
    for axis in range(3):
        spread = np.abs(np.diff(factor, axis=axis)).max()
        assert spread > 1e-3 * np.abs(factor).max(), axis


# ---------------------------------------------------------------------------
# the merged-kick kernel against the plain Strang / triple-jump kernel

def reference_evolve(
    state, params, pair, dt, T, record_every=10, profile=None,
    tube_exit=None, order=2,
):
    """The unmerged kernel: every step is kick/rotate/kick with the
    rotation coefficients recomputed per substep and a CSR Laplacian."""
    g = state.grid
    if abs(dt) > stable_dt(state, params, pair) * (1.0 + 1e-12):
        raise UnstableStep("dt above the splitting bound")
    n_steps = int(round(T / dt))
    A = grids.neg_laplacian(g)
    w_int = grids.extract_interior(g, g.weights())
    x = state.x_points()
    vv, _, _ = pair.V(x)
    ww, _, _ = pair.W(x)
    v_int = grids.extract_interior(g, vv)
    kappa = grids.extract_interior(g, params.m - ww + vv**2)
    ring = _boundary_ring(tuple(np.array(g.shape) - 2))
    u = grids.extract_interior(g, state.u).astype(complex)
    v = grids.extract_interior(g, state.v).astype(complex)
    eps = state.epsilon
    p = params.p
    sq = np.sqrt(np.abs(kappa))
    pos = kappa > 0.0
    zer = kappa == 0.0

    def kick(tau):
        nonlocal v
        v += tau * (-(A @ u) + np.abs(u) ** (p - 1.0) * u)

    def rotate(tau):
        nonlocal u, v
        c = np.where(pos, np.cos(sq * tau), np.cosh(sq * tau))
        s_over = np.where(
            pos,
            np.divide(np.sin(sq * tau), sq, out=np.full_like(sq, tau), where=~zer),
            np.divide(np.sinh(sq * tau), sq, out=np.full_like(sq, tau), where=~zer),
        )
        ks = np.where(pos, sq * np.sin(sq * tau), -sq * np.sinh(sq * tau))
        gauge = np.exp(-1j * v_int * tau)
        u, v = gauge * (c * u + s_over * v), gauge * (-ks * u + c * v)

    def strang(step):
        tau = step / eps
        kick(0.5 * tau)
        rotate(tau)
        kick(0.5 * tau)

    def advance(step):
        if order == 2:
            strang(step)
        else:
            strang(_YOSHIDA_W1 * step)
            strang((1.0 - 2.0 * _YOSHIDA_W1) * step)
            strang(_YOSHIDA_W1 * step)

    def write_back():
        state.u = grids.insert_interior(g, u)
        state.v = grids.insert_interior(g, v)

    epsn = eps**g.dimension
    peak0 = float(np.max(np.abs(u)))
    l2_0 = float(epsn * np.sum(w_int * np.abs(u) ** 2))
    times, e_ser, q_ser, d_ser, r_ser = [], [], [], [], []

    def sample():
        write_back()
        times.append(state.t)
        e_ser.append(energy(state, params, vv, ww))
        q_ser.append(charge(state))
        r_ser.append(
            float(np.sqrt(epsn * np.sum(w_int * np.abs(v - 1j * (state.omega + v_int) * u) ** 2)))
        )
        d = orbital_distance(state, profile) if profile is not None else 0.0
        d_ser.append(d)
        return d

    verdict, exit_time, blow_up, boundary_touched = "stayed-in-tube", None, False, False
    max_d = sample()
    step_count = 0
    for i in range(n_steps):
        advance(dt)
        state.t += dt
        step_count += 1
        if not ((i + 1) % record_every == 0 or i == n_steps - 1):
            continue
        d = sample()
        max_d = max(max_d, d)
        l2 = epsn * np.sum(w_int * np.abs(u) ** 2)
        if l2 > BLOWUP_FACTOR**2 * l2_0:
            blow_up, verdict, exit_time = True, "exited-tube", state.t
            break
        if tube_exit is not None and d > tube_exit:
            verdict, exit_time = "exited-tube", state.t
            break
        if float(np.max(np.abs(u[ring]))) > BOUNDARY_FLAG_REL * peak0:
            boundary_touched = True
            break
    write_back()
    e_arr, q_arr = np.asarray(e_ser), np.asarray(q_ser)
    return TrajectoryRecord(
        times=np.asarray(times), energy=e_arr, charge=q_arr,
        distance=np.asarray(d_ser), v_residual=np.asarray(r_ser), dt=dt,
        steps=step_count, verdict=verdict,
        exit_time=exit_time, max_distance=max_d, blow_up=blow_up,
        boundary_touched=boundary_touched,
        energy_drift=float(np.max(np.abs(e_arr - e_arr[0])) / abs(e_arr[0])),
        charge_drift=float(np.max(np.abs(q_arr - q_arr[0])) / abs(q_arr[0])),
    )


class SignedKappaPair:
    """V = 0.5 + 0.3 x0 - 0.1 (x1 + ...) and W = m + V^2 - 0.8 x0, so that
    kappa = m - W + V^2 = 0.8 x0 changes sign across x0 = 0 and is
    exactly 0 at the line grid's node x = 0 (V = 0.5, W = m + 0.25, all
    exact in binary)."""

    def __init__(self, m):
        self.m = m

    def V(self, x):
        return 0.5 + 0.3 * x[..., 0] - 0.1 * np.sum(x[..., 1:], axis=-1), None, None

    def W(self, x):
        v = self.V(x)[0]
        return self.m + v**2 - 0.8 * x[..., 0], None, None


def signed_kappa_setup(grid, eps=0.1, p=3.0):
    params = ProblemParams(grid.dimension, p, 1.0, 0.6, eps)
    pair = SignedKappaPair(params.m)
    y = grid.points()
    r2 = np.sum(y**2, axis=-1)
    phi = 0.9 * np.exp(-r2)
    # small enough that the focusing term does not blow the run up
    u0 = 0.3 * np.exp(-r2) * (1.0 + 0.2j * y[..., 0]) * (1.0 + 0.1 * np.cos(2.0 * r2))
    mask = np.ones(grid.shape, dtype=bool)
    mask[grid.interior()] = False
    u0[mask] = 0.0
    vv = pair.V(y * eps)[0]
    v0 = 1j * (params.omega + vv) * u0 + 0.05 * u0
    prof = Profile(grid, phi, eps, params.p, (0.0,) * grid.dimension, 0.0,
                   (0.0,) * grid.dimension)

    def state():
        return FieldState(grid, (0.0,) * grid.dimension, eps, params.omega, u0.copy(), v0.copy())

    return params, pair, prof, state


def rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


def assert_same_run(rec, ref, st, st_ref, tol=1e-12):
    assert rec.steps == ref.steps
    assert rec.verdict == ref.verdict
    assert rec.exit_time == ref.exit_time
    assert (rec.blow_up, rec.boundary_touched) == (ref.blow_up, ref.boundary_touched)
    assert np.array_equal(rec.times, ref.times)
    assert st.t == st_ref.t
    for name in ("energy", "charge", "distance", "v_residual"):
        assert rel(getattr(rec, name), getattr(ref, name)) < tol, name
    assert rel(st.u, st_ref.u) < tol
    assert rel(st.v, st_ref.v) < tol


LINE = Grid(1, "line", 16.0, 129)  # h = 0.25: the node x = 0 is exact
BOX = Grid(2, "box", 8.0, 33)
BOX3 = Grid(3, "box", 4.0, 13)


def test_signed_kappa_setup_reaches_every_rotation_branch():
    params, pair, prof, state = signed_kappa_setup(LINE)
    x = state().x_points()
    kappa = grids.extract_interior(LINE, params.m - pair.W(x)[0] + pair.V(x)[0] ** 2)
    assert np.count_nonzero(kappa == 0.0) == 1
    assert np.any(kappa > 0.0) and np.any(kappa < 0.0)
    assert np.all(grids.extract_interior(LINE, pair.V(x)[0]) != 0.0)


# n_steps stays short of the 2d box run's boundary flag; 7 divides none of
# them.  The 3d box's walls are near enough that its one sample after the
# start, the last, trips the flag.  p = 2.5 takes the kick's power path.
@pytest.mark.parametrize(
    "grid, n_steps, p",
    [(g, n, p) for p in (3.0, 2.5) for g, n in ((LINE, 40), (BOX, 17), (BOX3, 6))],
    ids=["line", "box2d", "box3d", "line-p2.5", "box2d-p2.5", "box3d-p2.5"],
)
@pytest.mark.parametrize("order", [2, 4])
def test_merged_kernel_matches_unmerged_reference(grid, n_steps, p, order):
    params, pair, prof, state = signed_kappa_setup(grid, p=p)
    st, st_ref = state(), state()
    dt = 0.9 * stable_dt(st, params, pair)
    kw = dict(record_every=7, profile=prof, order=order)
    rec = evolve(st, params, pair, dt, n_steps * dt, **kw)
    ref = reference_evolve(st_ref, params, pair, dt, n_steps * dt, **kw)
    assert ref.steps == n_steps and len(ref.times) == 1 + n_steps // 7 + 1
    assert_same_run(rec, ref, st, st_ref)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("stop", ["tube-exit", "boundary"])
def test_early_stop_matches_unmerged_reference(order, stop):
    params, pair, prof, state = signed_kappa_setup(LINE)
    dt = 0.9 * stable_dt(state(), params, pair)
    n_steps, every = 60, 4
    kw = dict(record_every=every, profile=prof, order=order)
    if stop == "tube-exit":
        # a radius that the distance first crosses at a middle sample
        d = reference_evolve(state(), params, pair, dt, n_steps * dt, **kw).distance
        j = next(j for j in range(4, len(d)) if d[j] > max(d[:j]) * (1.0 + 1e-6))
        kw["tube_exit"] = 0.5 * (max(d[:j]) + d[j])
        make = state
    else:
        def make():
            # mass planted next to the wall trips the boundary flag
            st = state()
            st.u[1] = 0.9
            return st
    st, st_ref = make(), make()
    rec = evolve(st, params, pair, dt, n_steps * dt, **kw)
    ref = reference_evolve(st_ref, params, pair, dt, n_steps * dt, **kw)
    assert 0 < ref.steps < n_steps
    if stop == "tube-exit":
        assert ref.verdict == "exited-tube" and ref.exit_time is not None
    else:
        assert ref.boundary_touched
    assert_same_run(rec, ref, st, st_ref)


@pytest.mark.parametrize("every", [200, 400])
def test_non_finite_sample_is_blow_up(every):
    # at twice the setup's amplitude the field overflows between two samples
    params, pair, prof, state = signed_kappa_setup(LINE)
    st = state()
    st.u *= 2.0
    st.v *= 2.0
    dt = 0.9 * stable_dt(st, params, pair)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = evolve(st, params, pair, dt, 2000 * dt, record_every=every, profile=prof)
    assert not np.all(np.isfinite(st.u))
    assert rec.blow_up and rec.verdict == "exited-tube"
    assert rec.exit_time == rec.times[-1] == st.t
    assert rec.steps < 2000


@pytest.mark.parametrize("every", [200, 400])
def test_blown_up_run_writes_strict_json_outside_the_stable_band(every, tmp_path):
    params, pair, prof, state = signed_kappa_setup(LINE)
    st = state()
    st.u *= 2.0
    st.v *= 2.0
    dt = 0.9 * stable_dt(st, params, pair)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = evolve(st, params, pair, dt, 2000 * dt, record_every=every, profile=prof)
    phi_h1 = h1_norm(LINE, prof.values, params.epsilon, 1)
    entry = _dynamics_summary(rec, DynamicsOptions(delta=1e-3), LINE, phi_h1)
    write_report({"dynamics": entry}, tmp_path / "report.json")

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    with open(tmp_path / "report.json") as f:
        got = json.load(f, parse_constant=reject)["dynamics"]
    assert got["blow_up"] is True
    assert got["within_stable_band"] is False
    # the last sample's NaN distance and drifts are written as null
    assert got["max_distance"] is None and got["energy_drift"] is None


@pytest.mark.parametrize("noise", [1e-13, 1e-11, 1e-9])
def test_orbital_distance_resolves_below_the_closed_form_floor(noise):
    params, pair, prof, state = signed_kappa_setup(LINE)
    field = np.random.default_rng(11).standard_normal(LINE.shape)
    field[[0, -1]] = 0.0
    phi_h1 = h1_norm(LINE, prof.values, params.epsilon, 1)
    pert = noise * phi_h1 / h1_norm(LINE, field, params.epsilon, 1) * field
    st = state()
    st.u = np.exp(0.7j) * (prof.values + pert)
    # real noise keeps the optimal phase at 0.7, so the distance is its norm
    assert orbital_distance(st, prof) == pytest.approx(noise * phi_h1, rel=0.01)


def test_evolve_builds_no_sparse_laplacian(monkeypatch):
    params, pair, prof, state = signed_kappa_setup(BOX)
    st = state()

    def forbidden(grid):
        raise AssertionError("evolve built a sparse Laplacian")

    monkeypatch.setattr(grids, "neg_laplacian", forbidden)
    dt = stable_dt(st, params, pair)
    assert evolve(st, params, pair, dt, 3 * dt, order=4).steps == 3
