"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `criterion NN: PASS ...` line with the
measured numbers (visible with -s or in captured output); the assert
carries the same detail so a failure is self-describing.  Parameters
(grids, epsilon ladders) are the smallest that meet the stated
tolerances with margin; see the test bodies for the measured values
they were frozen against.
"""

import time

import numpy as np
import pytest
from dataclasses import replace

from kgstab.dynamics import (
    Perturbation,
    evolve,
    h1_norm,
    init_perturbed_standing_wave,
)
from kgstab.elliptic import (
    compute_R_omega,
    continue_profile,
    solve_limit_ground_state,
)
from kgstab.grids import Grid
from kgstab.potentials import (
    GaussianTerm,
    PotentialSpec,
    ProblemParams,
    QuadraticTerm,
    effective_z_at,
    find_critical_point,
    resolve_potentials,
)
from kgstab.spectrum import build_spectrum_report
from kgstab.stability import slope_asymptotic, slope_numeric

from conftest import compute_T_lambda, sech_exact


def announce(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS  {detail}")


def gaussian_w(amp: float) -> PotentialSpec:
    return PotentialSpec(1, (GaussianTerm(amp, (0.0,), 1.0),))


@pytest.fixture(scope="module")
def s1_ladder(s1):
    """S1 profiles and spectra on the epsilon ladder 0.1 / 0.05 / 0.025."""
    params, pair, z, grid, limit = s1
    out = {}
    for eps in (0.1, 0.05, 0.025):
        pe = replace(params, epsilon=eps)
        prof = continue_profile(limit, pe, pair, z, grid=grid)
        out[eps] = (pe, prof, build_spectrum_report(prof, pe, pair, z, limit))
    return out


def test_criterion_01_ground_state_oracle():
    t0 = time.perf_counter()
    g = Grid(1, "line", 15.0, 3001)  # h = 0.01
    prof = solve_limit_ground_state(1.0, 3.0, g)
    runtime = time.perf_counter() - t0
    err = np.abs(prof.values - sech_exact(1.0, g.axis))
    bulk = np.abs(g.axis) <= 10.0
    bulk_err = float(err[bulk].max())
    # Dirichlet truncation forces an e^{-(2L-|y|)} boundary layer on any
    # L = 15 grid (the oracle itself is 8.7e-7 at the wall); the solver
    # is held to 1e-8 wherever that layer is below 1e-8, and to the
    # layer envelope beyond.
    envelope_ok = bool(
        np.all(err <= 1e-8 + 3.0 * np.exp(-(2.0 * g.extent - np.abs(g.axis))))
    )
    detail = f"bulk err {bulk_err:.2e} (<=1e-8), envelope ok, {runtime:.2f}s (<1s)"
    assert bulk_err <= 1e-8 and envelope_ok and runtime < 1.0, detail
    announce(1, detail)


def test_criterion_02_scaling_identity():
    cases = [
        (1, 3.0, "line", 15.0, 12001),
        (1, 2.0, "line", 20.0, 8001),
        (2, 3.0, "radial", 18.0, 9001),
    ]
    worst = 0.0
    for dim, p, geom, extent, n in cases:
        g = Grid(dim, geom, extent, n)
        prof = solve_limit_ground_state(1.0, p, g, method="fd")
        lhs = 2.0 * float(np.sum(g.weights() * prof.values * compute_T_lambda(prof)))
        mass = prof.mass()
        rhs = (dim / 2.0 - 2.0 / (p - 1.0)) * mass
        rel = abs(lhs - rhs) / max(mass, abs(rhs))
        assert rel <= 1e-6, f"(N={dim}, p={p}): rel {rel:.2e} > 1e-6"
        worst = max(worst, rel)
    announce(2, f"worst rel err {worst:.2e} (<=1e-6) over (1,3),(1,2),(2,3)")


def test_criterion_03_operator_identity(s1, s1_ladder):
    params, pair, z, grid, limit = s1
    worst = 0.0
    for eps in (0.1, 0.05, 0.025):
        pe, prof, _ = s1_ladder[eps]
        _, info = compute_R_omega(prof, pe, pair)
        rel = info["identity_residual"] / float(
            np.sqrt(np.sum(grid.weights() * prof.values**2))
        )
        assert rel <= 1e-6, f"eps={eps}: identity residual {rel:.2e} > 1e-6"
        worst = max(worst, rel)
    announce(3, f"worst identity residual {worst:.2e} (<=1e-6) at eps 0.1/0.05/0.025")


def test_criterion_04_noncritical_slope_law(s1, s1_ladder):
    params, pair, z, grid, limit = s1
    _, _, _, coeff, _ = slope_asymptotic(z, params, limit)
    assert coeff == pytest.approx(-7.163, rel=1e-3)
    rels = {}
    for eps in (0.1, 0.05, 0.025):
        pe, prof, _ = s1_ladder[eps]
        t0 = time.perf_counter()
        slope, err = slope_numeric(prof, pe, pair)
        runtime = time.perf_counter() - t0
        assert runtime < 10.0, f"eps={eps}: slope took {runtime:.1f}s"
        rels[eps] = abs(slope / eps / coeff - 1.0)
        if eps <= 0.05:
            assert slope < 0.0, f"eps={eps}: slope sign flipped"
    assert rels[0.025] <= 0.10, f"eps=0.025 off by {rels[0.025]:.1%} > 10%"
    announce(
        4,
        f"coeff {coeff:.4f}; rel err at eps=0.025 {rels[0.025]:.2%} (<=10%), "
        f"sign negative for eps<=0.05",
    )


def test_criterion_05_exact_slope_oracle():
    worst = 0.0
    for om in (0.3, 0.9):
        params = ProblemParams(1, 3.0, 1.0, om, 0.05)
        pair = resolve_potentials(params, None, None)
        z = effective_z_at(params, pair, np.array([0.0]))
        c = 1.0 - om**2
        extent = 30.0 / np.sqrt(c)
        g = Grid(1, "line", extent, int(round(2 * extent / 0.01)) + 1)
        limit = solve_limit_ground_state(c, 3.0, g, method="fd")
        prof = continue_profile(limit, params, pair, z, grid=g)
        slope, _ = slope_numeric(prof, params, pair)
        oracle = 4.0 * params.epsilon * (np.sqrt(c) - om**2 / np.sqrt(c))
        rel = abs(slope / oracle - 1.0)
        assert rel <= 1e-3, f"omega={om}: rel {rel:.2e} > 0.1%"
        worst = max(worst, rel)
    announce(5, f"worst rel err {worst:.2e} (<=1e-3) at omega 0.3/0.9")


def test_criterion_06_supercritical_slope_positive():
    spec_v = PotentialSpec(1, (GaussianTerm(0.02, (0.0,), 1.0),))
    spec_w = PotentialSpec(1, (GaussianTerm(0.03, (0.0,), 1.0),))
    slopes = {}
    for p in (4.5, 5.0, 5.5):
        params = ProblemParams(1, p, 1.0, 0.5, 0.05)
        pair = resolve_potentials(params, spec_v, spec_w)
        z = find_critical_point(params, pair, (0.0,))
        g = Grid(1, "line", 40.0, 4001)
        limit = solve_limit_ground_state(z.z0, p, g, method="fd")
        prof = continue_profile(limit, params, pair, z, grid=g)
        slope, err = slope_numeric(prof, params, pair)
        assert slope > 10.0 * err > 0.0, f"p={p}: slope {slope:.3e} not positive"
        slopes[p] = slope
    announce(6, "slopes " + ", ".join(f"{v:.4f}" for v in slopes.values()) + " all > 0")


def test_criterion_07_critical_case_decay():
    params = ProblemParams(1, 3.0, 1.0, 0.6, 0.025)
    pair = resolve_potentials(params, None, gaussian_w(0.28))
    z = find_critical_point(params, pair, (0.0,))
    assert z.z0 == pytest.approx(params.omega**2, abs=1e-12)  # exact criticality
    g = Grid(1, "line", 48.0, 24001)  # h = 0.004 keeps h^2/eps^2 pollution small
    limit = solve_limit_ground_state(z.z0, 3.0, g, method="fd")
    regime, nd, bare_disc, coeff, _ = slope_asymptotic(z, params, limit)
    assert regime == "critical"

    slopes = {}
    for eps in (0.025, 0.0125):
        pe = replace(params, epsilon=eps)
        prof = continue_profile(limit, pe, pair, z, grid=g)
        slopes[eps], _ = slope_numeric(prof, pe, pair)

    ratio = (slopes[0.025] / 0.025) / (slopes[0.0125] / 0.0125)
    rel = abs(slopes[0.025] / 0.025**3 / coeff - 1.0)
    observed = "negative" if slopes[0.025] < 0 else "positive"
    prefactor_sign = "negative" if coeff < 0 else "positive"
    bare_sign = "negative" if bare_disc < 0 else "positive"
    assert 3.5 <= ratio <= 4.5, f"halving ratio {ratio:.3f} outside [3.5, 4.5]"
    assert rel <= 0.20, f"eps^-3 slope off prefactor coeff by {rel:.1%} > 20%"
    # record the observed sign against both readings of the sign rule
    assert observed == prefactor_sign
    announce(
        7,
        f"halving ratio {ratio:.3f} in [3.5,4.5]; eps^-3 slope {slopes[0.025]/0.025**3:.3f} "
        f"vs coeff {coeff:.3f} ({rel:.1%} <= 20%); observed sign {observed} = "
        f"full-prefactor reading, {'=' if observed == bare_sign else '!='} bare-discriminant "
        f"reading ({bare_sign})",
    )


@pytest.fixture(scope="module")
def townes_limit():
    # radial limit state for the 2d runs; z0 = 0.75 in both quadratic scenarios
    return solve_limit_ground_state(0.75, 3.0, Grid(2, "radial", 32.0, 3201))


def run_2d_spectrum(a11, a22, townes, eps=0.05):
    params = ProblemParams(2, 3.0, 1.0, 0.5, eps)
    w = PotentialSpec(2, (QuadraticTerm(((a11, 0.0), (0.0, a22)), (0.0, 0.0)),))
    pair = resolve_potentials(params, None, w)
    z = find_critical_point(params, pair, (0.0, 0.0))
    prof = continue_profile(townes, params, pair, z, grid=Grid(2, "box", 15.0, 481))
    return z, build_spectrum_report(prof, params, pair, z, townes)


def test_criterion_08_eigenvalue_count(s1, s1_ladder, townes_limit):
    params, pair, z, grid, limit = s1
    # Z-minimum (1d): one negative direction
    rep_min = s1_ladder[0.05][2]
    assert (rep_min.n_negative, rep_min.hessian_negatives) == (1, 0)
    # Z-maximum (1d): W flips sign
    params4 = replace(params, epsilon=0.05)
    pair4 = resolve_potentials(params4, None, gaussian_w(-0.05))
    z4 = find_critical_point(params4, pair4, (0.0,))
    limit4 = solve_limit_ground_state(z4.z0, 3.0, grid, method="fd")
    prof4 = continue_profile(limit4, params4, pair4, z4, grid=grid)
    rep_max = build_spectrum_report(prof4, params4, pair4, z4, limit4)
    assert (rep_max.n_negative, rep_max.hessian_negatives) == (2, 1)
    # 2d saddle
    z_s, rep_saddle = run_2d_spectrum(0.3, -0.3, townes_limit)
    assert (rep_saddle.n_negative, rep_saddle.hessian_negatives) == (2, 1)
    assert rep_min.count_consistent and rep_max.count_consistent and rep_saddle.count_consistent
    announce(
        8,
        "n(L) = n(hess Z) + 1: minimum 1=0+1, maximum 2=1+1, 2d saddle 2=1+1 at eps=0.05",
    )


def test_criterion_09_eigenvalue_shifts(s1_ladder, townes_limit):
    rels = {}
    for eps in (0.1, 0.05, 0.025):
        rep = s1_ladder[eps][2]
        lam1 = rep.eigenvalues[1] / eps**2
        rels[eps] = abs(lam1 / rep.predicted_shifts[0] - 1.0)
    c1 = s1_ladder[0.025][2].predicted_shifts[0]
    assert c1 == pytest.approx(15.0 / 14.0, rel=1e-3)
    assert rels[0.025] <= 0.10, f"shift err {rels[0.025]:.1%} > 10% at eps=0.025"
    assert rels[0.1] > rels[0.05] > rels[0.025], f"no monotone improvement: {rels}"
    # 2d isotropic minimum: the two shifted modes must stay degenerate
    _, rep_iso = run_2d_spectrum(-0.3, -0.3, townes_limit)
    lam1, lam2 = rep_iso.eigenvalues[1], rep_iso.eigenvalues[2]
    split = abs(lam1 / lam2 - 1.0)
    assert split <= 0.05, f"isotropic split {split:.2%} > 5%"
    announce(
        9,
        f"lam1/eps^2 err {rels[0.1]:.1%} -> {rels[0.05]:.1%} -> {rels[0.025]:.1%} "
        f"(<=10% at 0.025, monotone); 2d isotropic split {split:.2e} (<=5%)",
    )


def test_criterion_10_dynamics_consistency(s1):
    params, pair, z, grid, limit = s1
    pe = replace(params, epsilon=0.1)
    g = Grid(1, "line", 70.0, 4096)
    limit_g = solve_limit_ground_state(z.z0, 3.0, g, method="fd")
    prof = continue_profile(limit_g, pe, pair, z, grid=g)
    state = init_perturbed_standing_wave(prof, pe, pair, Perturbation("none", 0.0, 0))
    dt = 0.2 * pe.epsilon * g.h
    steps = 10_000
    t0 = time.perf_counter()
    rec = evolve(
        state, pe, pair, dt, steps * dt, record_every=100, profile=prof, order=4
    )
    runtime = time.perf_counter() - t0
    norm = h1_norm(g, prof.values, pe.epsilon)
    T_over_eps = steps * dt / pe.epsilon
    assert T_over_eps >= 50.0
    dist_rel = rec.max_distance / norm
    detail = (
        f"distance {dist_rel:.2e} (<=1e-6) over T={T_over_eps:.0f} eps; "
        f"E drift {rec.energy_drift:.1e}, Q drift {rec.charge_drift:.1e} (<=1e-6) "
        f"over {steps} steps; {runtime:.1f}s (<60s, n=4096)"
    )
    assert rec.steps == steps and not rec.boundary_touched
    assert dist_rel <= 1e-6, detail
    assert rec.energy_drift <= 1e-6 and rec.charge_drift <= 1e-6, detail
    assert runtime < 60.0, detail
    announce(10, detail)


def test_criterion_11_stability_dichotomy(s1):
    params, pair, z, grid, limit = s1
    delta = 1e-3

    # stable side: S1 stays inside the 10 delta tube for T = 100 eps
    pe = replace(params, epsilon=0.1)
    g = Grid(1, "line", 130.0, 5201)
    lim = solve_limit_ground_state(z.z0, 3.0, g, method="fd")
    prof = continue_profile(lim, pe, pair, z, grid=g)
    norm = h1_norm(g, prof.values, pe.epsilon)
    state = init_perturbed_standing_wave(
        prof, pe, pair, Perturbation("radial-bump", delta, 11)
    )
    dt = 0.2 * pe.epsilon * g.h
    t0 = time.perf_counter()
    rec_stay = evolve(
        state, pe, pair, dt, 100.0 * pe.epsilon, record_every=50,
        profile=prof, tube_exit=10.0 * delta * norm,
    )
    t_stay = time.perf_counter() - t0
    assert rec_stay.verdict == "stayed-in-tube", rec_stay.verdict
    assert t_stay < 300.0

    # unstable side: omega = 0.3 exits the 100 delta tube before T = 200 eps
    pu = replace(params, omega=0.3, epsilon=0.1)
    zu = find_critical_point(pu, pair, (0.0,))
    gu = Grid(1, "line", 100.0, 4001)
    limu = solve_limit_ground_state(zu.z0, 3.0, gu, method="fd")
    profu = continue_profile(limu, pu, pair, zu, grid=gu)
    normu = h1_norm(gu, profu.values, pu.epsilon)
    stateu = init_perturbed_standing_wave(
        profu, pu, pair, Perturbation("radial-bump", delta, 11)
    )
    dtu = 0.2 * pu.epsilon * gu.h
    t0 = time.perf_counter()
    rec_exit = evolve(
        stateu, pu, pair, dtu, 200.0 * pu.epsilon, record_every=50,
        profile=profu, tube_exit=100.0 * delta * normu,
    )
    t_exit = time.perf_counter() - t0
    assert rec_exit.verdict == "exited-tube", rec_exit.verdict
    assert rec_exit.exit_time is not None and rec_exit.exit_time < 200.0 * pu.epsilon
    assert t_exit < 300.0
    announce(
        11,
        f"stable run max distance {rec_stay.max_distance / (delta * norm):.2f} delta "
        f"(<10) over T=100 eps ({t_stay:.0f}s); unstable run exited at "
        f"t/eps={rec_exit.exit_time / pu.epsilon:.1f} (<200) ({t_exit:.0f}s)",
    )
