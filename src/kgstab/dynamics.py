"""Time evolution of the first-order field system and tube diagnostics.

Working variables are (u, v) with v = eps u_t + i V u, evolved in the
blown-up frame x = x0 + eps y where the equations lose their explicit
stiffness:

    eps u_t = v - i V u,
    eps v_t = lap_y u - (m - W) u - V^2 u - i V v + |u|^(p-1) u.

The integrator is a Strang splitting of two exactly solvable pieces: a
kick v += (dt/eps) (lap_y u + |u|^(p-1) u) with u frozen, and a per-node
rotation for the local part (m, V, W), solved in closed form through the
gauge factor e^(-iVt/eps).  Both pieces conserve the discrete charge
Im sum w conj(u) v exactly, so charge drift is roundoff; energy is
conserved to O(dt^2) with no secular growth (symmetric splitting).  A
triple-jump composition of Strang steps is available when fourth-order
accuracy is worth three times the work.

The rotation coefficients depend only on the substep length, so they
are tabulated once per distinct length before the march (one table for
Strang, two for the triple jump); a rotation is then four complex
multiplies and two adds per node, written in place into work arrays
allocated once before the march, so a substep allocates nothing.
Between two sample points the steps run as one sequence of substeps in
which each trailing half-kick merges with the next leading one
(first-same-as-last); the half-kick still owed is applied before every
sample, so sampled states are those of the unmerged scheme up to
roundoff.  A kick of length c is one local term plus the neighbours of
the second-order stencil: v += s u with s = c (|u|^(p-1) - 2N/h^2),
|u|^2 taken from the squares of u's real and imaginary parts, then
t = (c/h^2) u added to v shifted by one node along each axis of the
interior array, the same on line and box grids.

The orbital distance to the standing-wave orbit is the phase-minimized
H1 distance, taken directly at the minimizing phase; the H1 inner
product carries the eps-scaled gradient matching the conserved energy.
Instability, tube exit, and norm blow-up are findings recorded on the
trajectory, never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grids
from .elliptic import Profile
from .errors import UnstableStep
from .grids import Grid
from .potentials import PotentialPair, ProblemParams

BOUNDARY_FLAG_REL = 1e-8  # |u| at the wall above this (times peak) ends the run
BLOWUP_FACTOR = 1e3  # L2 norm growth that counts as blow-up

_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))


@dataclass
class FieldState:
    """Field pair on the reference grid; physical positions are center + eps*y."""

    grid: Grid
    center: tuple
    epsilon: float
    omega: float
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def x_points(self) -> np.ndarray:
        return np.asarray(self.center) + self.epsilon * self.grid.points()


@dataclass(frozen=True)
class Perturbation:
    kind: str = "none"  # "radial-bump" | "random-smooth" | "none"
    delta: float = 0.0
    seed: int = 0


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    energy: np.ndarray
    charge: np.ndarray
    distance: np.ndarray
    v_residual: np.ndarray
    dt: float
    steps: int
    verdict: str  # "stayed-in-tube" | "exited-tube"
    exit_time: float | None = None
    max_distance: float = 0.0
    blow_up: bool = False
    boundary_touched: bool = False
    energy_drift: float = 0.0
    charge_drift: float = 0.0


# ---------------------------------------------------------------------------
# H1 geometry


def _dirichlet_inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> complex:
    """sum conj(grad a) . grad b with forward differences, Dirichlet walls."""
    acc = 0.0 + 0.0j
    scale = grid.h ** (grid.dimension - 2)
    for axis in range(len(grid.shape)):
        da = np.diff(a, axis=axis)
        db = np.diff(b, axis=axis)
        acc += scale * np.sum(np.conj(da) * db)
    return acc


def h1_inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> complex:
    w = grid.weights()
    return complex(np.sum(w * np.conj(a) * b) + _dirichlet_inner(grid, a, b))


def h1_norm(grid: Grid, a: np.ndarray, epsilon: float, dimension: int) -> float:
    return float(np.sqrt(epsilon**dimension * h1_inner(grid, a, a).real))


def orbital_distance(state: FieldState, profile: Profile) -> float:
    """Phase-minimized H1 distance to the standing-wave orbit.

    ||u - e^{i theta} phi|| at the minimizing phase theta = arg <phi, u>,
    taken directly: the closed form ||u||^2 + ||phi||^2 - 2 |<u, phi>|
    cancels to roundoff below about 1e-8 ||phi||. Physical normalization
    (eps^N under the square root).
    """
    g = state.grid
    theta = np.angle(h1_inner(g, profile.values, state.u))
    diff = state.u - np.exp(1j * theta) * profile.values
    return float(np.sqrt(state.epsilon**g.dimension * h1_inner(g, diff, diff).real))


# ---------------------------------------------------------------------------
# initialization


def _rms_width(profile: Profile) -> float:
    w = profile.grid.weights()
    r2 = np.sum(profile.grid.points() ** 2, axis=-1)
    mass = np.sum(w * profile.values**2)
    return float(np.sqrt(np.sum(w * r2 * profile.values**2) / mass))


def _perturbation_field(profile: Profile, pert: Perturbation) -> np.ndarray:
    g = profile.grid
    pts = g.points()
    r2 = np.sum(pts**2, axis=-1)
    s = _rms_width(profile)
    envelope = np.exp(-r2 / (2.0 * s**2))
    if pert.kind == "radial-bump":
        return (envelope * profile.values).astype(complex)
    if pert.kind == "random-smooth":
        rng = np.random.default_rng(pert.seed)
        modes = np.sin(np.pi * np.arange(1, 7)[:, None] * (g.axis + g.extent) / (2.0 * g.extent))
        shape = (6,) * g.dimension
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # contract one mode index per axis; each new axis lands last
        for _ in range(g.dimension):
            raw = np.tensordot(raw, modes, axes=(0, 0))
        return raw * envelope
    raise ValueError(f"unknown perturbation kind: {pert.kind!r}")


def init_perturbed_standing_wave(
    profile: Profile,
    params: ProblemParams,
    pair: PotentialPair,
    pert: Perturbation,
) -> FieldState:
    """Standing-wave data u0 = phi + delta*w, v0 = i(omega + V)u0.

    The perturbation w is orthogonalized against phi in the H1 inner
    product and normalized to ||phi||_H1, so the initial orbital distance
    is exactly delta * ||phi||_H1 (up to roundoff).
    """
    if profile.grid.geometry == "radial":
        raise ValueError("evolve on a line or box grid")
    g = profile.grid
    phi = profile.values.astype(complex)
    if pert.kind == "none" or pert.delta == 0.0:
        u0 = phi.copy()
    else:
        w = _perturbation_field(profile, pert)
        mask = np.ones(g.shape, dtype=bool)
        mask[g.interior()] = False
        w[mask] = 0.0
        pp = h1_inner(g, phi, phi).real
        w = w - (h1_inner(g, phi, w) / pp) * phi
        w = w * np.sqrt(pp / h1_inner(g, w, w).real)
        u0 = phi + pert.delta * w
    x = np.asarray(profile.center) + profile.epsilon * g.points()
    v, _, _ = pair.V(x)
    v0 = 1j * (params.omega + v) * u0
    return FieldState(
        grid=g,
        center=profile.center,
        epsilon=profile.epsilon,
        omega=params.omega,
        u=u0,
        v=v0,
        t=0.0,
    )


# ---------------------------------------------------------------------------
# conserved functionals


def charge(state: FieldState) -> float:
    w = state.grid.weights()
    q = np.sum(w * np.imag(np.conj(state.u) * state.v))
    return float(state.epsilon**state.grid.dimension * q)


def energy(state: FieldState, params: ProblemParams, vv: np.ndarray, ww: np.ndarray) -> float:
    """The conserved energy; vv and ww hold V and W on the state's nodes."""
    g = state.grid
    w = g.weights()
    kin = 0.5 * np.sum(w * np.abs(state.v - 1j * vv * state.u) ** 2)
    grad = 0.5 * _dirichlet_inner(g, state.u, state.u).real
    au = np.abs(state.u)
    pot = np.sum(
        w * (0.5 * (params.m - ww) * au**2 - au ** (params.p + 1.0) / (params.p + 1.0))
    )
    return float(state.epsilon**g.dimension * (kin + grad + pot))


# ---------------------------------------------------------------------------
# evolution


def stable_dt(state: FieldState, params: ProblemParams, pair: PotentialPair) -> float:
    """The step bound 0.5 eps h / sqrt(1 + max|Z|) of the splitting."""
    x = state.x_points()
    return _step_bound(state, params, pair.V(x)[0], pair.W(x)[0])


def _step_bound(state: FieldState, params: ProblemParams, vv: np.ndarray, ww: np.ndarray) -> float:
    """`stable_dt` from V and W on the state's nodes."""
    z = params.m - params.omega**2 - 2.0 * params.omega * vv - ww
    zmax = float(np.max(np.abs(z)))
    return 0.5 * state.epsilon * state.grid.h / np.sqrt(1.0 + zmax)


def _boundary_ring(shape: tuple) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        idx: list = [slice(None)] * len(shape)
        idx[axis] = 0
        mask[tuple(idx)] = True
        idx[axis] = -1
        mask[tuple(idx)] = True
    return mask.ravel()


def _rotation_table(kappa: np.ndarray, v_int: np.ndarray, tau: float) -> tuple:
    """Exact flow of u' = v - iVu, v' = -kappa u - iVv over tau, per node.

    With c, s_over, ks the cos/sin (cosh/sinh where kappa < 0) factors and
    gauge = e^(-iV tau), returns (gauge c, gauge s_over, -gauge ks), so the
    flow is u <- a u + b v, v <- k u + a v.
    """
    sq = np.sqrt(np.abs(kappa))
    pos = kappa > 0.0
    zer = kappa == 0.0
    c = np.where(pos, np.cos(sq * tau), np.cosh(sq * tau))
    s_over = np.where(
        pos,
        np.divide(np.sin(sq * tau), sq, out=np.full_like(sq, tau), where=~zer),
        np.divide(np.sinh(sq * tau), sq, out=np.full_like(sq, tau), where=~zer),
    )
    ks = np.where(pos, sq * np.sin(sq * tau), -sq * np.sinh(sq * tau))
    gauge = np.exp(-1j * v_int * tau)
    return gauge * c, gauge * s_over, -gauge * ks


def evolve(
    state: FieldState,
    params: ProblemParams,
    pair: PotentialPair,
    dt: float,
    T: float,
    record_every: int = 10,
    profile: Profile | None = None,
    tube_exit: float | None = None,
    order: int = 2,
) -> TrajectoryRecord:
    """March (u, v) over [t, t + T] and record invariants and distance.

    dt and T may both be negative (time reversal).  `order` selects plain
    Strang (2) or its triple-jump composition (4).  The state is updated
    in place; the returned record owns the monitor series.
    """
    g = state.grid
    x = state.x_points()
    vv, _, _ = pair.V(x)
    ww, _, _ = pair.W(x)
    bound = _step_bound(state, params, vv, ww)
    if abs(dt) > bound * (1.0 + 1e-12):
        raise UnstableStep(f"dt = {abs(dt):.3e} above the splitting bound {bound:.3e}")
    n_steps = int(round(T / dt)) if dt else 0
    if n_steps <= 0:
        raise UnstableStep(f"T = {T:.3e} and dt = {dt:.3e} round to no step")

    w_int = grids.extract_interior(g, g.weights())
    v_int = grids.extract_interior(g, vv)
    kappa = grids.extract_interior(g, params.m - ww + vv**2)
    shape = tuple(np.array(g.shape) - 2)
    ring = _boundary_ring(shape)

    u = grids.extract_interior(g, state.u).astype(complex)
    v = grids.extract_interior(g, state.v).astype(complex)
    eps = state.epsilon

    # work arrays of the march, allocated once: the rotation writes u's
    # successor into u_next and swaps the two, t holds one product at a
    # time, s the kick's local coefficient and sq the squares of u's parts
    u_next = np.empty_like(u)
    t = np.empty_like(u)
    s = np.empty(u.size)
    sq = np.empty(2 * u.size)
    t_nd, v_nd = t.reshape(shape), v.reshape(shape)
    neighbours = [
        ((slice(None),) * axis + (slice(None, -1),), (slice(None),) * axis + (slice(1, None),))
        for axis in range(len(shape))
    ]
    power = 0.5 * (params.p - 1.0)
    inv_h2 = 1.0 / g.h**2
    centre = 2.0 * len(shape) * inv_h2

    def kick(c: float) -> None:
        """v += c (lap u + |u|^(p-1) u), the Laplacian's slicing stencil
        split into its centre, folded into the local term s u, and the
        neighbours, added as t = (c/h^2) u shifted along each axis."""
        np.square(u.view(float), out=sq)
        np.add(sq[0::2], sq[1::2], out=s)
        if power != 1.0:
            np.power(s, power, out=s)
        np.subtract(s, centre, out=s)
        np.multiply(s, c, out=s)
        np.multiply(s, u, out=t)
        np.add(v, t, out=v)
        np.multiply(u, c * inv_h2, out=t)
        for lo, hi in neighbours:
            v_nd[hi] += t_nd[lo]
            v_nd[lo] += t_nd[hi]

    # one step is the substeps (half-kick, rotation, half-kick) of these
    # weights; a rotation table per distinct weight
    weights = (1.0,) if order == 2 else (_YOSHIDA_W1, 1.0 - 2.0 * _YOSHIDA_W1, _YOSHIDA_W1)
    tables = {w: _rotation_table(kappa, v_int, w * dt / eps) for w in set(weights)}
    substeps = [(0.5 * (w * dt / eps), tables[w]) for w in weights]

    def write_back() -> None:
        state.u = grids.insert_interior(g, u)
        state.v = grids.insert_interior(g, v)

    epsn = eps**g.dimension
    peak0 = float(np.max(np.abs(u)))
    l2_0 = float(epsn * np.sum(w_int * np.abs(u) ** 2))

    times, e_ser, q_ser, d_ser, r_ser = [], [], [], [], []

    def sample() -> float:
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

    verdict = "stayed-in-tube"
    exit_time: float | None = None
    blow_up = False
    boundary_touched = False
    max_d = sample()

    step_count = 0
    owed = 0.0  # the last substep's trailing half-kick, merged into the next
    for i in range(n_steps):
        for half, (a, b, k) in substeps:
            kick(owed + half)
            # u, v = a u + b v, k u + a v, in place
            np.multiply(a, u, out=u_next)
            np.multiply(b, v, out=t)
            u_next += t
            np.multiply(k, u, out=t)
            v *= a
            v += t
            u, u_next = u_next, u
            owed = half
        state.t += dt
        step_count += 1
        at_sample = (i + 1) % record_every == 0 or i == n_steps - 1
        if not at_sample:
            continue
        kick(owed)
        owed = 0.0
        d = sample()
        max_d = float(np.maximum(max_d, d))  # a NaN distance carries over
        l2 = epsn * np.sum(w_int * np.abs(u) ** 2)
        # a NaN fails every comparison, so a non-finite sample is blow-up too
        if not np.isfinite([l2, d]).all() or l2 > BLOWUP_FACTOR**2 * l2_0:
            blow_up = True
            verdict = "exited-tube"
            exit_time = state.t
            break
        if tube_exit is not None and d > tube_exit:
            verdict = "exited-tube"
            exit_time = state.t
            break
        if float(np.max(np.abs(u[ring]))) > BOUNDARY_FLAG_REL * peak0:
            boundary_touched = True
            break

    write_back()
    e_arr = np.asarray(e_ser)
    q_arr = np.asarray(q_ser)
    e_scale = max(abs(e_arr[0]), 1e-30)
    q_scale = max(abs(q_arr[0]), 1e-30)
    return TrajectoryRecord(
        times=np.asarray(times),
        energy=e_arr,
        charge=q_arr,
        distance=np.asarray(d_ser),
        v_residual=np.asarray(r_ser),
        dt=dt,
        steps=step_count,
        verdict=verdict,
        exit_time=exit_time,
        max_distance=max_d,
        blow_up=blow_up,
        boundary_touched=boundary_touched,
        energy_drift=float(np.max(np.abs(e_arr - e_arr[0])) / e_scale),
        charge_drift=float(np.max(np.abs(q_arr - q_arr[0])) / q_scale),
    )
