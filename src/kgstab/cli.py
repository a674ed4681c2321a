"""Scenario configs, the analysis pipeline, and the command-line front end.

The scenario schema, the pipeline, the subcommands and their output
files are documented once, in README.md under "Command line", whose
examples the tests run.  Here each part of the schema is defined once
(the key tuples, the term classes and `_DYNAMICS_FIELDS`, whose
defaults are those of `DynamicsOptions`), and both `parse_scenario_dict`
and `emit_config` read it.  `python -m kgstab` runs `main`.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import io as kio
from . import spectrum as spx
from . import stability as st
from .elliptic import (
    Profile,
    chain_counters,
    continue_profile,
    release_factorization,
    solve_limit_ground_state,
)
from .errors import GridTooSmall, KgError, SchemaError, SkippedError
from .grids import Grid
from .potentials import (
    EffectiveZ,
    GaussianTerm,
    PotentialPair,
    PotentialSpec,
    ProblemParams,
    QuadraticTerm,
    check_assumptions,
    find_critical_point,
    resolve_potentials,
)
from .workers import scipy_openblas_setter, worker_count, worker_map

ANALYSES = ("slope_numeric", "slope_asymptotic", "spectrum", "dynamics")

log = logging.getLogger("kgstab")


@dataclass(frozen=True)
class DynamicsOptions:
    delta: float = 1e-3
    kind: str = "radial-bump"
    seed: int = 0
    T_over_epsilon: float = 100.0
    dt_factor: float = 0.2
    order: int = 2
    record_every: int = 20
    tube_stay: float = 10.0
    tube_exit: float = 100.0
    grid: Grid | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    params: ProblemParams  # epsilon slot holds the first sweep value
    pair: PotentialPair
    epsilons: tuple
    analyses: tuple  # enabled analysis names, schema order
    grid: Grid | None
    dynamics: DynamicsOptions | None
    tol: float
    critical_guess: tuple
    out: str | None


# ---------------------------------------------------------------------------
# the scenario schema: one definition per part, read by parse and emit


def _is_number(v) -> bool:
    """A finite number (not a bool). `json.load` also yields NaN,
    infinities and integers too large for a float, which are not."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_PARAM_KEYS = ("dimension", "p", "m", "omega", "mode")
_SCENARIO_KEYS = (
    *_PARAM_KEYS, "potentials", "epsilons", "analyses", "dynamics", "grid",
    "critical_guess", "tol", "out",
)
_GRID_KEYS = ("geometry", "extent", "n")
_TERM_TYPES = {"gaussian": GaussianTerm, "quadratic": QuadraticTerm}
_NONNEGATIVE = (lambda v: _is_number(v) and v >= 0, "expected a number >= 0")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "expected a number > 0")
# key -> (check, message); the defaults are those of DynamicsOptions
_DYNAMICS_FIELDS = {
    "delta": _NONNEGATIVE,
    "kind": (
        lambda v: v in dyn.PERTURBATION_KINDS,
        "expected " + " | ".join(dyn.PERTURBATION_KINDS),
    ),
    "seed": (_is_int, "expected an integer"),
    "T_over_epsilon": _POSITIVE,
    "dt_factor": _POSITIVE,
    "order": (lambda v: _is_int(v) and v in (2, 4), "expected 2 or 4"),
    "record_every": (lambda v: _is_int(v) and v > 0, "expected a positive integer"),
    "tube_stay": _POSITIVE,
    "tube_exit": _POSITIVE,
}


def _trajectory_file(epsilon, suffix: str = "") -> str:
    """The CSV that the dynamics run at `epsilon` writes beside its report."""
    return f"trajectory{suffix}_eps_{epsilon:g}.csv"


def _expect(cond: bool, ptr: str, msg: str) -> None:
    if not cond:
        raise SchemaError(ptr, msg)


def _reject_unknown(raw: dict, known, ptr: str) -> None:
    for key in raw:
        _expect(key in known, f"{ptr}/{key}", f"unknown key (valid: {', '.join(known)})")


def _rerooted(prefix: str, ptr: str, build, *args):
    """build(*args), its SchemaError moved from under `prefix` to under `ptr`:
    the dataclasses report "/potential/<field>", "/grid/<field>" and
    "/params/<field>", wherever in the config they were read."""
    try:
        return build(*args)
    except SchemaError as exc:
        raise SchemaError(ptr + exc.path.removeprefix(prefix), exc.reason) from None


def _positive(value, ptr: str) -> float:
    _expect(_POSITIVE[0](value), ptr, _POSITIVE[1])
    return float(value)


def _number(raw: dict, key: str, ptr: str, default=None, required: bool = False):
    if key not in raw:
        _expect(not required, f"{ptr}/{key}", "missing required field")
        return default
    _expect(_is_number(raw[key]), f"{ptr}/{key}", "expected a number")
    return float(raw[key])


def _vector(val, dim: int, ptr: str) -> tuple:
    _expect(isinstance(val, list) and len(val) == dim, ptr, f"expected a length-{dim} array")
    for i, x in enumerate(val):
        _expect(_is_number(x), f"{ptr}/{i}", "expected a number")
    return tuple(float(x) for x in val)


def _parse_term(t, dim: int, tp: str):
    _expect(isinstance(t, dict), tp, "expected a term object")
    kind = t.get("type")
    known = isinstance(kind, str) and kind in _TERM_TYPES
    _expect(known, f"{tp}/type", "expected 'gaussian' or 'quadratic'")
    cls = _TERM_TYPES[kind]
    _reject_unknown(t, ("type", *(f.name for f in fields(cls))), tp)
    center = _vector(t.get("center", [0.0] * dim), dim, f"{tp}/center")
    if cls is GaussianTerm:
        amp = _number(t, "amplitude", tp, required=True)
        args = (amp, center, _number(t, "width", tp, default=1.0))
    else:
        m = t.get("matrix")
        _expect(isinstance(m, list) and len(m) == dim, f"{tp}/matrix", f"expected a {dim}x{dim} matrix")
        args = (tuple(_vector(r, dim, f"{tp}/matrix/{j}") for j, r in enumerate(m)), center)
    return _rerooted("/potential", tp, cls, *args)


def _parse_terms(raw, dim: int, ptr: str) -> tuple:
    if raw is None:
        return ()
    _expect(isinstance(raw, list), ptr, "expected an array of potential terms")
    return tuple(_parse_term(t, dim, f"{ptr}/{i}") for i, t in enumerate(raw))


def _parse_grid(raw, dim: int, ptr: str) -> Grid | None:
    if raw is None:
        return None
    _expect(isinstance(raw, dict), ptr, "expected a grid object")
    _reject_unknown(raw, _GRID_KEYS, ptr)
    geometry = raw.get("geometry", "line" if dim == 1 else "box")
    extent = _number(raw, "extent", ptr, required=True)
    _expect(_is_int(raw.get("n")), f"{ptr}/n", "expected an integer")
    return _rerooted("/grid", ptr, Grid, dim, geometry, extent, raw["n"])


def _parse_dynamics(raw, dim: int) -> DynamicsOptions:
    _expect(isinstance(raw, dict), "/dynamics", "expected an object")
    _reject_unknown(raw, (*_DYNAMICS_FIELDS, "grid"), "/dynamics")
    values = {}
    for key, (check, msg) in _DYNAMICS_FIELDS.items():
        if key in raw:
            _expect(check(raw[key]), f"/dynamics/{key}", msg)
            is_float = isinstance(getattr(DynamicsOptions, key), float)
            values[key] = float(raw[key]) if is_float else raw[key]
    return DynamicsOptions(**values, grid=_parse_grid(raw.get("grid"), dim, "/dynamics/grid"))


def parse_scenario_dict(raw: dict) -> ScenarioConfig:
    _expect(isinstance(raw, dict), "", "config root must be an object")
    _reject_unknown(raw, _SCENARIO_KEYS, "")
    dim = raw.get("dimension")
    _expect(_is_int(dim), "/dimension", "expected an integer")
    p = _number(raw, "p", "", required=True)
    m = _number(raw, "m", "", required=True)
    omega = _number(raw, "omega", "", required=True)
    mode = raw.get("mode", "general")

    eps_raw = raw.get("epsilons")
    nonempty = isinstance(eps_raw, list) and len(eps_raw) > 0
    _expect(nonempty, "/epsilons", "expected a nonempty array")
    for i, e in enumerate(eps_raw):
        _expect(_NONNEGATIVE[0](e), f"/epsilons/{i}", _NONNEGATIVE[1])
    epsilons = tuple(sorted({float(e) for e in eps_raw}, reverse=True))
    params = _rerooted("/params", "", ProblemParams, dim, p, m, omega, epsilons[0], mode)

    pots = raw.get("potentials", {})
    _expect(isinstance(pots, dict), "/potentials", "expected an object")
    _reject_unknown(pots, ("V", "W"), "/potentials")
    v_terms = _parse_terms(pots.get("V"), dim, "/potentials/V")
    w_terms = _parse_terms(pots.get("W"), dim, "/potentials/W")
    spec_v = PotentialSpec(dimension=dim, terms=v_terms) if v_terms else None
    spec_w = PotentialSpec(dimension=dim, terms=w_terms) if w_terms else None
    pair = resolve_potentials(params, spec_v, spec_w)

    analyses_raw = raw.get("analyses", dict.fromkeys(ANALYSES[:3], True))
    _expect(isinstance(analyses_raw, dict), "/analyses", "expected an object")
    _reject_unknown(analyses_raw, ANALYSES, "/analyses")
    enabled = tuple(a for a in ANALYSES if analyses_raw.get(a, False))
    _expect(len(enabled) > 0, "/analyses", "at least one analysis must be enabled")
    if dim == 3:
        msg = "dimension 3 supports only slope_asymptotic at desk scale"
        _expect(enabled == ("slope_asymptotic",), "/analyses", msg)
    dyn_opts = None
    if "dynamics" in enabled:
        _expect(dim <= 2, "/analyses/dynamics", "time evolution runs in dimension 1 or 2")
        dyn_opts = _parse_dynamics(raw.get("dynamics", {}), dim)
        files = {}  # trajectory file -> (epsilon, index) of the first that writes it
        for i, e in enumerate(eps_raw):
            name = _trajectory_file(e)
            first, j = files.setdefault(name, (float(e), i))
            _expect(first == float(e), f"/epsilons/{i}", f"{e!r} writes {name}, as /epsilons/{j} does")

    guess = raw.get("critical_guess")
    critical_guess = (0.0,) * dim if guess is None else _vector(guess, dim, "/critical_guess")
    tol = _positive(raw.get("tol", 1e-10), "/tol")
    out = raw.get("out")
    _expect(out is None or isinstance(out, str), "/out", "expected a string path")

    return ScenarioConfig(
        params=params,
        pair=pair,
        epsilons=epsilons,
        analyses=enabled,
        grid=_parse_grid(raw.get("grid"), dim, "/grid"),
        dynamics=dyn_opts,
        tol=tol,
        critical_guess=critical_guess,
        out=out,
    )


def _load_json(path):
    """The parsed JSON file; malformed JSON is a schema error at the root."""
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from None


def parse_scenario(path) -> ScenarioConfig:
    return parse_scenario_dict(_load_json(path))


def emit_config(config: ScenarioConfig) -> dict:
    """Canonical dict form; parse_scenario_dict(emit_config(c)) == c."""
    term_types = {cls: name for name, cls in _TERM_TYPES.items()}

    def term_dict(t):
        return {"type": term_types[type(t)], **kio.to_jsonable(t)}

    def grid_dict(g):
        return {k: getattr(g, k) for k in _GRID_KEYS}

    out: dict = {
        **{k: getattr(config.params, k) for k in _PARAM_KEYS},
        # in covariant mode W = V^2 is derived and spec_W holds no terms
        "potentials": {
            "V": [term_dict(t) for t in config.pair.spec_V.terms],
            "W": [term_dict(t) for t in config.pair.spec_W.terms],
        },
        "epsilons": list(config.epsilons),
        "analyses": {a: a in config.analyses for a in ANALYSES},
        "critical_guess": list(config.critical_guess),
        "tol": config.tol,
    }
    if config.grid is not None:
        out["grid"] = grid_dict(config.grid)
    if config.dynamics is not None:
        d = config.dynamics
        out["dynamics"] = {k: getattr(d, k) for k in _DYNAMICS_FIELDS}
        if d.grid is not None:
            out["dynamics"]["grid"] = grid_dict(d.grid)
    if config.out is not None:
        out["out"] = config.out
    return out


# ---------------------------------------------------------------------------
# grid sizing heuristics (desk scale)


LIMIT_H = 0.01  # largest node spacing of an automatic limit grid, below its cap


def _fft_nodes(count: int) -> int:
    """The smallest n >= count of count's parity with n - 1 a fast FFT size,
    a product of primes up to 11 (`scipy.fft.next_fast_len`'s sizes): a
    DST-I on n - 2 unknowns runs a real FFT of length 2 (n - 1)."""

    def smooth(m):
        for prime in (2, 3, 5, 7, 11):
            while m and m % prime == 0:
                m //= prime
        return m <= 1

    m = count - 1
    while not smooth(m):
        m += 2
    return m + 1


def _auto_limit_grid(dim: int, z0: float) -> tuple[Grid, bool]:
    """The limit grid at h <= LIMIT_H below a node cap (24001 on a line,
    4001 radial), and whether the cap bound; a cap that binds warns.

    A line's LIMIT_H count rounds up to `_fft_nodes`: h only shrinks (n
    grows by at most 6% for z0 <= 1) and the centre node stays. The cap
    binds only when that count exceeds it; an even count above 23626 gets
    the cap.
    """
    line = dim == 1
    extent = (24.0 if line else 28.0) / np.sqrt(z0)
    count = int(round((2.0 * extent if line else extent) / LIMIT_H)) + 1
    cap = 24001 if line else 4001
    if count > cap:
        log.warning("limit grid: h = %g needs %d nodes, capped at %d", LIMIT_H, count, cap)
    n = min(_fft_nodes(count) if line else count, cap)
    grid = Grid(dim, "line" if line else "radial", extent, n)
    log.debug("limit grid: h = %g needs %d nodes, granted %d, h = %.6g", LIMIT_H, count, n, grid.h)
    return grid, count > cap


def _auto_box_grid(dim: int, z0: float) -> Grid:
    extent = 13.2 / np.sqrt(z0)
    return Grid(dim, "box", extent, 481)


def _auto_dynamics_grid(dim: int, z0: float, t_over_eps: float) -> Grid:
    root = np.sqrt(z0)
    extent = 20.0 / root + t_over_eps + 10.0
    h = 0.05 / root
    n = int(round(2.0 * extent / h)) + 1
    cap = 32001 if dim == 1 else 481
    if n > cap:
        msg = f"dynamics needs n = {n} nodes per axis, above the desk-scale cap {cap}"
        raise GridTooSmall(f"{msg}; pin /dynamics/grid")
    return Grid(dim, "line" if dim == 1 else "box", extent, n)


# ---------------------------------------------------------------------------
# pipeline


def _profile_summary(profile: Profile) -> dict:
    return {
        "extent": profile.grid.extent,
        "n": profile.grid.n,
        "geometry": profile.grid.geometry,
        "residual": profile.residual,
        "mass": profile.mass(),
        "peak_location": list(profile.peak),
        "peak_value": float(np.max(profile.values)),
    }


def _error_entry(exc: Exception) -> dict:
    """Error record for a failed block, with the solver's evidence if any."""
    entry = {"type": type(exc).__name__, "message": str(exc)}
    for key in ("residual", "iterations"):
        value = getattr(exc, key, None)
        if value is not None:
            entry[key] = value
    return {"error": entry}


def _guarded(block: dict, key: str, run, entry=lambda result: result):
    """block[key] = entry(run()), or the error entry if run raised.

    Returns run()'s result, or None when it failed.
    """
    try:
        result = run()
    except KgError as exc:
        block[key] = _error_entry(exc)
        return None
    block[key] = entry(result)
    return result


def _epsilon_block(
    config: ScenarioConfig,
    z: EffectiveZ,
    limit: Profile | None,
    base: Profile | None,
    epsilon: float,
    runs: list,
    solver: list,
) -> dict:
    """One epsilon's analyses. `base` is the scenario's epsilon = 0 state on
    the grid the block analyses, None where no block reads a profile or,
    in 2d and 3d runs with only slope_asymptotic, where there is no line
    or box: the slope then holds only the asymptotic fields. `limit` is
    None, and so is `base`, where the scenario runs only dynamics. On a
    box, the `chain_counters` of the profile go to `solver`."""
    params = replace(config.params, epsilon=epsilon)
    pair = config.pair
    block: dict = {"epsilon": epsilon}
    want_slope = (
        "slope_numeric" in config.analyses or "slope_asymptotic" in config.analyses
    )
    want_spectrum = "spectrum" in config.analyses
    want_dynamics = "dynamics" in config.analyses

    def solve_profile():
        solved = base
        if epsilon > 0.0:
            solved = continue_profile(base, params, pair, z, base.grid, tol=config.tol)
        counters = chain_counters(solved)
        if counters is not None:
            solver.append(dict(epsilon=epsilon, **counters))
        return solved

    def analysed():
        if base is not None and profile is None:
            raise SkippedError("no profile")
        return profile

    def slope(with_numeric: bool):
        return st.build_slope_report(
            analysed(), params, pair, z, limit, with_numeric=with_numeric
        )

    def spectrum():
        spec_report = spx.build_spectrum_report(analysed(), params, pair, z, limit)
        return spx.gss_classify(
            spec_report, slope_report if slope_report is not None else slope(False)
        )

    profile = slope_report = None
    if base is not None:
        profile = _guarded(block, "profile", solve_profile, _profile_summary)
    if want_slope:
        with_numeric = "slope_numeric" in config.analyses and epsilon > 0.0
        slope_report = _guarded(block, "slope", lambda: slope(with_numeric), kio.to_jsonable)
    if want_spectrum:
        spec_report = _guarded(block, "spectrum", spectrum, kio.to_jsonable)
        if spec_report is not None:
            block["gss_verdict"] = spec_report.gss
    if want_dynamics:
        _guarded(block, "dynamics", lambda: _dynamics_block(config, z, epsilon, runs))
    return block


def _dynamics_block(config: ScenarioConfig, z: EffectiveZ, epsilon: float, runs: list) -> dict:
    """The report entry of one dynamics run; (record, timing) goes to `runs`."""
    opts = config.dynamics
    params = replace(config.params, epsilon=epsilon)
    if epsilon <= 0.0:
        raise SkippedError("dynamics needs epsilon > 0")
    grid = opts.grid or _auto_dynamics_grid(
        params.dimension, z.z0, opts.T_over_epsilon
    )
    limit = solve_limit_ground_state(z.z0, params.p, grid, tol=config.tol)
    profile = continue_profile(limit, params, config.pair, z, grid=grid, tol=config.tol)
    release_factorization(profile)  # the time steps factor nothing
    phi_h1 = dyn.h1_norm(grid, profile.values, epsilon)
    pert = dyn.Perturbation(kind=opts.kind, delta=opts.delta, seed=opts.seed)
    state = dyn.init_perturbed_standing_wave(profile, params, config.pair, pert)
    dt = opts.dt_factor * epsilon * grid.h
    t0 = time.perf_counter()
    record = dyn.evolve(
        state,
        params,
        config.pair,
        dt,
        opts.T_over_epsilon * epsilon,
        record_every=opts.record_every,
        profile=profile,
        tube_exit=opts.tube_exit * opts.delta * phi_h1 if opts.delta > 0 else None,
        order=opts.order,
    )
    evolve_s = time.perf_counter() - t0
    timing = {
        "epsilon": epsilon,
        "steps": record.steps,
        "evolve_s": evolve_s,
        "steps_per_s": record.steps / evolve_s,
        "folded_axes": list(record.folded_axes),
    }
    runs.append((record, timing))
    return _dynamics_summary(record, opts, grid, phi_h1)


def _dynamics_summary(record, opts: DynamicsOptions, grid: Grid, phi_h1: float) -> dict:
    """The report entry of a dynamics run; a blown-up one is outside the band."""
    stay_radius = opts.tube_stay * opts.delta * phi_h1
    return {
        "verdict": record.verdict,
        "delta": opts.delta,
        "kind": opts.kind,
        "seed": opts.seed,
        "dt": record.dt,
        "steps": record.steps,
        "grid": {"extent": grid.extent, "n": grid.n},
        "profile_h1_norm": phi_h1,
        "max_distance": record.max_distance,
        "within_stable_band": bool(record.max_distance <= stay_radius and not record.blow_up)
        if opts.delta > 0
        else None,
        "exit_time": record.exit_time,
        "energy_drift": record.energy_drift,
        "charge_drift": record.charge_drift,
        "blow_up": record.blow_up,
        "boundary_touched": record.boundary_touched,
    }


def run_scenario(config: ScenarioConfig) -> tuple[dict, int, list, list]:
    """Full pipeline; returns (report, exit_code, runs, solver), `runs`
    holding a (TrajectoryRecord, timing) pair per dynamics run and
    `solver` the solver counters of each epsilon block solved on a box,
    each in epsilon order.

    Exit code 0 means every enabled analysis completed, whatever the
    physics verdict; assumption failures or block errors give 1. A
    failed critical-point search, or a failed limit or `base` solve, is
    recorded in report["assumptions"] or report["limit"] with no blocks.
    """
    params = config.params
    pair = config.pair
    scenario = emit_config(config)
    scenario.pop("out", None)  # delivery path, not scenario content
    report: dict = {"scenario": scenario}

    try:
        z = find_critical_point(params, pair, config.critical_guess)
    except KgError as exc:
        report["assumptions"] = _error_entry(exc)
        report["blocks"] = []
        return report, 1, [], []

    assumptions = check_assumptions(z)
    report["assumptions"] = {
        "critical_point": list(z.x0),
        "z0": z.z0,
        "grad_norm": z.grad_norm,
        "hessian_eigenvalues": list(z.hess_eigs),
        "hessian_negatives": z.hessian_negatives(),
        "laplacian_Z": z.laplacian_Z,
        "ok": assumptions.all_ok,
        "messages": list(assumptions.messages),
    }
    if not assumptions.all_ok:
        report["blocks"] = []
        return report, 1, [], []

    # a dynamics run solves its own limit state on its own grid, so a
    # dynamics-only scenario has no scenario limit state and no "limit"
    limit = base = None
    if config.analyses != ("dynamics",):
        limit_grid = config.grid if (config.grid and config.grid.geometry != "box") else None
        capped = False
        if limit_grid is None:
            limit_grid, capped = _auto_limit_grid(params.dimension, z.z0)
        # the one epsilon = 0 state of the scenario, on the grid its blocks
        # analyse: the line in 1d, the box in 2d where a block reads L or R
        grid = None
        if params.dimension == 1:
            grid = limit_grid
        elif "slope_numeric" in config.analyses or "spectrum" in config.analyses:
            pinned = config.grid is not None and config.grid.geometry == "box"
            grid = config.grid if pinned else _auto_box_grid(params.dimension, z.z0)
        try:
            limit = solve_limit_ground_state(z.z0, params.p, limit_grid, tol=config.tol)
            if grid is not None:
                eps0 = replace(params, epsilon=0.0)
                base = continue_profile(limit, eps0, pair, z, grid, tol=config.tol)
        except KgError as exc:
            report["limit"] = _error_entry(exc)
            report["blocks"] = []
            return report, 1, [], []
        report["limit"] = _profile_summary(limit)
        if capped:
            report["limit"]["h_requested"] = LIMIT_H

    runs: list = []
    solver: list = []
    blocks = [_epsilon_block(config, z, limit, base, e, runs, solver) for e in config.epsilons]
    report["blocks"] = blocks

    slope_rows = []
    shift_rows = []
    for block in blocks:
        eps = block["epsilon"]
        sl = block.get("slope")
        if isinstance(sl, dict) and "error" not in sl and eps > 0:
            slope_rows.append(
                [eps, sl.get("slope_scaled"), sl.get("asymptotic_slope_scaled")]
            )
        sp = block.get("spectrum")
        if isinstance(sp, dict) and "error" not in sp and eps > 0:
            lam = sp["eigenvalues"]
            preds = sp["predicted_shifts"]
            row = [eps]
            for j in range(len(preds)):
                row.append(lam[1 + j] / eps**2 if 1 + j < len(lam) else None)
            row.extend(preds)
            shift_rows.append(row)
    report["convergence"] = {"slope_scaled": slope_rows, "shifts": shift_rows}

    verdicts = {
        str(b["epsilon"]): b.get("gss_verdict", "not-computed") for b in blocks
    }
    distinct = {v for v in verdicts.values() if v != "not-computed"}
    overall = distinct.pop() if len(distinct) == 1 else ("mixed" if distinct else "not-computed")
    report["verdict"] = {"by_epsilon": verdicts, "overall": overall}

    failed = any(
        isinstance(block.get(key), dict) and "error" in block[key]
        for block in blocks
        for key in ("profile", "slope", "spectrum", "dynamics")
    )
    return report, 1 if failed else 0, runs, solver


# ---------------------------------------------------------------------------
# front end


def _write_outputs(
    report: dict, runs: list, solver: list, out_dir, meta: dict, suffix: str = ""
) -> None:
    """Write one scenario run into `out_dir`: report{suffix}.json with its
    `.meta.json` sidecar (meta plus each dynamics run's timing under
    "dynamics" and each box block's `solver` counters under "solver"),
    slope_convergence{suffix}.csv (numeric beside asymptotic scaled
    slopes) and shift_convergence{suffix}.csv (lambda_j / eps^2 beside the
    predicted c_j), each only when the report has rows for it, and the
    trajectory CSV of each dynamics run."""
    out = Path(out_dir)
    if runs:
        meta = dict(meta, dynamics=[timing for _, timing in runs])
    if solver:
        meta = dict(meta, solver=solver)
    kio.write_report(report, out / f"report{suffix}.json", meta=meta)
    conv = report.get("convergence", {})
    if conv.get("slope_scaled"):
        kio.write_csv(
            out / f"slope_convergence{suffix}.csv",
            ["epsilon", "slope_scaled_numeric", "slope_scaled_asymptotic"],
            conv["slope_scaled"],
        )
    rows = conv.get("shifts")
    if rows:
        npred = (max(len(r) for r in rows) - 1) // 2
        header = (
            ["epsilon"]
            + [f"lambda{j + 1}_over_eps2" for j in range(npred)]
            + [f"c{j + 1}" for j in range(npred)]
        )
        kio.write_csv(out / f"shift_convergence{suffix}.csv", header, rows)
    for record, timing in runs:
        kio.trajectory_to_csv(record, out / _trajectory_file(timing["epsilon"], suffix))


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if getattr(args, "tol", None) is not None:
        config = replace(config, tol=_positive(args.tol, "/tol"))
    if getattr(args, "seed", None) is not None and config.dynamics is not None:
        config = replace(config, dynamics=replace(config.dynamics, seed=args.seed))
    if getattr(args, "out", None) is not None:
        config = replace(config, out=args.out)
    return config


def _cmd_run(args) -> int:
    """analyze, or evolve: the same pipeline with only the dynamics analysis."""
    config = _apply_overrides(parse_scenario(args.config), args)
    evolve = args.command == "evolve"
    if evolve:
        if "dynamics" not in config.analyses:
            raise SchemaError("/analyses/dynamics", "evolve requires the dynamics analysis")
        config = replace(config, analyses=("dynamics",))
    t0 = time.perf_counter()
    report, code, runs, solver = run_scenario(config)
    meta = {"command": args.command, "runtime_s": time.perf_counter() - t0}
    _write_outputs(report, runs, solver, config.out or "kgstab-out", meta)
    if evolve:
        for block in report["blocks"]:
            d = block["dynamics"]
            err = d.get("error")
            status = f"{err['type']}: {err['message']}" if err else d["verdict"]
            print(f"epsilon {block['epsilon']:g}: {status}")
    else:
        print(f"verdict: {report.get('verdict', {}).get('overall', 'n/a')}")
    return code


def _factors_box(config: ScenarioConfig) -> bool:
    """Whether a run of `config` factors box operators (SuperLU and ARPACK,
    over scipy's OpenBLAS): a 2d or 3d scenario that reads L or R on its
    box, or runs dynamics there."""
    box_analyses = ("slope_numeric", "spectrum", "dynamics")
    return config.params.dimension > 1 and any(a in config.analyses for a in box_analyses)


def _timed_run(config: ScenarioConfig) -> tuple[dict, int, list, list, float]:
    """One sweep point: run_scenario's (report, code, runs, solver) and its
    wall time."""
    t0 = time.perf_counter()
    report, code, runs, solver = run_scenario(config)
    return report, code, runs, solver, time.perf_counter() - t0


def _cmd_sweep(args) -> int:
    raw = _load_json(args.config)
    _expect(isinstance(raw, dict), "", "config root must be an object")
    _expect("omega" not in raw, "/omega", "sweep takes its omegas from /omegas")
    omegas = raw.pop("omegas", None)
    nonempty = isinstance(omegas, list) and len(omegas) > 0
    _expect(nonempty, "/omegas", "sweep needs a nonempty omegas array")
    names = {}  # report file name -> index of the omega that writes it
    for i, om in enumerate(omegas):
        _expect(_is_number(om), f"/omegas/{i}", "expected a number")
        name = f"report_omega_{om:g}.json"
        if name in names:
            raise SchemaError(
                f"/omegas/{i}", f"{om!r} writes {name}, as /omegas/{names[name]} does"
            )
        names[name] = i
    # every point is checked before the first one runs
    configs = [
        _apply_overrides(parse_scenario_dict(dict(raw, omega=float(om))), args) for om in omegas
    ]
    out_dir = Path(configs[0].out or "kgstab-out")
    workers = worker_count(len(configs))
    # workers that factor boxes run scipy's OpenBLAS at one thread, as the
    # box blocks' workers do: no oversubscribed cores, and the bytes of a
    # serial sweep
    box = workers > 1 and any(_factors_box(c) for c in configs)
    setter = scipy_openblas_setter() if box else None
    if box:
        # loaded before the pool forks, so that no worker imports it
        import scipy.sparse.linalg  # noqa: F401
    rows = []
    worst = 0
    # the points run in worker processes; this process writes every
    # output, in omega order, as each point's result arrives
    with worker_map(workers, setter, (1,)) as point_map:
        results = point_map(_timed_run, configs)
        for om, (report, code, runs, solver, runtime_s) in zip(omegas, results):
            meta = {"command": "sweep", "runtime_s": runtime_s, "workers": workers}
            worst = max(worst, code)
            _write_outputs(report, runs, solver, out_dir, meta, f"_omega_{om:g}")
            for block in report["blocks"]:
                sl = block.get("slope", {})
                verdict = block.get("gss_verdict", "not-computed")
                rows.append([om, block["epsilon"], sl.get("slope_scaled"), sl.get("slope_sign"), verdict, None])
            if not report["blocks"]:
                failed = report.get("limit", report["assumptions"])
                error = failed["error"]["type"] if "error" in failed else "assumptions"
                rows.append([om, None, None, None, "not-computed", error])
    header = ["omega", "epsilon", "slope_scaled", "slope_sign", "gss_verdict", "error"]
    kio.write_csv(out_dir / "sweep.csv", header, rows)
    print(f"sweep: {len(rows)} rows -> {out_dir / 'sweep.csv'}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kgstab",
        description="stability analysis of semiclassical standing waves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--tol", type=float, help="solver tolerance override")
        sp.add_argument("--seed", type=int, help="perturbation seed override")

    pa = sub.add_parser("analyze", help="assumptions, slope, spectrum, verdict")
    pa.add_argument("config")
    common(pa)
    pa.set_defaults(func=_cmd_run)

    pe = sub.add_parser("evolve", help="dynamics runs only")
    pe.add_argument("config")
    common(pe)
    pe.set_defaults(func=_cmd_run)

    ps = sub.add_parser("sweep", help="analyze across an omegas list")
    ps.add_argument("config")
    common(ps)
    ps.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"config error at {exc.path or '/'}: {exc.reason}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KgError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
