import ctypes
import glob
import json
import logging
import os
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import kgstab
from kgstab import cli, elliptic, errors, grids, workers
from kgstab.cli import (
    _DYNAMICS_FIELDS,
    LIMIT_H,
    _auto_limit_grid,
    _error_entry,
    emit_config,
    main,
    parse_scenario,
    parse_scenario_dict,
    run_scenario,
)
from kgstab.errors import GridTooSmall, ModeConflict, NoConvergence, SchemaError
from kgstab.grids import Grid
from kgstab.potentials import ProblemParams, find_critical_point


BASE = {
    "dimension": 1,
    "p": 3.0,
    "m": 1.0,
    "omega": 0.9,
    "mode": "general",
    "potentials": {
        "W": [{"type": "gaussian", "amplitude": 0.05, "center": [0.0], "width": 1.0}]
    },
    "epsilons": [0.1],
    "analyses": {"slope_numeric": True, "slope_asymptotic": True, "spectrum": True},
    "grid": {"geometry": "line", "extent": 40.0, "n": 2001},
}
# a sweep takes its omegas from "omegas", and a file that also sets "omega" is a config error
SWEEP_BASE = {k: v for k, v in BASE.items() if k != "omega"}


def cfg_file(tmp_path, overrides=None, drop=()):
    raw = json.loads(json.dumps(BASE))
    for key in drop:
        raw.pop(key, None)
    if overrides:
        raw.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def pointer_of(callable_):
    with pytest.raises(SchemaError) as err:
        callable_()
    return err.value.path


def test_parse_basic(tmp_path):
    cfg = parse_scenario(cfg_file(tmp_path))
    assert cfg.params.omega == 0.9
    assert cfg.epsilons == (0.1,)
    assert cfg.analyses == ("slope_numeric", "slope_asymptotic", "spectrum")
    assert cfg.grid.n == 2001


def test_epsilons_sorted_descending_deduplicated(tmp_path):
    cfg = parse_scenario(cfg_file(tmp_path, {"epsilons": [0.025, 0.1, 0.05, 0.1]}))
    assert cfg.epsilons == (0.1, 0.05, 0.025)


def test_schema_error_pointers(tmp_path):
    assert pointer_of(lambda: parse_scenario_dict({"dimension": "one"})) == "/dimension"
    raw = json.loads(json.dumps(BASE))
    del raw["p"]
    assert pointer_of(lambda: parse_scenario_dict(raw)) == "/p"
    raw = json.loads(json.dumps(BASE))
    raw["potentials"]["W"][0]["width"] = -1.0
    assert (
        pointer_of(lambda: parse_scenario_dict(raw)) == "/potentials/W/0/width"
    )
    raw = json.loads(json.dumps(BASE))
    raw["epsilons"] = []
    assert pointer_of(lambda: parse_scenario_dict(raw)) == "/epsilons"
    raw = json.loads(json.dumps(BASE))
    raw["analyses"] = {"slope_numeric": False}
    assert pointer_of(lambda: parse_scenario_dict(raw)) == "/analyses"
    raw = json.loads(json.dumps(BASE))
    raw["grid"] = {"extent": 10.0, "n": 4}
    assert pointer_of(lambda: parse_scenario_dict(raw)) == "/grid/n"
    # domega has no reader since the slope takes one solve: any value is
    # an unknown key, a valid-looking one too
    for domega in (0, -1e-3, 1e-3):
        raw = dict(json.loads(json.dumps(BASE)), domega=domega)
        assert pointer_of(lambda: parse_scenario_dict(raw)) == "/domega"
    for tol in (0, -1.0, "1e-10"):
        raw = dict(json.loads(json.dumps(BASE)), tol=tol)
        assert pointer_of(lambda: parse_scenario_dict(raw)) == "/tol"


@pytest.mark.parametrize(
    "matrix",
    [[[1.0, 100000.5], [100000.0, 1.0]], [[0.3, 0.1000009], [0.1, -0.3]]],
    ids=["large-entries", "small-entries"],
)
def test_quadratic_matrix_must_be_symmetric_to_roundoff(matrix):
    # numpy's allclose, at its default rtol of 1e-5, took both for symmetric
    raw = json.loads(json.dumps(BASE))
    raw.update(dimension=2, grid={"geometry": "box", "extent": 15.0, "n": 65})
    raw["potentials"] = {"W": [{"type": "quadratic", "matrix": matrix}]}
    assert pointer_of(lambda: parse_scenario_dict(raw)) == "/potentials/W/0/matrix"
    (a, b), (_, d) = matrix
    raw["potentials"]["W"][0]["matrix"] = [[a, b], [b, d]]
    cfg = parse_scenario_dict(raw)
    assert cfg.pair.spec_W.terms[0].matrix == ((a, b), (b, d))


def test_supercritical_p_rejected_in_3d(tmp_path):
    raw = json.loads(json.dumps(BASE))
    raw.update({"dimension": 3, "p": 6.0, "analyses": {"slope_asymptotic": True}})
    raw["potentials"]["W"][0]["center"] = [0.0, 0.0, 0.0]
    del raw["grid"]
    assert pointer_of(lambda: parse_scenario_dict(raw)) == "/p"


def test_mode_conflict_passthrough(tmp_path):
    raw = json.loads(json.dumps(BASE))
    raw["mode"] = "covariant"
    with pytest.raises(ModeConflict):
        parse_scenario_dict(raw)


def test_dynamics_restricted_to_low_dimension():
    raw = json.loads(json.dumps(BASE))
    raw.update({"dimension": 3, "p": 3.0, "analyses": {"dynamics": True}})
    raw["potentials"]["W"][0]["center"] = [0.0, 0.0, 0.0]
    del raw["grid"]
    with pytest.raises(SchemaError):
        parse_scenario_dict(raw)


def test_round_trip(tmp_path):
    cfg = parse_scenario(cfg_file(tmp_path))
    assert parse_scenario_dict(emit_config(cfg)) == cfg
    cfg2 = parse_scenario(
        cfg_file(
            tmp_path,
            {
                "analyses": {"dynamics": True},
                "dynamics": {"delta": 1e-4, "kind": "random-smooth", "seed": 3},
            },
        )
    )
    assert parse_scenario_dict(emit_config(cfg2)) == cfg2


def test_run_scenario_report_shape(tmp_path):
    cfg = parse_scenario(cfg_file(tmp_path))
    report, code, _, _ = run_scenario(cfg)
    assert code == 0
    assert report["assumptions"]["ok"]
    assert report["verdict"]["overall"] == "stable"
    block = report["blocks"][0]
    assert block["epsilon"] == 0.1
    assert block["slope"]["slope_sign"] == "negative"
    assert block["spectrum"]["n_negative"] == 1
    assert report["convergence"]["slope_scaled"]


def test_eps_zero_block_analyses_the_finite_difference_state():
    # the eps = 0 block analysed the sine-collocation limit state with the
    # finite-difference L: the translation eigenvalue came out negative,
    # n(L) = 2 and the verdict "unstable" for a stable wave
    report, code, _, _ = run_scenario(parse_scenario_dict(dict(BASE, epsilons=[0, 0.1])))
    assert code == 0
    block = next(b for b in report["blocks"] if b["epsilon"] == 0.0)
    assert block["spectrum"]["n_negative"] == 1
    assert block["gss_verdict"] == "stable"
    assert abs(block["spectrum"]["eigenvalues"][1]) < 1e-10


def test_one_dimensional_scenario_settles_its_limit_state_once(monkeypatch, caplog):
    # every block settled the sine limit state on the line again; now the
    # scenario settles it once, and each block's settle takes no step
    newton = elliptic._newton
    constant_z = []

    def recording(grid, z_int, *args, **kwargs):
        out = newton(grid, z_int, *args, **kwargs)
        constant_z.append(bool(np.all(z_int == z_int[0])))
        return out

    monkeypatch.setattr(elliptic, "_newton", recording)
    cfg = parse_scenario_dict(dict(BASE, epsilons=[0.1, 0.05, 0.025]))
    with caplog.at_level(logging.DEBUG, logger="kgstab"):
        assert run_scenario(cfg)[1] == 0
    done = [r.getMessage() for r in caplog.records if r.getMessage().startswith("newton done:")]
    assert len(done) == len(constant_z)
    steps = [int(re.search(r", (\d+) iterations", m).group(1)) for m in done]
    assert sum(1 for c, n in zip(constant_z, steps) if c and n > 0) == 1


SADDLE_2D = {
    "dimension": 2,
    "p": 3.0,
    "m": 1.0,
    "omega": 0.5,
    "potentials": {
        "W": [{"type": "quadratic", "matrix": [[0.3, 0.0], [0.0, -0.3]], "center": [0.0, 0.0]}]
    },
    "epsilons": [0.2, 0.05],
    "analyses": {"slope_asymptotic": True},
}


def test_2d_asymptotic_only_run_has_no_profile():
    # these blocks continued on the radial limit grid, which samples Z
    # along one axis only: eps = 0.2 lost positivity and the run exited 1
    report, code, _, _ = run_scenario(parse_scenario_dict(SADDLE_2D))
    assert code == 0
    for block in report["blocks"]:
        assert "profile" not in block
        assert block["slope"]["charge"] is None
        assert block["slope"]["charge_scaled"] is None
        assert block["slope"]["predicted_sign"] == "positive"


def test_3d_asymptotic_only_run_has_no_profile():
    raw = json.loads(json.dumps(BASE))
    raw.update({"dimension": 3, "omega": 0.5, "analyses": {"slope_asymptotic": True}})
    raw["potentials"]["W"][0]["center"] = [0.0, 0.0, 0.0]
    del raw["grid"]
    report, code, _, _ = run_scenario(parse_scenario_dict(raw))
    assert code == 0
    block = report["blocks"][0]
    assert "profile" not in block
    assert block["slope"]["charge"] is None


def _run_python(*args):
    """`python *args` on this checkout's src/."""
    src = str(Path(kgstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_python_dash_m_runs_the_cli():
    proc = _run_python("-m", "kgstab", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "analyze" in proc.stdout


def test_cli_module_runs_without_a_runtime_warning():
    # the package imported kgstab.cli, so `-m kgstab.cli` ran it a second
    # time and warned "'kgstab.cli' found in sys.modules"
    proc = _run_python("-W", "error::RuntimeWarning", "-m", "kgstab.cli", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "analyze" in proc.stdout


def test_run_scenario_assumption_failure(tmp_path):
    cfg = parse_scenario(cfg_file(tmp_path, {"omega": 1.2}))
    report, code, _, _ = run_scenario(cfg)
    assert code == 1
    assert not report["assumptions"]["ok"]
    assert report["blocks"] == []


def test_analyze_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["analyze", str(cfg_file(tmp_path)), "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    assert (out / "report.meta.json").exists()
    assert (out / "slope_convergence.csv").exists()
    assert "stable" in capsys.readouterr().out


def test_analyze_reports_are_reproducible(tmp_path):
    cfg = cfg_file(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["analyze", str(cfg), "--out", str(out1)]) == 0
    assert main(["analyze", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 1}')
    assert main(["analyze", str(bad)]) == 2
    assert "/p" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_invalid_json_is_a_config_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([command, str(bad)]) == 2
    assert "config error at /: invalid JSON" in capsys.readouterr().err


def test_evolve_subcommand(tmp_path, capsys):
    cfg = cfg_file(
        tmp_path,
        {
            "analyses": {"dynamics": True},
            "dynamics": {
                "delta": 1e-3,
                "T_over_epsilon": 10.0,
                "record_every": 20,
                "grid": {"geometry": "line", "extent": 40.0, "n": 1601},
            },
        },
    )
    out = tmp_path / "dyn"
    rc = main(["evolve", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "trajectory_eps_0.1.csv").exists()
    assert "stayed-in-tube" in capsys.readouterr().out


def test_run_shorter_than_one_step_is_a_dynamics_error_entry(tmp_path):
    # T/dt rounded to no step raised a bare ValueError: a traceback, no report
    cfg = cfg_file(
        tmp_path,
        {
            "analyses": {"dynamics": True},
            "dynamics": {"T_over_epsilon": 1e-6, "grid": {"extent": 40.0, "n": 801}},
        },
    )
    out = tmp_path / "dyn"
    main(["evolve", str(cfg), "--out", str(out)])
    (block,) = json.loads((out / "report.json").read_text())["blocks"]
    assert block["dynamics"]["error"]["type"] == "UnstableStep"


def test_evolve_prints_an_error_entry_as_type_and_message(tmp_path, capsys):
    # it printed the entry's dict repr:
    # epsilon 0: {'type': 'SkippedError', 'message': 'dynamics needs epsilon > 0'}
    cfg = cfg_file(tmp_path, {"epsilons": [0], "analyses": {"dynamics": True}})
    assert main(["evolve", str(cfg), "--out", str(tmp_path / "dyn")]) == 1
    assert capsys.readouterr().out == "epsilon 0: SkippedError: dynamics needs epsilon > 0\n"


def test_evolve_on_a_pinned_2d_box(tmp_path, capsys):
    # the limit state on a pinned box was seeded from the 1d axis: IndexError
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 2,
                "p": 2.0,
                "m": 1.0,
                "omega": 0.5,
                "potentials": {
                    "W": [{"type": "quadratic", "matrix": [[0.3, 0.0], [0.0, 0.2]]}]
                },
                "epsilons": [0.1],
                "analyses": {"dynamics": True},
                "dynamics": {
                    "delta": 1e-3,
                    "T_over_epsilon": 1.0,
                    "grid": {"geometry": "box", "extent": 20.0, "n": 41},
                },
            }
        )
    )
    out = tmp_path / "dyn"
    assert main(["evolve", str(path), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    block = json.loads((out / "report.json").read_text())["blocks"][0]["dynamics"]
    assert block["grid"] == {"extent": 20.0, "n": 41}
    assert block["steps"] > 0


def test_sweep_subcommand(tmp_path):
    raw = json.loads(json.dumps(SWEEP_BASE))
    raw["omegas"] = [0.9, 0.3]
    raw["analyses"] = {"slope_numeric": True, "slope_asymptotic": True}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "sw"
    rc = main(["sweep", str(path), "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert (out / "report_omega_0.9.json").exists()
    assert (out / "report_omega_0.3.json").exists()


def test_sweep_records_a_failed_limit_solve_and_runs_the_rest(tmp_path, capsys):
    # at omega 0.96 the limit state is too wide for the pinned extent 12:
    # GridTooSmall escaped, so 0.5 never ran and no sweep.csv was written;
    # once it ran on, sweep.csv held no row for 0.96
    raw = dict(SWEEP_BASE, omegas=[0.3, 0.96, 0.5], grid={"extent": 12.0, "n": 2401})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "sw"
    assert main(["sweep", str(path), "--out", str(out)]) == 1
    reports = {om: json.loads((out / f"report_omega_{om}.json").read_text()) for om in raw["omegas"]}
    failed = reports[0.96]
    assert failed["limit"]["error"]["type"] == "GridTooSmall"
    assert failed["blocks"] == []
    assert all("error" not in reports[om]["limit"] for om in (0.3, 0.5))
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0].endswith(",gss_verdict,error")
    assert [r.split(",")[:2] for r in rows[1:]] == [["0.3", "0.1"], ["0.96", ""], ["0.5", "0.1"]]
    assert rows[2] == "0.96,,,,not-computed,GridTooSmall"
    assert rows[1].endswith(",")
    # analyze at the failing omega writes its report too
    single = tmp_path / "one.json"
    single.write_text(json.dumps(dict(BASE, omega=0.96, grid=raw["grid"])))
    assert main(["analyze", str(single), "--out", str(tmp_path / "one")]) == 1
    report = json.loads((tmp_path / "one" / "report.json").read_text())
    assert report["limit"]["error"]["type"] == "GridTooSmall"
    assert report["blocks"] == []


@pytest.mark.parametrize("command", ["analyze", "evolve", "sweep"])
def test_sidecar_records_dynamics_timing(tmp_path, command):
    raw = json.loads(json.dumps(BASE))
    raw["epsilons"] = [0.1, 0.05]
    raw["analyses"] = {"dynamics": True}
    raw["dynamics"] = {
        "delta": 1e-3,
        "T_over_epsilon": 2.0,
        "record_every": 7,
        "grid": {"geometry": "line", "extent": 40.0, "n": 801},
    }
    if command == "sweep":
        raw["omegas"] = [raw.pop("omega")]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 0
    name = "report_omega_0.9" if command == "sweep" else "report"
    report = json.loads((out / f"{name}.json").read_text())
    meta = json.loads((out / f"{name}.meta.json").read_text())
    assert meta["command"] == command
    timings = meta["dynamics"]
    # sweep sidecars had no runtime_s
    assert meta["runtime_s"] >= sum(t["evolve_s"] for t in timings)
    assert [t["epsilon"] for t in timings] == [0.1, 0.05]
    for block, t in zip(report["blocks"], timings):
        assert t["steps"] == block["dynamics"]["steps"] > 0
        assert t["evolve_s"] > 0.0
        assert t["steps_per_s"] == pytest.approx(t["steps"] / t["evolve_s"])
        # S1 and its radial bump are even: the march keeps half the line
        assert t["folded_axes"] == [0]
        assert not {"evolve_s", "steps_per_s", "folded_axes", "_timing"} & set(block["dynamics"])
    assert "_dynamics_timings" not in report


def sweep_into(tmp_path, monkeypatch, cpus, omegas, **overrides):
    """`kgstab sweep` of SWEEP_BASE, with `overrides`, over `omegas` with `cpus`
    CPUs in the affinity mask; (exit code, output directory)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(dict(SWEEP_BASE, omegas=omegas, **overrides)))
    out = tmp_path / f"cpus{cpus}"
    return main(["sweep", str(path), "--out", str(out)]), out


forks_workers = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="sweep workers are forked on Linux only"
)


@forks_workers
def test_sweep_in_workers_writes_what_the_in_process_sweep_writes(tmp_path, monkeypatch):
    omegas = [0.95, 0.5, 0.3]
    run_scenario = cli.run_scenario

    def slowest_first(config):  # forked workers inherit the patch
        if config.params.omega == omegas[0]:
            time.sleep(0.3)
        return run_scenario(config)

    monkeypatch.setattr(cli, "run_scenario", slowest_first)
    (serial_code, serial), (pooled_code, pooled) = (
        sweep_into(tmp_path, monkeypatch, cpus, omegas) for cpus in (1, 2)
    )
    assert serial_code == pooled_code == 0
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in pooled.iterdir())
    # per omega its report, sidecar and two convergence tables, and sweep.csv
    assert len(names) == 13
    for name in names:
        if name.endswith(".meta.json"):
            meta, pooled_meta = (json.loads((d / name).read_text()) for d in (serial, pooled))
            assert meta.keys() == pooled_meta.keys()
            assert (meta["workers"], pooled_meta["workers"]) == (1, 2)
        else:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name
    metas = [json.loads((pooled / f"report_omega_{om:g}.meta.json").read_text()) for om in omegas]
    # each point's own time, not the wait for it
    assert metas[0]["runtime_s"] >= 0.3 > metas[1]["runtime_s"]
    # the first point finished last, yet the writes follow omega order
    written = [meta["written_at"] for meta in metas]
    assert written == sorted(written)


@forks_workers
def test_a_failed_point_fails_the_sweep_as_in_process(tmp_path, monkeypatch, capsys):
    run_scenario = cli.run_scenario

    def stalls_at_half(config):
        if config.params.omega == 0.5:
            raise NoConvergence("stalled", residual=1e-3, iterations=7)
        return run_scenario(config)

    monkeypatch.setattr(cli, "run_scenario", stalls_at_half)
    seen = []
    for cpus in (1, 2):
        code, out = sweep_into(tmp_path, monkeypatch, cpus, [0.3, 0.5, 0.9])
        seen.append((code, capsys.readouterr().err, sorted(p.name for p in out.iterdir())))
    # the files of the points before the failed one are written, nothing after it
    written = [
        "report_omega_0.3.json",
        "report_omega_0.3.meta.json",
        "shift_convergence_omega_0.3.csv",
        "slope_convergence_omega_0.3.csv",
    ]
    assert seen == [(1, "NoConvergence: stalled\n", written)] * 2


@forks_workers
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_sweep_point_writes_what_analyze_writes(tmp_path, monkeypatch, cpus):
    # a sweep point wrote only its report: its convergence tables and
    # trajectories were computed and dropped
    overrides = {
        "analyses": dict(BASE["analyses"], dynamics=True),
        "dynamics": {"T_over_epsilon": 0.5, "grid": {"extent": 40.0, "n": 801}},
    }
    omegas = [0.9, 0.8]
    code, swept = sweep_into(tmp_path, monkeypatch, cpus, omegas, **overrides)
    assert code == 0
    written = ["sweep.csv"]
    for om in omegas:
        path = tmp_path / f"analyze{om:g}.json"
        path.write_text(json.dumps(dict(BASE, omega=om, **overrides)))
        out = tmp_path / f"analyze{om:g}"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        sfx = f"_omega_{om:g}"
        # analyze's file -> the sweep's file for this omega
        names = {
            "report.json": f"report{sfx}.json",
            "slope_convergence.csv": f"slope_convergence{sfx}.csv",
            "shift_convergence.csv": f"shift_convergence{sfx}.csv",
            "trajectory_eps_0.1.csv": f"trajectory{sfx}_eps_0.1.csv",
        }
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "report.meta.json"])
        for name, swept_name in names.items():
            assert (swept / swept_name).read_bytes() == (out / name).read_bytes(), swept_name
        written += [*names.values(), f"report{sfx}.meta.json"]
    assert sorted(p.name for p in swept.iterdir()) == sorted(written)


@pytest.mark.parametrize(
    "platform, omegas", [("linux", [0.9]), ("darwin", [0.9, 0.5])], ids=["one-point", "not-linux"]
)
def test_sweep_in_process_starts_no_process(tmp_path, monkeypatch, platform, omegas):
    def fork():
        raise AssertionError("sweep started a process")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(sys, "platform", platform)
    code, out = sweep_into(tmp_path, monkeypatch, 2, omegas)
    assert code == 0
    for om in omegas:
        assert json.loads((out / f"report_omega_{om:g}.meta.json").read_text())["workers"] == 1


def test_errors_survive_a_pickle_round_trip():
    # a sweep worker's error reaches the parent by pickle; SchemaError
    # and ModeConflict did not rebuild from their one formatted message
    kinds = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.KgError)]
    assert {NoConvergence, SchemaError, ModeConflict} < set(kinds)
    for kind in kinds:
        if issubclass(kind, SchemaError):
            exc = kind("/grid/n", "expected an integer")
        elif kind is NoConvergence:
            exc = kind("stalled", residual=1e-3, iterations=7)
        else:
            exc = kind("failed")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is kind
        assert str(back) == str(exc)
        for attr in ("path", "reason", "residual", "iterations"):
            assert getattr(back, attr, None) == getattr(exc, attr, None)


def test_dynamics_only_scenario_solves_no_scenario_limit_state(monkeypatch):
    raw = dict(BASE, epsilons=[0.1, 0.05], analyses={"dynamics": True})
    raw["dynamics"] = {"T_over_epsilon": 0.5, "grid": {"extent": 40.0, "n": 801}}
    solved = []
    solve = kgstab.cli.solve_limit_ground_state
    monkeypatch.setattr(
        kgstab.cli,
        "solve_limit_ground_state",
        lambda z0, p, grid, **kw: solved.append(grid) or solve(z0, p, grid, **kw),
    )
    report, code, _, _ = run_scenario(parse_scenario_dict(raw))
    assert code == 0
    # one limit state per dynamics run, on its own grid, and none reported
    assert [g.n for g in solved] == [801, 801]
    assert "limit" not in report
    assert all(b["dynamics"]["steps"] > 0 for b in report["blocks"])


def test_report_is_plain_data():
    # the dynamics route passed its TrajectoryRecord and timing through
    # "_"-keys of the report, which json.dumps could not serialize
    raw = dict(BASE, epsilons=[0.1, 0.05])
    raw["analyses"] = dict(BASE["analyses"], dynamics=True)
    raw["dynamics"] = {"T_over_epsilon": 0.5, "grid": {"extent": 40.0, "n": 801}}
    result = run_scenario(parse_scenario_dict(raw))
    report = result[0]
    json.dumps(report, allow_nan=False)

    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)
        elif isinstance(node, list):
            for value in node:
                yield from keys(value)

    assert not [k for k in keys(report) if k.startswith("_")]
    _, code, runs, solver = result
    assert code == 0
    assert [timing["epsilon"] for _, timing in runs] == [0.1, 0.05]
    for block, (record, timing) in zip(report["blocks"], runs):
        assert block["dynamics"]["steps"] == record.steps == timing["steps"] > 0
    assert solver == []  # a line run solves no box


def test_epsilons_that_name_one_trajectory_file_are_a_config_error(tmp_path, capsys):
    # 0.2 and 0.2000001 both ran, and the second wrote over the first's
    # trajectory_eps_0.2.csv
    raw = dict(BASE, epsilons=[0.2, 0.2000001], analyses={"dynamics": True})
    raw["dynamics"] = {"T_over_epsilon": 0.5, "grid": {"extent": 40.0, "n": 801}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["evolve", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error at /epsilons/1:" in err
    assert "writes trajectory_eps_0.2.csv, as /epsilons/0 does" in err
    assert not out.exists()
    # a repeated epsilon is one run, and without dynamics no file is written
    assert parse_scenario_dict(dict(raw, epsilons=[0.2, 0.1, 0.2])).epsilons == (0.2, 0.1)
    no_dynamics = dict(raw, analyses={"slope_asymptotic": True})
    assert parse_scenario_dict(no_dynamics).epsilons == (0.2000001, 0.2)


def test_sidecar_has_no_dynamics_entry_without_dynamics(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", str(cfg_file(tmp_path)), "--out", str(out)]) == 0
    assert "dynamics" not in json.loads((out / "report.meta.json").read_text())


def test_tol_and_seed_overrides(tmp_path):
    cfg = parse_scenario(
        cfg_file(
            tmp_path,
            {
                "analyses": {"dynamics": True},
                "dynamics": {"seed": 1, "grid": {"geometry": "line", "extent": 40.0, "n": 1601}},
            },
        )
    )

    class Args:
        tol = 1e-8
        seed = 42
        out = None

    from kgstab.cli import _apply_overrides

    cfg2 = _apply_overrides(cfg, Args)
    assert cfg2.tol == 1e-8
    assert cfg2.dynamics.seed == 42


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_tol_override_must_be_positive(tmp_path, capsys, tol):
    out = tmp_path / "out"
    assert main(["analyze", str(cfg_file(tmp_path)), "--tol", tol, "--out", str(out)]) == 2
    assert "config error at /tol: expected a number > 0" in capsys.readouterr().err
    assert not out.exists()


INF, NAN = float("inf"), float("nan")
DYNAMICS_ONLY = {"analyses": {"dynamics": True}}


@pytest.mark.parametrize(
    "command, overrides, argv, pointer",
    [
        pytest.param("analyze", {"p": INF}, [], "/p", id="p-infinity"),
        pytest.param("analyze", {"p": 10**400}, [], "/p", id="p-401-digits"),
        pytest.param("analyze", {"omega": NAN}, [], "/omega", id="omega-nan"),
        pytest.param(
            "analyze", {"grid": {"extent": INF, "n": 2001}}, [], "/grid/extent",
            id="extent-infinity",
        ),
        pytest.param("analyze", {"epsilons": [INF]}, [], "/epsilons/0", id="epsilon-infinity"),
        pytest.param("analyze", {"tol": INF}, [], "/tol", id="tol-infinity"),
        pytest.param("analyze", {}, ["--tol", "inf"], "/tol", id="tol-override-inf"),
        pytest.param(
            "evolve", dict(DYNAMICS_ONLY, dynamics={"T_over_epsilon": INF}), [],
            "/dynamics/T_over_epsilon", id="T_over_epsilon-infinity",
        ),
        pytest.param(
            "evolve",
            dict(DYNAMICS_ONLY, dynamics={"delta": NAN, "T_over_epsilon": 1.0}),
            [],
            "/dynamics/delta",
            id="delta-nan",
        ),
        pytest.param("sweep", {"omegas": [0.9, INF]}, [], "/omegas/1", id="omegas-infinity"),
    ],
)
def test_non_finite_number_is_a_config_error(
    tmp_path, monkeypatch, capsys, command, overrides, argv, pointer
):
    # json.load reads NaN, Infinity and 1e400 as floats, and these used to
    # crash with a traceback or run to exit 0 or 1 on meaningless numbers
    monkeypatch.chdir(tmp_path)
    base = SWEEP_BASE if command == "sweep" else BASE
    Path("scenario.json").write_text(json.dumps(dict(base, **overrides)))
    assert main([command, "scenario.json", "--out", "out", *argv]) == 2
    assert f"config error at {pointer}:" in capsys.readouterr().err
    assert os.listdir() == ["scenario.json"]


@pytest.mark.parametrize(
    "build, pointer",
    [
        (lambda: Grid(1, "line", INF, 101), "/grid/extent"),
        (lambda: ProblemParams(1, INF, 1.0, 0.9, 0.1), "/params/p"),
        (lambda: ProblemParams(1, 3.0, INF, 0.9, 0.1), "/params/m"),
        (lambda: ProblemParams(1, 3.0, 1.0, NAN, 0.1), "/params/omega"),
        (lambda: ProblemParams(1, 3.0, 1.0, -INF, 0.1), "/params/omega"),
        (lambda: ProblemParams(1, 3.0, 1.0, 0.9, INF), "/params/epsilon"),
        (lambda: ProblemParams(1, 3.0, 1.0, 0.9, NAN), "/params/epsilon"),
    ],
)
def test_non_finite_parameter_is_rejected(build, pointer):
    assert pointer_of(build) == pointer


def test_capped_limit_grid_says_so(caplog):
    # Z0 = 1 - 0.8367^2 = 0.3: h = 0.01 needs 5113 radial nodes, above the cap
    raw = dict(BASE, dimension=2, omega=0.8367, analyses={"slope_asymptotic": True})
    raw["potentials"] = {"W": [{"type": "quadratic", "matrix": [[-0.3, 0.0], [0.0, -0.3]]}]}
    del raw["grid"]
    with caplog.at_level(logging.WARNING, logger="kgstab"):
        report, code, _, _ = run_scenario(parse_scenario_dict(raw))
    assert code == 0
    limit = report["limit"]
    assert (limit["geometry"], limit["n"], limit["h_requested"]) == ("radial", 4001, 0.01)
    assert limit["extent"] / (limit["n"] - 1) > 0.0125
    assert any("needs 5114 nodes, capped at 4001" in r.getMessage() for r in caplog.records)
    # an uncapped automatic grid reports no requested h
    raw["omega"] = 0.3
    assert "h_requested" not in run_scenario(parse_scenario_dict(raw))[0]["limit"]


def _limit_count(grid):
    """Nodes of the line at h = LIMIT_H over the grid's extent."""
    return int(round(2.0 * grid.extent / LIMIT_H)) + 1


# the 14 omegas of the S1 ladder and the node counts of their limit lines
LADDER_NODES = {
    0.3: 5185, 0.35: 5446, 0.4: 5401, 0.45: 5601, 0.5: 5776, 0.55: 6076, 0.6: 6562,
    0.65: 6616, 0.7: 7204, 0.75: 7876, 0.8: 9076, 0.85: 10081, 0.9: 13126, 0.95: 22051,
}


def _ladder_z0(omega):
    config = parse_scenario_dict(dict(BASE, omega=omega))
    return find_critical_point(config.params, config.pair, config.critical_guess).z0


def test_automatic_limit_line_is_fft_sized(caplog):
    # z0 <= 1: lines of 4801 nodes and more, the shortest S1 ever needs;
    # z0 < 0.04 binds the cap, and z0 near 0.0405 gives even counts just
    # below it, which round past the cap to the cap itself
    z0s = [*np.geomspace(0.02, 1.0, 300), *np.linspace(0.0400, 0.0413, 20)]
    z0s += [_ladder_z0(om) for om in LADDER_NODES]
    for z0 in z0s:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kgstab"):
            grid, capped = _auto_limit_grid(1, z0)
        n, count = grid.n, _limit_count(grid)
        assert scipy.fft.next_fast_len(n - 1) == n - 1
        assert n <= 24001 and capped == (count > 24001)
        warned = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warned) == int(capped)
        (debug,) = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert debug == f"limit grid: h = 0.01 needs {count} nodes, granted {n}, h = {grid.h:.6g}"
        if capped:
            assert n == 24001
        elif n == 24001 and count % 2 == 0:
            assert count > 23626
        else:
            assert n % 2 == count % 2
            assert count <= n <= 1.06 * count
            assert grid.h <= 2.0 * grid.extent / (count - 1)  # h only shrinks
    # `_fft_nodes` finds the sizes of scipy.fft.next_fast_len on its own
    for count in range(3, 24002):
        m = scipy.fft.next_fast_len(count - 1)
        while m % 2 != (count - 1) % 2:
            m = scipy.fft.next_fast_len(m + 1)
        assert cli._fft_nodes(count) == m + 1, count


def test_ladder_limit_lines_are_pinned():
    # scipy picks the fast sizes; a version that picks others fails here
    got = {om: _auto_limit_grid(1, _ladder_z0(om))[0].n for om in LADDER_NODES}
    assert got == LADDER_NODES


@pytest.mark.parametrize(
    "command, overrides, pointer",
    [
        pytest.param(
            "analyze", {"grid": {"extent": 40.0, "n": 10**400}}, "/grid/n", id="line-401-digits"
        ),
        pytest.param("analyze", {"grid": {"extent": 40.0, "n": 10**9}}, "/grid/n", id="line-1e9"),
        pytest.param(
            "analyze",
            {
                "dimension": 2,
                "potentials": {"W": [{"type": "quadratic", "matrix": [[0.3, 0.0], [0.0, -0.3]]}]},
                "grid": {"geometry": "box", "extent": 15.0, "n": 4097},
            },
            "/grid/n",
            id="box-2d-4097",
        ),
        pytest.param(
            "evolve",
            dict(DYNAMICS_ONLY, dynamics={"grid": {"extent": 70.0, "n": 10**400}}),
            "/dynamics/grid/n",
            id="dynamics-line-401-digits",
        ),
    ],
)
def test_oversize_pinned_grid_is_a_config_error(
    tmp_path, monkeypatch, capsys, command, overrides, pointer
):
    # a 401-digit pinned n died with a ValueError traceback from np.arange,
    # and a large representable one tried to allocate its grid
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps(dict(BASE, **overrides)))
    assert main([command, "scenario.json", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert f"config error at {pointer}: a grid has at most 16777216 nodes in all" in err
    assert "Traceback" not in err
    assert os.listdir() == ["scenario.json"]


def test_error_entry_keeps_solver_evidence():
    entry = _error_entry(NoConvergence("stalled", residual=3e-7, iterations=12))
    assert entry == {
        "error": {
            "type": "NoConvergence",
            "message": "stalled",
            "residual": 3e-7,
            "iterations": 12,
        }
    }
    partial = _error_entry(NoConvergence("no residual", iterations=4))
    assert partial["error"]["iterations"] == 4
    assert "residual" not in partial["error"]
    plain = _error_entry(GridTooSmall("domain too small"))
    assert plain == {"error": {"type": "GridTooSmall", "message": "domain too small"}}


# -- one schema for parse and emit -------------------------------------------

NUM = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
POSITIVE = st.one_of(st.integers(1, 1000), st.floats(0.0, 1e3, exclude_min=True))
NONNEGATIVE = st.one_of(st.integers(0, 1000), st.floats(0.0, 1e3))
DYNAMICS_BLOCKS = st.fixed_dictionaries(
    {},
    optional={
        "delta": NONNEGATIVE,
        "kind": st.sampled_from(["radial-bump", "random-smooth", "none"]),
        "seed": st.integers(0, 2**31),
        "T_over_epsilon": POSITIVE,
        "dt_factor": POSITIVE,
        "order": st.sampled_from([2, 4]),
        "record_every": st.integers(1, 10**6),
        "tube_stay": POSITIVE,
        "tube_exit": POSITIVE,
        "grid": st.fixed_dictionaries(
            {"extent": st.floats(0.5, 100.0), "n": st.integers(8, 5000)},
            optional={"geometry": st.just("line")},
        ),
    },
)
CENTERS = st.lists(NUM, min_size=1, max_size=1)
TERMS = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("gaussian"), "amplitude": NUM},
        optional={"center": CENTERS, "width": st.floats(1e-3, 1e3)},
    ),
    st.fixed_dictionaries(
        {"type": st.just("quadratic"), "matrix": st.lists(CENTERS, min_size=1, max_size=1)},
        optional={"center": CENTERS},
    ),
)


@settings(max_examples=60, deadline=None)
@given(DYNAMICS_BLOCKS, st.lists(TERMS, max_size=3), st.lists(TERMS, max_size=3))
def test_emit_parse_round_trip(dynamics, v_terms, w_terms):
    raw = json.loads(json.dumps(BASE))
    raw["analyses"] = {"dynamics": True, "spectrum": True}
    raw["dynamics"] = dynamics
    raw["potentials"] = {"V": v_terms, "W": w_terms}
    cfg = parse_scenario_dict(raw)
    emitted = emit_config(cfg)
    assert parse_scenario_dict(emitted) == cfg
    assert emit_config(parse_scenario_dict(json.loads(json.dumps(emitted)))) == emitted


BAD_DYNAMICS = {
    "delta": "1e-3",
    "kind": "gaussian",
    "seed": True,
    "T_over_epsilon": None,
    "dt_factor": [0.2],
    "order": 3,
    "record_every": True,
    "tube_stay": False,
    "tube_exit": {},
}


def test_every_dynamics_field_has_a_rejection_case():
    assert set(BAD_DYNAMICS) == set(_DYNAMICS_FIELDS)
    # the kinds come from `dynamics.PERTURBATION_KINDS`, the message with them
    assert _DYNAMICS_FIELDS["kind"][1] == "expected radial-bump | random-smooth | none"


@pytest.mark.parametrize(
    "key, value",
    sorted(BAD_DYNAMICS.items())
    + [("record_every", 0), ("seed", 1.5), ("order", 2.0)]
    + [("dt_factor", 0), ("dt_factor", -0.2), ("T_over_epsilon", -1), ("T_over_epsilon", 0.0)]
    + [("delta", -0.05), ("tube_stay", -1), ("tube_stay", 0), ("tube_exit", -1), ("tube_exit", 0.0)],
)
def test_dynamics_field_rejected_with_pointer(key, value):
    raw = json.loads(json.dumps(BASE))
    raw["analyses"] = {"dynamics": True}
    raw["dynamics"] = {key: value}
    assert pointer_of(lambda: parse_scenario_dict(raw)) == f"/dynamics/{key}"


@pytest.mark.parametrize(
    "edit, pointer",
    [
        (lambda r: r.update(grdi={}), "/grdi"),
        (lambda r: r.update(omegas=[0.9]), "/omegas"),
        (lambda r: r["potentials"].update(U=[]), "/potentials/U"),
        (lambda r: r["potentials"]["W"][0].update(widht=2.0), "/potentials/W/0/widht"),
        (
            lambda r: r["potentials"].update(V=[{"type": "quadratic", "matrix": [[1.0]], "width": 1.0}]),
            "/potentials/V/0/width",
        ),
        (lambda r: r["grid"].update(N=10), "/grid/N"),
        (lambda r: r["analyses"].update(slope=True), "/analyses/slope"),
        (
            lambda r: r.update(analyses={"dynamics": True}, dynamics={"T_over_eps": 10.0}),
            "/dynamics/T_over_eps",
        ),
        (
            lambda r: r.update(analyses={"dynamics": True}, dynamics={"grid": {"extent": 9.0, "n": 9, "h": 1}}),
            "/dynamics/grid/h",
        ),
    ],
)
def test_unknown_key_rejected_with_pointer(edit, pointer):
    raw = json.loads(json.dumps(BASE))
    edit(raw)
    assert pointer_of(lambda: parse_scenario_dict(raw)) == pointer


def shifted_scenario(s: float) -> dict:
    # an off-center V makes the critical point a generic one (x0 = 0.156 + s)
    return dict(
        BASE,
        potentials={
            "V": [{"type": "gaussian", "amplitude": 0.02, "center": [0.7 + s], "width": 1.5}],
            "W": [{"type": "gaussian", "amplitude": 0.05, "center": [s], "width": 1.0}],
        },
        critical_guess=[s],
        grid={"geometry": "line", "extent": 40.0, "n": 801},
    )


@settings(max_examples=15, deadline=None)
@given(s=st.floats(-5.0, 5.0, allow_nan=False))
def test_translation_leaves_the_analysis_unchanged(s):
    ref = run_scenario(parse_scenario_dict(shifted_scenario(0.0)))[0]["blocks"][0]
    got = run_scenario(parse_scenario_dict(shifted_scenario(s)))[0]["blocks"][0]
    for key in ("n_negative", "gss"):
        assert got["spectrum"][key] == ref["spectrum"][key], key
    for key in ("slope_sign", "predicted_sign"):
        assert got["slope"][key] == ref["slope"][key], key
    lam, lam_ref = np.array(got["spectrum"]["eigenvalues"]), np.array(ref["spectrum"]["eigenvalues"])
    assert np.all(np.abs(lam - lam_ref) <= 1e-9 * np.abs(lam_ref))


def first_block(raw: dict) -> dict:
    return run_scenario(parse_scenario_dict(raw))[0]["blocks"][0]


def assert_same_slope_and_count(got: dict, ref: dict) -> None:
    assert got["slope"]["slope_sign"] == ref["slope"]["slope_sign"]
    assert got["spectrum"]["n_negative"] == ref["spectrum"]["n_negative"]
    slope, slope_ref = got["slope"]["slope_numeric"], ref["slope"]["slope_numeric"]
    assert abs(slope - slope_ref) <= 1e-10 * abs(slope_ref)


def s1_at(a: float) -> dict:
    # S1 with its gaussian and the critical guess moved to a: Z stays even
    # about x0 = a, so the solves fold
    return dict(
        BASE,
        potentials={"W": [{"type": "gaussian", "amplitude": 0.05, "center": [a], "width": 1.0}]},
        critical_guess=[a],
        grid={"geometry": "line", "extent": 40.0, "n": 801},
    )


def mirrored(raw: dict) -> dict:
    """The scenario under x -> -x: every centre and the guess negated."""
    terms = {
        key: [dict(t, center=[-c for c in t["center"]]) for t in ts]
        for key, ts in raw["potentials"].items()
    }
    return dict(raw, potentials=terms, critical_guess=[-c for c in raw["critical_guess"]])


@settings(max_examples=10, deadline=None)
@given(a=st.floats(-5.0, 5.0, allow_nan=False))
def test_s1_translation_leaves_the_slope_unchanged(a):
    assert_same_slope_and_count(first_block(s1_at(a)), first_block(s1_at(0.0)))


@settings(max_examples=10, deadline=None)
@given(a=st.floats(-5.0, 5.0, allow_nan=False))
def test_mirror_leaves_the_slope_unchanged(a):
    # on the off-centre V of shifted_scenario the profile is not even,
    # so the reflection maps one unfolded solve onto another
    raw = shifted_scenario(a)
    assert_same_slope_and_count(first_block(mirrored(raw)), first_block(raw))


def test_unpinned_2d_dynamics_grid_is_an_error_entry():
    cfg = parse_scenario_dict(
        {
            "dimension": 2,
            "p": 3.0,
            "m": 1.0,
            "omega": 0.5,
            "potentials": {
                "W": [{"type": "quadratic", "matrix": [[0.3, 0.0], [0.0, 0.3]]}]
            },
            "epsilons": [0.05],
            "analyses": {"dynamics": True},
        }
    )
    report, code, _, _ = run_scenario(cfg)
    assert code == 1
    err = report["blocks"][0]["dynamics"]["error"]
    assert err["type"] == "GridTooSmall"
    assert "/dynamics/grid" in err["message"]


@pytest.mark.parametrize(
    "text, pointer",
    [
        ("{not json", "/"),
        ("[1, 2]", "/"),
        (json.dumps(dict(SWEEP_BASE, omegas=[0.9], out=5)), "/out"),
        (json.dumps(dict(SWEEP_BASE, omegas=[0.9, "x"])), "/omegas/1"),
        (json.dumps(dict(SWEEP_BASE, omegas=[])), "/omegas"),
        (json.dumps(dict(SWEEP_BASE, omegas=[0.9, 0.3], grid={"extent": 1.0, "n": 2001, "m": 4})), "/grid/m"),
        # both would write report_omega_0.9.json
        (json.dumps(dict(SWEEP_BASE, omegas=[0.9, 0.3, 0.9000001])), "/omegas/2"),
        # unlike a repeated epsilon, a repeated omega is not one point
        (json.dumps(dict(SWEEP_BASE, omegas=[0.9, 0.9])), "/omegas/1"),
        # "omega" was overwritten by each of the omegas without a word
        (json.dumps(dict(BASE, omegas=[0.9, 0.8])), "/omega"),
    ],
    ids=[
        "invalid-json",
        "array-root",
        "out-not-string",
        "bad-omega",
        "no-omegas",
        "unknown-grid-key",
        "report-name-collision",
        "repeated-omega",
        "omega-beside-omegas",
    ],
)
def test_sweep_config_errors(tmp_path, monkeypatch, capsys, text, pointer):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(text)
    assert main(["sweep", "sweep.json"]) == 2
    assert f"config error at {pointer}:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "sweep.json"]


def test_a_sweep_writes_the_same_bytes_with_the_fold_memo_cleared_or_warm(tmp_path, monkeypatch):
    run_scenario = cli.run_scenario

    def cold(config):
        grids.fold.cache_clear()
        return run_scenario(config)

    outputs = {}
    for memo in ("cleared", "priming", "warm"):
        if memo == "cleared":
            monkeypatch.setattr(cli, "run_scenario", cold)
        else:
            monkeypatch.setattr(cli, "run_scenario", run_scenario)
        before = grids.fold.cache_info()
        (tmp_path / memo).mkdir()
        code, out = sweep_into(tmp_path / memo, monkeypatch, 1, [0.9, 0.5])
        assert code == 0
        outputs[memo] = {p.name: p.read_bytes() for p in out.iterdir() if not p.name.endswith(".meta.json")}
    after = grids.fold.cache_info()
    # the warm sweep built no fold: each came from the memo
    assert after.misses == before.misses and after.hits > before.hits
    assert len(outputs["cleared"]) == 7
    assert outputs["cleared"] == outputs["warm"]


def _scipy_blas_threads() -> int:
    libdir = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    (lib,) = glob.glob(os.path.join(libdir, "*openblas*"))
    handle = ctypes.CDLL(lib)
    get = getattr(handle, "scipy_openblas_get_num_threads", None) or handle.openblas_get_num_threads
    return int(get())


BOX_DYNAMICS = {
    "dimension": 2,
    "p": 2.0,
    "m": 1.0,
    "potentials": {"W": [{"type": "quadratic", "matrix": [[0.3, 0.0], [0.0, 0.2]]}]},
    "epsilons": [0.1],
    "analyses": {"dynamics": True},
    "dynamics": {"T_over_epsilon": 0.2, "grid": {"geometry": "box", "extent": 20.0, "n": 41}},
}


@forks_workers
@pytest.mark.parametrize("scenario", ["line", "box"])
def test_sweep_workers_run_scipy_openblas_at_one_thread_where_a_point_factors_a_box(
    tmp_path, monkeypatch, scenario
):
    if workers.scipy_openblas_setter() is None:
        pytest.skip("scipy bundles no OpenBLAS here")
    run_scenario = cli.run_scenario

    def with_blas_threads(config):  # forked workers inherit the patch
        report, *rest = run_scenario(config)
        return dict(report, blas_threads=_scipy_blas_threads()), *rest

    monkeypatch.setattr(cli, "run_scenario", with_blas_threads)
    path = tmp_path / "sweep.json"
    raw = dict(BOX_DYNAMICS if scenario == "box" else SWEEP_BASE, omegas=[0.5, 0.6])
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 0
    threads = {
        json.loads((tmp_path / "out" / f"report_omega_{om:g}.json").read_text())["blas_threads"]
        for om in (0.5, 0.6)
    }
    # a 1d sweep keeps the default threads: the limit slowed the 1d sweep
    assert threads == ({1} if scenario == "box" else {_scipy_blas_threads()})


LINE_FREE = (
    "scipy.fft", "scipy.special", "scipy.sparse", "scipy.sparse.linalg",
    "scipy.linalg", "scipy._lib._util", "numpy.f2py",
)


def test_line_runs_load_neither_scipy_sparse_nor_scipy_fft(tmp_path):
    # the sine limit solver transforms with numpy's FFT, only box operators
    # import scipy.sparse, at their first use, and LAPACK's tridiagonal
    # routines come from scipy's _flapack extension, loaded without the
    # scipy.linalg package; the sweep runs on one CPU, so that its points
    # solve in this process
    analyze = cfg_file(tmp_path, {"grid": {"geometry": "line", "extent": 40.0, "n": 801}})
    evolve = tmp_path / "evolve.json"
    raw = dict(json.loads(analyze.read_text()), analyses={"dynamics": True})
    raw["dynamics"] = {"T_over_epsilon": 2.0, "grid": {"extent": 40.0, "n": 801}}
    evolve.write_text(json.dumps(raw))
    sweep = tmp_path / "sweep.json"
    raw = dict(json.loads(analyze.read_text()), omegas=[0.85, 0.9])
    del raw["omega"]
    sweep.write_text(json.dumps(raw))
    code = f"""
import os, sys
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
from kgstab.cli import main
codes = [
    main(["analyze", {str(analyze)!r}, "--out", {str(tmp_path / "a")!r}]),
    main(["evolve", {str(evolve)!r}, "--out", {str(tmp_path / "e")!r}]),
    main(["sweep", {str(sweep)!r}, "--out", {str(tmp_path / "s")!r}]),
]
print(codes, [m for m in {LINE_FREE!r} if m in sys.modules])
"""
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_scipy_linalg_after_the_cli_reuses_its_lapack():
    # the _flapack extension the CLI loads by itself is the one a later
    # import of scipy.linalg (and scipy.sparse.linalg, as a box run) finds
    code = """
import numpy as np
import kgstab.cli
from kgstab import elliptic
import scipy.sparse, scipy.sparse.linalg
import scipy.linalg.lapack as lapack
assert lapack.dgttrf is elliptic.flapack.dgttrf and lapack.dstebz is elliptic.flapack.dstebz
rng = np.random.default_rng(0)
lower, upper = rng.standard_normal(29), rng.standard_normal(29)
main, b = rng.standard_normal(30) + 4.0, rng.standard_normal(30)
*factors, info = lapack.dgttrf(lower, main, upper)
assert info == 0
assert np.array_equal(elliptic.factor_banded(lower, main, upper).solve(b), lapack.dgttrs(*factors, b)[0])
a = scipy.sparse.diags([lower, main, upper], [-1, 0, 1], format="csc")
assert np.allclose(a @ scipy.sparse.linalg.splu(a).solve(b), b)
print("ok")
"""
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_sidecar_records_the_box_chain_counters(tmp_path, command):
    # each epsilon block of a box run: the factorizations, sweeps and most
    # sweeps in one solve of the chain of Newton solves its profile ends,
    # counted from the scenario's epsilon = 0 state; a sweep point's reach
    # its sidecar from the worker
    raw = {
        "dimension": 2,
        "p": 3.0,
        "m": 1.0,
        "potentials": {"W": [{"type": "quadratic", "matrix": [[0.3, 0.0], [0.0, -0.3]]}]},
        "epsilons": [0.1, 0.05],
        "analyses": {"slope_asymptotic": True, "spectrum": True},
        "grid": {"geometry": "box", "extent": 14.0, "n": 71},
    }
    raw.update({"omegas": [0.5, 0.55]} if command == "sweep" else {"omega": 0.5})
    path = tmp_path / "box.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 0
    names = ["report_omega_0.5", "report_omega_0.55"] if command == "sweep" else ["report"]
    for name in names:
        meta = json.loads((out / f"{name}.meta.json").read_text())
        counters = meta["solver"]
        assert [c["epsilon"] for c in counters] == [0.1, 0.05]
        for c in counters:
            assert set(c) == {"epsilon", "factorizations", "refinement_sweeps", "most_sweeps_per_solve"}
            assert c["factorizations"] >= 1 and c["refinement_sweeps"] >= c["most_sweeps_per_solve"] > 0
        # the spectrum released the first block's LDL^T: the second factors again
        assert counters[1]["factorizations"] > counters[0]["factorizations"]
        assert counters[1]["refinement_sweeps"] > counters[0]["refinement_sweeps"]
        assert "solver" not in (out / f"{name}.json").read_text()
    # a line run factors no box, and its sidecar has no counters
    assert main(["analyze", str(cfg_file(tmp_path)), "--out", str(tmp_path / "line")]) == 0
    assert "solver" not in json.loads((tmp_path / "line" / "report.meta.json").read_text())


def test_a_2d_analyze_does_not_import_scipy_interpolate(tmp_path):
    # the radial limit state reaches the box by a spline that scipy's
    # CubicSpline no longer builds; scipy.sparse loads at the box's first
    # sparse operation
    path = tmp_path / "box.json"
    raw = {
        "dimension": 2,
        "p": 3.0,
        "m": 1.0,
        "omega": 0.5,
        "potentials": {"W": [{"type": "quadratic", "matrix": [[0.3, 0.0], [0.0, -0.3]]}]},
        "epsilons": [0.1],
        "analyses": {"spectrum": True, "slope_numeric": True},
        "grid": {"geometry": "box", "extent": 14.0, "n": 71},
    }
    path.write_text(json.dumps(raw))
    code = (
        "import sys; from kgstab.cli import main; "
        f"code = main(['analyze', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'scipy.interpolate' in sys.modules, 'scipy.sparse.linalg' in sys.modules)"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False True"
