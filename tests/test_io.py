import json

import numpy as np
import pytest

from kgstab.elliptic import solve_limit_ground_state
from kgstab.grids import Grid
from kgstab.io import to_jsonable, trajectory_to_csv, write_csv, write_report


def test_to_jsonable_handles_numpy_and_dataclasses(free_limit):
    out = to_jsonable(
        {
            "f": np.float64(2.5),
            "i": np.int32(7),
            "arr": np.array([1.0, 2.0]),
            "tup": (1, "a"),
            "none": None,
        }
    )
    assert out == {"f": 2.5, "i": 7, "arr": [1.0, 2.0], "tup": [1, "a"], "none": None}
    prof = to_jsonable(free_limit)
    assert prof["epsilon"] == 0.0
    assert isinstance(prof["values"], list)


def test_to_jsonable_rejects_unknown():
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_report_write_read_round_trip(tmp_path):
    rep = {"b": [1, 2], "a": {"x": 0.5}}
    path = tmp_path / "r.json"
    write_report(rep, path, meta={"note": "check"})
    assert json.loads(path.read_text()) == rep
    meta = json.loads((tmp_path / "r.meta.json").read_text())
    assert meta["note"] == "check"
    assert "written_at" in meta


def test_report_bytes_are_deterministic(tmp_path):
    rep = {"z": 1.0, "a": [3, 2, 1]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(rep, p1)
    write_report(rep, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_csv_full_precision(tmp_path):
    path = tmp_path / "t.csv"
    val = 0.1234567890123456789
    write_csv(path, ["x", "y"], [[1, val]])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert float(lines[1].split(",")[1]) == val


def test_trajectory_csv(tmp_path, wave_record):
    path = tmp_path / "traj.csv"
    trajectory_to_csv(wave_record, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["t", "E", "Q", "d", "v_residual"]
    assert len(lines) == 1 + len(wave_record.times)
    # rows parse back as numbers at full precision
    t0 = float(lines[1].split(",")[0])
    assert t0 == float(wave_record.times[0])


@pytest.fixture(scope="module")
def wave_record():
    from kgstab.dynamics import Perturbation, evolve, init_perturbed_standing_wave, stable_dt
    from kgstab.elliptic import continue_profile
    from kgstab.potentials import (
        GaussianTerm,
        PotentialSpec,
        ProblemParams,
        find_critical_point,
        resolve_potentials,
    )

    params = ProblemParams(1, 3.0, 1.0, 0.9, 0.1)
    pair = resolve_potentials(
        params, None, PotentialSpec(1, (GaussianTerm(0.05, (0.0,), 1.0),))
    )
    z = find_critical_point(params, pair, (0.0,))
    g = Grid(1, "line", 40.0, 1201)
    limit = solve_limit_ground_state(z.z0, 3.0, g, method="fd")
    prof = continue_profile(limit, params, pair, z, grid=g)
    st = init_perturbed_standing_wave(prof, params, pair, Perturbation("none", 0.0, 0))
    dt = stable_dt(st, params, pair)
    return evolve(st, params, pair, dt, 40 * dt, record_every=10, profile=prof)
