"""The output checks reject wrong verdicts, counts and eigenvalues.

Run with `python3 -m pytest bench/tests -q` from the root of a checkout.
"""

import copy

import pytest

from workloads import (
    SWEEP_ANALYSES,
    SWEEP_EPSILONS,
    check_box2d,
    check_dyn1d,
    check_sweep,
    sweep_omegas,
)

OMEGAS = [0.5, 0.9]  # one unstable, one stable point
REFERENCE = [-4.0, -1e-3, 1e-3, 0.75, 0.79]


def sweep_report(om: float) -> dict:
    stable = om > 0.7
    verdict = "stable" if stable else "unstable"
    sign = "negative" if stable else "positive"
    blocks = [
        {
            "epsilon": eps,
            "slope": {"slope_sign": sign, "predicted_sign": sign},
            "spectrum": {"n_negative": 1},
            "gss_verdict": verdict,
        }
        for eps in SWEEP_EPSILONS
    ]
    return {"blocks": blocks, "verdict": {"overall": verdict}}


def failures(results):
    return {op: why for op, why in results if why is not None}


def test_sweep_check_accepts_right_reports():
    results = check_sweep(OMEGAS, {om: sweep_report(om) for om in OMEGAS})
    assert len(results) == len(OMEGAS) * len(SWEEP_EPSILONS) * len(SWEEP_ANALYSES)
    assert failures(results) == {}


def test_sweep_check_rejects_flipped_verdict():
    reports = {om: sweep_report(om) for om in OMEGAS}
    reports[0.9]["blocks"][1]["gss_verdict"] = "unstable"
    bad = failures(check_sweep(OMEGAS, reports))
    assert list(bad) == ["omega=0.9/eps=0.05/spectrum"]

    reports = {om: sweep_report(om) for om in OMEGAS}
    reports[0.5]["verdict"]["overall"] = "stable"
    bad = failures(check_sweep(OMEGAS, reports))
    assert sorted(bad) == [f"omega=0.5/eps={e:g}/spectrum" for e in sorted(SWEEP_EPSILONS)]


def test_sweep_check_rejects_wrong_n_negative():
    reports = {om: sweep_report(om) for om in OMEGAS}
    reports[0.5]["blocks"][0]["spectrum"]["n_negative"] = 2
    bad = failures(check_sweep(OMEGAS, reports))
    assert list(bad) == ["omega=0.5/eps=0.1/spectrum"]
    assert "n_negative 2" in bad["omega=0.5/eps=0.1/spectrum"]


def test_sweep_check_rejects_sign_mismatch_and_errors():
    reports = {om: sweep_report(om) for om in OMEGAS}
    reports[0.9]["blocks"][2]["slope"]["slope_sign"] = "indeterminate"
    reports[0.5]["blocks"][2]["slope"] = {"error": {"type": "NoConvergence", "message": "stalled"}}
    bad = failures(check_sweep(OMEGAS, reports))
    assert sorted(bad) == [
        "omega=0.5/eps=0.025/slope_asymptotic",
        "omega=0.5/eps=0.025/slope_numeric",
        "omega=0.9/eps=0.025/slope_numeric",
    ]


def test_sweep_check_counts_missing_report_as_failed():
    results = check_sweep(OMEGAS, {0.5: sweep_report(0.5), 0.9: None})
    assert len(failures(results)) == len(SWEEP_EPSILONS) * len(SWEEP_ANALYSES)


def box_report() -> dict:
    return {
        "blocks": [
            {
                "epsilon": 0.05,
                "spectrum": {"n_negative": 2, "hessian_negatives": 1, "eigenvalues": list(REFERENCE)},
                "slope": {"predicted_sign": "positive"},
            }
        ]
    }


def test_box2d_check():
    assert failures(check_box2d(box_report(), REFERENCE)) == {}
    wrong_count = box_report()
    wrong_count["blocks"][0]["spectrum"]["n_negative"] = 1
    assert list(failures(check_box2d(wrong_count, REFERENCE))) == ["eps=0.05/spectrum"]
    drifted = box_report()
    drifted["blocks"][0]["spectrum"]["eigenvalues"][1] *= 1.0 + 1e-7
    assert list(failures(check_box2d(drifted, REFERENCE))) == ["eps=0.05/spectrum"]
    within = box_report()
    within["blocks"][0]["spectrum"]["eigenvalues"][1] *= 1.0 + 1e-9
    assert failures(check_box2d(within, REFERENCE)) == {}


DYN_OK = {
    "verdict": "stayed-in-tube",
    "boundary_touched": False,
    "energy_drift": 1e-13,
    "charge_drift": 1e-13,
    "max_distance": 1e-8,
    "profile_h1_norm": 0.4,
}


@pytest.mark.parametrize(
    "change",
    [
        {"verdict": "exited-tube"},
        {"boundary_touched": True},
        {"energy_drift": 2e-6},
        {"charge_drift": 2e-6},
        {"max_distance": 1e-6},
    ],
)
def test_dyn1d_check_rejects(change):
    assert failures(check_dyn1d({"blocks": [{"epsilon": 0.1, "dynamics": DYN_OK}]})) == {}
    d = dict(copy.deepcopy(DYN_OK), **change)
    assert list(failures(check_dyn1d({"blocks": [{"epsilon": 0.1, "dynamics": d}]}))) == [
        "eps=0.1/dynamics"
    ]


def test_sweep_omegas_by_seed():
    assert sweep_omegas(0) == [round(0.30 + 0.05 * k, 10) for k in range(14)]
    for seed in range(1, 50):
        oms = sweep_omegas(seed)
        assert oms == sweep_omegas(seed)
        assert len(oms) == 14 and oms[0] == 0.3 and oms[-1] == 0.95
        assert oms == sorted(oms)
        assert all(abs(om - 0.475**0.5) >= 0.01 - 1e-6 for om in oms)
        assert all(abs(b - a - 0.05) < 0.026 for a, b in zip(oms[1:-2], oms[2:-1]))
