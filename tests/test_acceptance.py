"""End-to-end acceptance gate.

Each test prints exactly one summary line so the whole gate reads as eight
pass/fail rows under pytest -s.  Bounds are pinned literals, not imports,
so a tolerance regression in the library cannot loosen this file.
"""

import json
import os
import time

import numpy as np

from diracfock import (
    PhysicalConstants,
    SpinorField,
    action_value,
    annihilate,
    antisymmetrize,
    basis_state,
    build_background,
    canonical_gamma_set,
    car_report,
    concordance_residuals,
    create,
    minkowski_chart,
    multiparticle_inner,
    plane_wave,
    static_diagonal_chart,
    tau_conjugate,
    timelike_report,
    torsion_residual,
    vacuum,
)
from diracfock.cli import main
from diracfock.spin_algebra import DIRAC_FORM_SIGNATURE, METRIC_SIGNATURE

TWO_PI = 2.0 * np.pi


def report_line(index, label, ok, started):
    print("acceptance %d %-34s %s  (%.2fs)" % (index, label, "PASS" if ok else "FAIL", time.time() - started))
    assert ok, label


def test_acceptance_1_constant_matrices_exact():
    started = time.time()
    gs = canonical_gamma_set()
    I2 = np.eye(2)
    sig = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    Z = np.zeros((2, 2))
    expected_gamma = [np.block([[Z, I2], [I2, Z]])] + [
        np.block([[Z, -s], [s, Z]]) for s in sig
    ]
    expected_h = np.block([[I2, Z], [Z, -I2]])
    eps = np.array([[0, 1], [-1, 0]])
    expected_d = np.block([[eps, Z], [Z, -eps]])

    ok = all(np.array_equal(gs.gamma[q], expected_gamma[q]) for q in range(4))
    ok = ok and np.array_equal(gs.chirality, expected_h)
    ok = ok and np.array_equal(gs.skew_metric, expected_d)
    ok = ok and np.array_equal(gs.dirac_form, expected_gamma[0])
    ok = ok and np.array_equal(gs.metric, np.diag([1.0, -1.0, -1.0, -1.0]))

    eta = np.real(gs.metric)
    for p in range(4):
        for q in range(4):
            anti = gs.gamma[p] @ gs.gamma[q] + gs.gamma[q] @ gs.gamma[p]
            ok = ok and np.array_equal(anti, 2.0 * eta[p, q] * np.eye(4))
    ok = ok and np.array_equal(gs.chirality @ gs.chirality, np.eye(4))
    ok = ok and np.array_equal(tau_conjugate(gs.metric, METRIC_SIGNATURE)[0], gs.metric)
    ok = ok and np.array_equal(tau_conjugate(gs.dirac_form, DIRAC_FORM_SIGNATURE)[0], gs.dirac_form)

    elapsed_ok = time.time() - started < 1.0
    report_line(1, "constant matrices and identities", ok and elapsed_ok, started)


def test_acceptance_2_connection_convergence():
    started = time.time()
    reports = {}
    for n in (64, 128):
        chart = static_diagonal_chart(
            0.0, 1.0, 2, (TWO_PI, TWO_PI, TWO_PI), (n, 1, 1), epsilon=0.01
        )
        bg = build_background(chart)
        reports[n] = (concordance_residuals(bg).as_dict(), torsion_residual(bg))
    ok = reports[64][1] == 0.0 and reports[128][1] == 0.0
    for name, coarse in reports[64][0].items():
        fine = reports[128][0][name]
        if coarse <= 1e-14:
            ok = ok and fine <= 1e-14
        else:
            ok = ok and 12.0 <= coarse / fine <= 20.0
    elapsed_ok = time.time() - started < 30.0
    report_line(2, "connection 4th-order convergence", ok and elapsed_ok, started)


def test_acceptance_3_current_causal_character():
    started = time.time()
    nat = PhysicalConstants.natural_units(mass=1.0)
    rng = np.random.default_rng(20260819)
    samples = rng.standard_normal((100000, 4)) + 1j * rng.standard_normal((100000, 4))
    rep = timelike_report(samples, nat)
    ok = (
        rep.samples == 100000
        and rep.min_norm >= -1e-12
        and rep.min_time_component >= 0.0
        and rep.closed_form_mismatch <= 1e-12
    )
    elapsed_ok = time.time() - started < 5.0
    report_line(3, "current timelike and future-directed", ok and elapsed_ok, started)


def run_scenario_checks(name, out_dir):
    code = main(["run", name, "--out", out_dir])
    with open(os.path.join(out_dir, "checks.jsonl"), "r", encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh.read().splitlines()]
    return code, entries


def test_acceptance_4_plane_wave_evolution(tmp_path, capsys):
    started = time.time()
    ok = True
    for name in ("flat_rest_wave", "flat_boosted_wave"):
        code, entries = run_scenario_checks(name, str(tmp_path / name))
        ok = ok and code == 0 and all(e["passed"] for e in entries)
        checks = {e["check"] for e in entries}
        for needed in (
            "m1_evolution_error",
            "m1_discrete_solution",
            "m1_norm_drift",
            "m1_max_divergence",
        ):
            ok = ok and needed in checks
    capsys.readouterr()
    elapsed_ok = time.time() - started < 120.0
    report_line(4, "evolution error, order, norm, charge", ok and elapsed_ok, started)


def test_acceptance_5_pairing_suite(tmp_path, capsys):
    started = time.time()
    code, entries = run_scenario_checks("flat_pairing", str(tmp_path / "pairing"))
    ok = code == 0 and all(e["passed"] for e in entries)
    checks = {e["check"] for e in entries}
    for needed in (
        "flux_normalization",
        "slice_independence_time",
        "slice_independence_tilted",
        "hermiticity",
        "positivity",
        "gram_identity",
        "gram_drift",
    ):
        ok = ok and needed in checks
    capsys.readouterr()
    elapsed_ok = time.time() - started < 60.0
    report_line(5, "hypersurface pairing invariants", ok and elapsed_ok, started)


def test_acceptance_6_action_real_and_stationary():
    started = time.time()
    nat = PhysicalConstants.natural_units(mass=1.0)
    chart = minkowski_chart(0.0, 1.0, 100, (TWO_PI, TWO_PI, TWO_PI), (32, 1, 1))
    bg = build_background(chart)
    rng = np.random.default_rng(14)

    ok = True
    for _ in range(50):
        v = rng.standard_normal(chart.shape + (4,)) + 1j * rng.standard_normal(chart.shape + (4,))
        s = action_value(SpinorField(chart, v), bg, nat)
        ok = ok and abs(s.imag) <= 1e-10 * abs(s.real)

    wave = plane_wave(chart, (0, 0, 0), nat)
    eps = 1e-3
    for _ in range(20):
        v = rng.standard_normal(wave.values.shape) + 1j * rng.standard_normal(wave.values.shape)
        v[:5] = 0.0
        v[-5:] = 0.0
        pert = wave.with_values(v)
        sp = action_value(wave + eps * pert, bg, nat)
        sm = action_value(wave + (-eps) * pert, bg, nat)
        ok = ok and abs((sp - sm).real / (2.0 * eps)) <= 1e-6
    elapsed_ok = time.time() - started < 30.0
    report_line(6, "action reality and stationarity", ok and elapsed_ok, started)


def test_acceptance_7_fock_ladder_exact():
    started = time.time()
    ok = (annihilate(2, basis_state((0, 2))) + basis_state((0,))).norm() == 0.0
    ok = ok and (create(1, basis_state((0, 2))) + basis_state((0, 1, 2))).is_zero()
    ok = ok and create(0, basis_state((0,))).is_zero()
    ok = ok and annihilate(1, basis_state((0,))).is_zero()
    ok = ok and (create(0, vacuum()) - basis_state((0,))).is_zero()
    ok = ok and antisymmetrize((1, 1)).is_zero()
    ok = ok and antisymmetrize((0, 3, 0)).is_zero()
    ok = ok and (antisymmetrize((3, 1, 2)) - basis_state((1, 2, 3))).is_zero()

    for nmodes in range(1, 7):
        ok = ok and car_report(nmodes).max() == 0.0

    states = [(), (0,), (2,), (0, 1), (1, 3, 4)]
    for a in states:
        for b in states:
            want = 1.0 if a == b else 0.0
            ok = ok and multiparticle_inner(basis_state(a), basis_state(b)) == want
    elapsed_ok = time.time() - started < 10.0
    report_line(7, "ladder operators and CAR residuals", ok and elapsed_ok, started)


def test_acceptance_8_byte_identical_reruns(tmp_path, capsys):
    started = time.time()
    dirs = [str(tmp_path / d) for d in ("first", "second")]
    ok = True
    for d in dirs:
        ok = ok and main(["run", "flat_rest_wave", "--out", d]) == 0
    capsys.readouterr()
    for name in ("report.txt", "checks.jsonl", "series.csv"):
        with open(os.path.join(dirs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(dirs[1], name), "rb") as fh:
            second = fh.read()
        ok = ok and first == second
    report_line(8, "byte-identical repeated runs", ok, started)
