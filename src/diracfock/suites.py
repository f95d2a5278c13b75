"""Verification suites run by the scenario CLI.

Each suite takes a validated configuration plus the physical constants, and
returns a list of check results together with any text
artifacts (time series, vector dumps) keyed by output file name.  All
randomness is drawn from generators seeded with (config seed, suite salt),
so selecting a subset of suites never shifts another suite's stream.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import ScenarioConfig
from .constants import PhysicalConstants
from .dynamics import (
    _raw_pair_current,
    current,
    divergence,
    action_value,
    evolve,
    gaussian_packet,
    grid_norm,
    plane_wave,
)
from .fields import SpinorField
from .fock import (
    FockVector,
    annihilate,
    antisymmetrize,
    basis_state,
    car_report,
    create,
    format_fock_vector,
    multiparticle_inner,
    parse_fock_vector,
    vacuum,
)
from .geometry import (
    build_background,
    concordance_residuals,
    frame_orthonormality_residual,
    torsion_residual,
)
from .pairing import (
    RankDeficientModeError,
    coordinate_slice,
    flux,
    gram,
    inner,
    orthonormalize,
    tilted_slice,
)
from .report import (
    CheckResult,
    check_at_least,
    check_at_most,
    check_exact_zero,
    check_in,
    render_series,
)
from .spin_algebra import (
    DIRAC_FORM_SIGNATURE,
    FRAME,
    GAMMA_SIGNATURE,
    METRIC_SIGNATURE,
    check_dirac_form_identities,
    clifford_residual,
    tau_conjugate,
)

SuiteOutput = tuple[list[CheckResult], dict[str, str]]

_SALTS = {"identities": 1, "connection": 2, "evolve": 3, "current": 4, "pairing": 5, "fock": 6}


def _rng(cfg: ScenarioConfig, suite: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, _SALTS[suite]])


def _expected_gamma() -> np.ndarray:
    zero = np.zeros((2, 2), dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    sigma = (
        np.array([[0, 1], [1, 0]], dtype=np.complex128),
        np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        np.array([[1, 0], [0, -1]], dtype=np.complex128),
    )
    mats = [np.block([[zero, eye], [eye, zero]])]
    for s in sigma:
        mats.append(np.block([[zero, -s], [s, zero]]))
    return np.stack(mats)


def suite_identities(cfg: ScenarioConfig, k: PhysicalConstants) -> SuiteOutput:
    results: list[CheckResult] = []
    s = "identities"

    results.append(
        check_exact_zero(s, "gamma_matrix_entries", float(np.max(np.abs(FRAME.gamma - _expected_gamma()))))
    )
    eta = np.diag([1.0, -1.0, -1.0, -1.0]).astype(np.complex128)
    results.append(check_exact_zero(s, "metric_signature", float(np.max(np.abs(FRAME.metric - eta)))))

    form = check_dirac_form_identities(FRAME)
    results.append(check_exact_zero(s, "dirac_form_hermiticity", form.hermiticity_residual))
    results.append(check_exact_zero(s, "dirac_form_contraction", form.contraction_residual))
    results.append(check_exact_zero(s, "clifford_residual", clifford_residual(FRAME)))
    results.append(
        check_exact_zero(
            s, "chirality_square", float(np.max(np.abs(FRAME.chirality @ FRAME.chirality - np.eye(4))))
        )
    )
    results.append(
        check_exact_zero(
            s, "form_equals_time_gamma", float(np.max(np.abs(FRAME.dirac_form - FRAME.gamma[0])))
        )
    )
    results.append(
        check_exact_zero(
            s, "skew_metric_antisymmetry", float(np.max(np.abs(FRAME.skew_metric + FRAME.skew_metric.T)))
        )
    )
    results.append(
        check_exact_zero(
            s,
            "metric_conjugation_reality",
            float(np.max(np.abs(tau_conjugate(FRAME.metric, METRIC_SIGNATURE)[0] - FRAME.metric))),
        )
    )
    results.append(
        check_exact_zero(
            s,
            "form_conjugation_reality",
            float(np.max(np.abs(tau_conjugate(FRAME.dirac_form, DIRAC_FORM_SIGNATURE)[0] - FRAME.dirac_form))),
        )
    )

    rng = _rng(cfg, s)
    block = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    once, sig1 = tau_conjugate(block, GAMMA_SIGNATURE)
    twice, _ = tau_conjugate(once, sig1)
    results.append(check_exact_zero(s, "conjugation_involution", float(np.max(np.abs(twice - block)))))
    return results, {}


_CONCORDANCE_FIELDS = (
    "nabla_metric",
    "nabla_skew_metric",
    "nabla_chirality",
    "nabla_dirac_form",
    "nabla_gamma",
)


def suite_connection(cfg: ScenarioConfig, k: PhysicalConstants) -> SuiteOutput:
    results: list[CheckResult] = []
    s = "connection"

    def build(shape):
        return build_background(replace(cfg, shape=shape).build_chart())

    fine_shape = tuple(2 * n if n > 1 else 1 for n in cfg.shape)
    coarse = build(cfg.shape)
    fine = build(fine_shape)
    rc = concordance_residuals(coarse).as_dict()
    rf = concordance_residuals(fine).as_dict()

    floor = cfg.tol("connection_floor")
    lo, hi = cfg.tol("ratio_low"), cfg.tol("ratio_high")
    for name in _CONCORDANCE_FIELDS:
        a, b = rc[name], rf[name]
        if max(a, b) <= floor:
            # both resolutions already at the rounding floor: converged
            results.append(check_at_most(s, "floor_" + name, max(a, b), floor))
        else:
            results.append(check_in(s, "ratio_" + name, a / b, lo, hi))
        results.append(check_at_most(s, "residual_" + name, b, cfg.tol("connection_residual")))

    results.append(check_exact_zero(s, "torsion_coarse", torsion_residual(coarse)))
    results.append(check_exact_zero(s, "torsion_fine", torsion_residual(fine)))
    results.append(
        check_at_most(s, "frame_orthonormality", frame_orthonormality_residual(fine), cfg.tol("orthonormality"))
    )
    return results, {}


def _flux_series(out: SpinorField, bg, j, dj) -> list[tuple[int, float, float, float, float]]:
    chart = bg.chart
    weights = coordinate_slice(bg, float(chart.axes[0][0])).area_weights
    rows = []
    for step, t in enumerate(chart.axes[0]):
        nrm = grid_norm(out.values[step], chart)
        flx = float(np.sum(j.values[step, ..., 0] * weights))
        mdj = float(np.max(np.abs(dj[step])))
        rows.append((step, float(t), nrm, flx, mdj))
    return rows


def suite_evolve(cfg: ScenarioConfig, k: PhysicalConstants) -> SuiteOutput:
    results: list[CheckResult] = []
    artifacts: dict[str, str] = {}
    s = "evolve"

    charts = {}
    backgrounds = {}
    for mult in (1, 2, 4):
        chart = cfg.build_chart().with_time_axis(cfg.t_start, cfg.t_span, cfg.steps * mult)
        charts[mult] = chart
        backgrounds[mult] = build_background(chart)

    base_chart = charts[1]
    base_bg = backgrounds[1]

    for i, mode in enumerate(cfg.modes):
        label = "m%d" % (i + 1)
        exact = plane_wave(base_chart, mode.k_index, k, spin=mode.spin, branch=mode.branch)
        out = evolve(exact.values[0], base_bg, k, growth_abort=cfg.growth_abort)
        err = float(np.max(np.abs(out.values - exact.values)))
        results.append(check_at_most(s, label + "_evolution_error", err, cfg.tol("evolution_error")))

        # quarter-step reference on the same spatial grid: the semi-discrete
        # space error cancels, leaving pure time-integrator error
        runs = {1: out}
        for mult in (2, 4):
            ex = plane_wave(charts[mult], mode.k_index, k, spin=mode.spin, branch=mode.branch)
            runs[mult] = evolve(ex.values[0], backgrounds[mult], k, growth_abort=cfg.growth_abort)
        ref = runs[4].values[::4]
        e1 = float(np.max(np.abs(runs[1].values - ref)))
        e2 = float(np.max(np.abs(runs[2].values[::2] - ref)))
        results.append(
            check_in(s, label + "_halving_ratio", e1 / e2, cfg.tol("ratio_low"), cfg.tol("ratio_high"))
        )

        norms = np.array([grid_norm(out.values[n], base_chart) for n in range(len(out.taxis))])
        drift = float(np.max(np.abs(norms - norms[0])))
        results.append(check_at_most(s, label + "_norm_drift", drift, cfg.tol("norm_drift")))

        j = current(out, k)
        dj = divergence(j, base_bg)
        results.append(
            check_at_most(s, label + "_max_divergence", float(np.max(np.abs(dj))), cfg.tol("divergence"))
        )

        fname = "series.csv" if i == 0 else "series_%s.csv" % label
        artifacts[fname] = render_series(_flux_series(out, base_bg, j, dj))

    # action checks on the scenario chart
    rng = _rng(cfg, s)
    shape = (len(base_chart.axes[0]),) + base_chart.spatial_shape + (4,)
    worst_rel = 0.0
    for _ in range(50):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = SpinorField(chart=base_chart, taxis=base_chart.axes[0], values=v)
        val = action_value(f, base_bg, k)
        worst_rel = max(worst_rel, abs(val.imag) / abs(val.real))
    results.append(check_at_most(s, "action_reality", worst_rel, cfg.tol("action_reality")))

    mode = cfg.modes[0]
    oracle = plane_wave(base_chart, mode.k_index, k, spin=mode.spin, branch=mode.branch)
    eps = 1e-3
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # summation by parts needs the perturbation to vanish near the
        # non-periodic time edges (one-sided stencil rows)
        v[:5] = 0.0
        v[-5:] = 0.0
        pert = SpinorField(chart=base_chart, taxis=base_chart.axes[0], values=v)
        sp = action_value(oracle + eps * pert, base_bg, k)
        sm = action_value(oracle - eps * pert, base_bg, k)
        worst = max(worst, abs((sp - sm) / (2.0 * eps)))
    results.append(check_at_most(s, "action_stationarity", worst, cfg.tol("stationarity")))
    return results, artifacts


def suite_current(cfg: ScenarioConfig, k: PhysicalConstants) -> SuiteOutput:
    from .dynamics import timelike_report

    results: list[CheckResult] = []
    s = "current"
    rng = _rng(cfg, s)
    samples = rng.standard_normal((cfg.samples, 4)) + 1j * rng.standard_normal((cfg.samples, 4))
    rep = timelike_report(samples, k)

    results.append(check_at_least(s, "norm_nonnegative", rep.min_norm, -cfg.tol("timelike_floor")))
    results.append(check_at_least(s, "time_component_nonnegative", rep.min_time_component, 0.0))
    results.append(check_at_most(s, "closed_form_mismatch", rep.closed_form_mismatch, cfg.tol("closed_form")))
    scale = max(1.0, k.c * float(np.max(np.sum(np.abs(samples) ** 2, axis=-1))))
    results.append(
        check_at_most(s, "current_reality", rep.reality_residual / scale, cfg.tol("current_reality"))
    )

    # frozen single-point currents with integer spinor entries
    e0 = np.array([1, 0, 0, 0], dtype=np.complex128)
    j0 = _raw_pair_current(e0, e0, k).real
    results.append(
        check_exact_zero(
            s, "lightlike_example", float(np.max(np.abs(j0 - k.c * np.array([1.0, 0, 0, 1.0]))))
        )
    )
    bal = np.array([1, 0, 1, 0], dtype=np.complex128)
    jb = _raw_pair_current(bal, bal, k).real
    results.append(
        check_exact_zero(
            s, "rest_example", float(np.max(np.abs(jb - k.c * np.array([2.0, 0, 0, 0]))))
        )
    )
    return results, {}


def suite_pairing(cfg: ScenarioConfig, k: PhysicalConstants) -> SuiteOutput:
    results: list[CheckResult] = []
    s = "pairing"
    chart = cfg.build_chart()
    bg = build_background(chart)
    t0 = float(chart.axes[0][0])
    t1 = float(chart.axes[0][-1])

    center = cfg.packet_center
    if center is None:
        center = cfg.origin[0] + 0.5 * cfg.lengths[0]
    width = cfg.packet_width
    if width is None:
        width = cfg.lengths[0] / 16.0

    init = gaussian_packet(chart, k, center=center, width=width, carrier_index=cfg.packet_carrier)
    out = evolve(init, bg, k, growth_abort=cfg.growth_abort)
    j = current(out, k)

    s0 = coordinate_slice(bg, t0)
    f0 = flux(j, s0)
    results.append(check_at_most(s, "flux_normalization", abs(f0 - 1.0), cfg.tol("flux_normalization")))
    fT = flux(j, coordinate_slice(bg, t1))
    results.append(check_at_most(s, "slice_independence_time", abs(fT - f0), cfg.tol("slice_independence")))
    tmid = 0.5 * (t0 + t1)
    ftilt = flux(j, tilted_slice(bg, tmid, cfg.tilt))
    results.append(
        check_at_most(s, "slice_independence_tilted", abs(ftilt - f0), cfg.tol("slice_independence"))
    )
    # off-node time exercises the cubic interpolation path
    toff = tmid + 0.37 * (t1 - t0) / cfg.steps
    fmid = flux(j, coordinate_slice(bg, toff))
    results.append(
        check_at_most(s, "slice_independence_interpolated", abs(fmid - f0), cfg.tol("slice_independence"))
    )

    modes = []
    for mode in cfg.modes[:4]:
        exact = plane_wave(chart, mode.k_index, k, spin=mode.spin, branch=mode.branch)
        modes.append(evolve(exact.values[0], bg, k, growth_abort=cfg.growth_abort))

    g0 = gram(modes, s0, k)
    gT = gram(modes, coordinate_slice(bg, t1), k)
    results.append(
        check_at_most(s, "gram_identity", float(np.max(np.abs(g0 - np.eye(len(modes))))), cfg.tol("hermiticity"))
    )
    results.append(check_at_most(s, "gram_drift", float(np.max(np.abs(gT - g0))), cfg.tol("gram_drift")))
    results.append(
        check_at_most(s, "hermiticity", float(np.max(np.abs(g0 - g0.conj().T))), cfg.tol("hermiticity"))
    )
    self_inners = [float(np.real(g0[a, a])) for a in range(len(modes))]
    self_inners.append(float(np.real(inner(out, out, s0, k))))
    results.append(check_at_least(s, "positivity", min(self_inners), 0.0))

    if len(modes) >= 2:
        mixed = SpinorField(
            chart=chart, taxis=chart.axes[0], values=0.6 * modes[0].values + 0.8 * modes[1].values
        )
        family = [modes[0], mixed] + modes[2:]
        ortho = orthonormalize(family, s0, k)
        g_on = gram(ortho, s0, k)
        results.append(
            check_at_most(
                s,
                "orthonormalize_residual",
                float(np.max(np.abs(g_on - np.eye(len(ortho))))),
                cfg.tol("orthonormality"),
            )
        )
        dependent = SpinorField(
            chart=chart, taxis=chart.axes[0], values=modes[0].values - 2.0 * modes[1].values
        )
        flag = 1.0
        try:
            orthonormalize([modes[0], modes[1], dependent], s0, k)
        except RankDeficientModeError as exc:
            flag = 0.0 if exc.index == 2 else 1.0
        results.append(check_exact_zero(s, "rank_deficiency_detected", flag))
    return results, {}


def suite_fock(cfg: ScenarioConfig, k: PhysicalConstants) -> SuiteOutput:
    results: list[CheckResult] = []
    s = "fock"

    st = basis_state((0, 2))
    results.append(
        check_exact_zero(
            s, "annihilate_sorted_slot", (annihilate(2, st) + basis_state((0,))).norm()
        )
    )
    results.append(
        check_exact_zero(
            s, "create_sorted_slot", (create(1, st) + basis_state((0, 1, 2))).norm()
        )
    )
    results.append(check_exact_zero(s, "create_occupied_zero", create(0, st).norm()))
    results.append(check_exact_zero(s, "annihilate_empty_zero", annihilate(1, st).norm()))
    results.append(
        check_exact_zero(
            s, "antisymmetrize_sorted", (antisymmetrize((0, 2)) - basis_state((0, 2))).norm()
        )
    )
    results.append(
        check_exact_zero(
            s, "antisymmetrize_swap_sign", (antisymmetrize((2, 0)) + basis_state((0, 2))).norm()
        )
    )
    results.append(check_exact_zero(s, "antisymmetrize_repeat_zero", antisymmetrize((1, 1)).norm()))
    results.append(
        check_exact_zero(
            s, "antisymmetrize_three_slot", (antisymmetrize((3, 1, 2)) - basis_state((1, 2, 3))).norm()
        )
    )

    for m in range(1, cfg.fock_modes + 1):
        results.append(check_exact_zero(s, "car_m%d" % m, car_report(m).max()))

    # orthonormality on integer occupation inputs is exact
    states = [basis_state(t) for t in ((0,), (1,), (0, 1), (0, 2), (1, 2, 3))]
    worst = 0.0
    for a, va in enumerate(states):
        for b, vb in enumerate(states):
            expected = 1.0 if a == b else 0.0
            worst = max(worst, abs(multiparticle_inner(va, vb) - expected))
    results.append(check_exact_zero(s, "orthonormality_integer", worst))

    rng = _rng(cfg, s)
    n, nm = 3, 6
    a = rng.standard_normal((n, nm)) + 1j * rng.standard_normal((n, nm))
    b = rng.standard_normal((n, nm)) + 1j * rng.standard_normal((n, nm))

    def slater(rows):
        vec = vacuum()
        for idx in range(n - 1, -1, -1):
            nxt = FockVector()
            for i in range(nm):
                nxt = nxt + complex(rows[idx, i]) * create(i, vec)
            vec = nxt
        return vec

    gmat = np.array([[np.vdot(a[p], b[q]) for q in range(n)] for p in range(n)])
    det = complex(np.linalg.det(gmat))
    ip = multiparticle_inner(slater(a), slater(b))
    rel = abs(det - ip) / max(abs(det), 1e-300)
    results.append(check_at_most(s, "gram_determinant", rel, cfg.tol("gram_determinant")))

    dump_vec = antisymmetrize((3, 1, 2)) + 0.5 * basis_state((0, 1)) + (0.25 + 0.125j) * vacuum()
    text = format_fock_vector(dump_vec)
    results.append(check_exact_zero(s, "dump_round_trip", (parse_fock_vector(text) - dump_vec).norm()))
    return results, {"fock_vector.txt": text}


SUITES = {
    "identities": suite_identities,
    "connection": suite_connection,
    "evolve": suite_evolve,
    "current": suite_current,
    "pairing": suite_pairing,
    "fock": suite_fock,
}
