"""Verification suites run by the scenario CLI.

Each suite takes a validated configuration plus the physical constants, and
returns a list of check results together with any text
artifacts (time series, vector dumps) keyed by output file name.  All
randomness is drawn from generators seeded with (config seed, suite salt),
so selecting a subset of suites never shifts another suite's stream.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig, _packet_center_width
from .constants import PhysicalConstants
from .dynamics import (
    _BLOCK,
    _block_rows,
    _integrate,
    _march,
    _norms,
    _plane_wave_split,
    _raw_pair_current,
    _rk4_gain,
    current,
    divergence,
    action_value,
    dirac_residual,
    evolve,
    gaussian_packet,
    plane_wave,
    timelike_report,
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
    _slice_integral,
    coordinate_slice,
    _streamed_fluxes,
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
    _DIRAC_FORM_ROWS,
    DIRAC_FORM_SIGNATURE,
    FRAME,
    GAMMA_SIGNATURE,
    METRIC_SIGNATURE,
    _apply,
    check_dirac_form_identities,
    clifford_residual,
    tau_conjugate,
)

SuiteOutput = tuple[list[CheckResult], dict[str, str]]

_SALTS = {"identities": 1, "connection": 2, "evolve": 3, "current": 4, "pairing": 5, "fock": 6}


def _rng(cfg: ScenarioConfig, suite: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, _SALTS[suite]])


# Doubles per chunk of a draw's scratch (512 KiB): much smaller chunks add
# per-call cost to the evolve suite's 71 full-history draws.
_DRAW = 16 * _BLOCK

# The march's rounding drifts from its closed-form solution by about 1e-17 a
# step (1.1e-14 after 1000 steps of flat_rest_wave, 1.1e-12 after 100 000),
# so the `closed_form` bound covers this many steps and grows in proportion
# beyond them.
_ROUNDED_STEPS = 1000


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """rng.standard_normal(shape) + 1j * rng.standard_normal(shape), bit for bit,
    drawn into one complex array: the real parts, then the imaginary parts, go
    through one contiguous scratch of at most _DRAW doubles.  The generator's
    stream is sequential, so its values and its final state are those of the
    two whole draws."""
    out = np.empty(shape, dtype=np.complex128).reshape(-1)
    scratch = np.empty(min(_DRAW, out.size))
    for part in (out.real, out.imag):
        for s in range(0, out.size, _DRAW):
            chunk = scratch[: min(_DRAW, out.size - s)]
            part[s : s + len(chunk)] = rng.standard_normal(out=chunk)
    return out.reshape(shape)


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
    block = _complex_normal(rng, (4, 4, 4))
    once, sig1 = tau_conjugate(block, GAMMA_SIGNATURE)
    twice, _ = tau_conjugate(once, sig1)
    results.append(check_exact_zero(s, "conjugation_involution", float(np.max(np.abs(twice - block)))))
    return results, {}


def suite_connection(cfg: ScenarioConfig, k: PhysicalConstants) -> SuiteOutput:
    results: list[CheckResult] = []
    s = "connection"

    coarse = build_background(cfg.build_chart())
    fine = build_background(cfg.refined().build_chart())
    rc = concordance_residuals(coarse).as_dict()
    rf = concordance_residuals(fine).as_dict()

    floor = cfg.tol("connection_floor")
    lo, hi = cfg.tol("ratio_low"), cfg.tol("ratio_high")
    for name, a in rc.items():
        b = rf[name]
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


def _flux_series(bg, norms, j, dj) -> list[tuple[int, float, float, float, float]]:
    taxis = bg.chart.axes[0]
    s0 = coordinate_slice(bg, float(taxis[0]))
    rows = []
    for step, t in enumerate(taxis):
        flx = float(_slice_integral(j.values[step], s0))
        rows.append((step, float(t), float(norms[step]), flx, float(np.max(np.abs(dj[step])))))
    return rows


def _wave_gaps(values: np.ndarray, exact: np.ndarray, chart, w: float, parts: np.ndarray):
    """One pass over a plane wave's march ``values`` on ``chart``, in blocks of time rows:
    max |march - exact| (the analytic wave), max |march - its RK4 solution R(-+i w dt)^n P+-|
    (dynamics._plane_wave_split), and each row's grid_norm."""
    n = np.arange(len(values)).reshape(-1, 1, 1, 1, 1, 1)
    disc = _rk4_gain(np.array([-1j, 1j]).reshape(2, 1, 1, 1, 1) * (w * chart.dt)) ** n  # P+'s and P-'s
    step = _block_rows(values.shape[1:-1])
    err = gap = 0.0
    norms: list[float] = []
    for b in range(0, len(values), step):
        rows = values[b : b + step]
        err = max(err, np.max(np.abs(rows - exact[b : b + step])))
        gap = max(gap, np.max(np.abs(rows - np.sum(disc[b : b + step] * parts, axis=1))))
        norms += _norms(np.moveaxis(rows, -1, 0), chart.cell_volume)
    return float(err), float(gap), np.array(norms)


def suite_evolve(cfg: ScenarioConfig, k: PhysicalConstants) -> SuiteOutput:
    results: list[CheckResult] = []
    artifacts: dict[str, str] = {}
    s = "evolve"

    base_bg = build_background(cfg.build_chart())
    base_chart = base_bg.chart

    for i, mode in enumerate(cfg.modes):
        label = "m%d" % (i + 1)
        exact = plane_wave(base_chart, mode.k_index, k, spin=mode.spin, branch=mode.branch)
        if i == 0:
            oracle = exact  # mode 1's wave, the action's stationarity oracle below
        out = evolve(exact.values[0], base_bg, k, growth_abort=cfg.growth_abort)
        # the RK4 solution shares the march's spatial grid: its gap is rounding alone
        split = _plane_wave_split(exact.values[0], base_chart, mode.k_index, k)
        err, gap, norms = _wave_gaps(out.values, exact.values, base_chart, *split)
        results.append(check_at_most(s, label + "_evolution_error", err, cfg.tol("evolution_error")))
        bound = cfg.tol("closed_form") * max(1.0, cfg.steps / _ROUNDED_STEPS)
        results.append(check_at_most(s, label + "_discrete_solution", gap, bound))
        drift = float(np.max(np.abs(norms - norms[0])))
        results.append(check_at_most(s, label + "_norm_drift", drift, cfg.tol("norm_drift")))

        j = current(out, k)
        dj = divergence(j, base_bg)
        results.append(
            check_at_most(s, label + "_max_divergence", float(np.max(np.abs(dj))), cfg.tol("divergence"))
        )

        fname = "series.csv" if i == 0 else "series_%s.csv" % label
        artifacts[fname] = render_series(_flux_series(base_bg, norms, j, dj))
        # this mode's histories go before the next mode's, or the action checks'
        del exact, out, j, dj

    # action checks on the scenario chart
    rng = _rng(cfg, s)
    shape = (len(base_chart.axes[0]),) + base_chart.spatial_shape + (4,)
    worst_rel = 0.0
    for _ in range(50):  # no draw outlives its action, so the stationarity check starts without one
        val = action_value(SpinorField(chart=base_chart, values=_complex_normal(rng, shape)), base_bg, k)
        worst_rel = max(worst_rel, abs(val.imag) / abs(val.real))
    results.append(check_at_most(s, "action_reality", worst_rel, cfg.tol("action_reality")))

    # S is a Hermitian quadratic form whose stencils sum by parts: its first
    # variation along p is 2 Re sum w p^dag D^T R(oracle), R the field-equation
    # residual; a central difference of action_value checks that on draw one.
    eps = 1e-3
    variations = []
    step, dens = _block_rows(base_chart.spatial_shape), np.empty(shape[:-1], dtype=np.complex128)
    for n in range(20):
        v = _complex_normal(rng, shape)
        # summation by parts needs the perturbation to vanish near the
        # non-periodic time edges (one-sided stencil rows)
        v[:5] = 0.0
        v[-5:] = 0.0
        if n == 0:
            sp = action_value(oracle + eps * SpinorField(chart=base_chart, values=v), base_bg, k)
            sm = action_value(oracle - eps * SpinorField(chart=base_chart, values=v), base_bg, k)
            residual = dirac_residual(oracle, base_bg, k).values
        for r in range(0, len(v), step):  # D^T R and the density per sample, so per block
            dens[r : r + step] = np.sum(np.conj(v[r : r + step]) * _apply(_DIRAC_FORM_ROWS.T, residual[r : r + step]), axis=-1)
        variations.append(2.0 * _integrate(dens, base_chart, base_bg).real)
    results.append(check_at_most(s, "action_stationarity", max(abs(dv) for dv in variations), cfg.tol("stationarity")))
    fd_gap = abs((sp - sm) / (2.0 * eps) - variations[0])
    results.append(check_at_most(s, "action_euler_lagrange", fd_gap, cfg.tol("stationarity")))
    return results, artifacts


def suite_current(cfg: ScenarioConfig, k: PhysicalConstants) -> SuiteOutput:
    results: list[CheckResult] = []
    s = "current"
    rng = _rng(cfg, s)
    samples = _complex_normal(rng, (cfg.samples, 4))
    rep = timelike_report(samples, k)

    results.append(check_at_least(s, "norm_nonnegative", rep.min_norm, -cfg.tol("timelike_floor")))
    results.append(check_at_least(s, "time_component_nonnegative", rep.min_time_component, 0.0))
    results.append(check_at_most(s, "closed_form_mismatch", rep.closed_form_mismatch, cfg.tol("closed_form")))
    results.append(check_at_most(s, "current_reality", rep.reality_residual, cfg.tol("current_reality")))

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

    center, width = _packet_center_width(cfg)
    init = gaussian_packet(chart, k, center=center, width=width, carrier_index=cfg.packet_carrier)
    s0 = coordinate_slice(bg, t0)
    sT = coordinate_slice(bg, t1)
    tmid = 0.5 * (t0 + t1)
    # off-node time exercises the cubic interpolation path
    toff = tmid + 0.37 * (t1 - t0) / cfg.steps
    slices = [s0, sT, tilted_slice(bg, tmid, cfg.tilt), coordinate_slice(bg, toff)]

    # One march steps the packet and the modes.  The packet's rows stream
    # into the fluxes, which keep blocks of J rows, not the history; on sT
    # (the last time node) each mode is its last state.
    first_row = chart.with_time_axis(t0, chart.dt, 1)
    at0 = [plane_wave(first_row, m.k_index, k, spin=m.spin, branch=m.branch).values[0] for m in cfg.modes[:4]]
    last = None

    def packet_rows():
        nonlocal last
        for last in _march(np.stack([init] + at0), bg, k, cfg.growth_abort):
            yield last[0]

    f0, fT, ftilt, fmid = _streamed_fluxes(packet_rows(), chart.axes[0], slices, k)
    atT = list(last[1:])

    results.append(check_at_most(s, "flux_normalization", abs(f0 - 1.0), cfg.tol("flux_normalization")))
    results.append(check_at_most(s, "slice_independence_time", abs(fT - f0), cfg.tol("slice_independence")))
    results.append(
        check_at_most(s, "slice_independence_tilted", abs(ftilt - f0), cfg.tol("slice_independence"))
    )
    results.append(
        check_at_most(s, "slice_independence_interpolated", abs(fmid - f0), cfg.tol("slice_independence"))
    )

    g0 = gram(at0, s0, k)
    gT = gram(atT, sT, k)
    results.append(
        check_at_most(s, "gram_identity", float(np.max(np.abs(g0 - np.eye(len(at0))))), cfg.tol("hermiticity"))
    )
    results.append(check_at_most(s, "gram_drift", float(np.max(np.abs(gT - g0))), cfg.tol("gram_drift")))
    results.append(
        check_at_most(s, "hermiticity", float(np.max(np.abs(g0 - g0.conj().T))), cfg.tol("hermiticity"))
    )
    packet = init  # the history's row 0, which is its sample on s0
    self_inners = [float(np.real(g0[a, a])) for a in range(len(at0))]
    self_inners.append(float(np.real(inner(packet, packet, s0, k))))
    results.append(check_at_least(s, "positivity", min(self_inners), 0.0))

    if len(at0) >= 2:
        family = [at0[0], 0.6 * at0[0] + 0.8 * at0[1]] + at0[2:]
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
        flag = 1.0
        try:
            orthonormalize([at0[0], at0[1], at0[0] - 2.0 * at0[1]], s0, k)
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
    a = _complex_normal(rng, (n, nm))
    b = _complex_normal(rng, (n, nm))

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
