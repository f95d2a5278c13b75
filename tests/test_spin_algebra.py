import numpy as np
import pytest

from diracfock import (
    GammaSet,
    SpinTensorSignature,
    canonical_gamma_set,
    check_dirac_form_identities,
    clifford_residual,
    tau_conjugate,
)
from diracfock.spin_algebra import (
    _CHIRALITY_ROWS,
    _DIRAC_FORM_ROWS,
    _GAMMA_ROWS,
    _METRIC_ROWS,
    _PAIRING_ROWS,
    _SKEW_METRIC_ROWS,
    CHIRALITY_SIGNATURE,
    DIRAC_FORM_SIGNATURE,
    GAMMA_SIGNATURE,
    METRIC_SIGNATURE,
    SKEW_METRIC_SIGNATURE,
    _apply,
)

SQ2 = np.sqrt(2.0)


def test_gamma_entries_exact(gs):
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    expected = np.stack(
        [
            np.block([[zero, eye], [eye, zero]]),
            np.block([[zero, -s1], [s1, zero]]),
            np.block([[zero, -s2], [s2, zero]]),
            np.block([[zero, -s3], [s3, zero]]),
        ]
    )
    assert np.array_equal(gs.gamma, expected)


def test_metric_and_skew_metric_exact(gs):
    assert np.array_equal(gs.metric, np.diag([1.0, -1.0, -1.0, -1.0]).astype(complex))
    assert np.array_equal(gs.metric @ gs.metric, np.eye(4))  # its own inverse
    d = gs.skew_metric
    assert np.array_equal(d, -d.T)
    assert np.array_equal(d @ d, -np.eye(4, dtype=complex))


def test_chirality_square_exact(gs):
    assert np.array_equal(gs.chirality @ gs.chirality, np.eye(4, dtype=complex))
    assert np.array_equal(gs.chirality, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))


def test_form_coincides_with_time_gamma(gs):
    # numerical coincidence of the component matrices in this frame
    assert np.array_equal(gs.dirac_form, gs.gamma[0])


def test_form_hermiticity_and_contraction_exact(gs):
    rep = check_dirac_form_identities(gs)
    assert rep.hermiticity_residual == 0.0
    assert rep.contraction_residual == 0.0


def test_clifford_relation_exact(gs):
    assert clifford_residual(gs) == 0.0


def test_form_is_hermitian_positive_on_first_block(gs):
    d = gs.dirac_form
    assert np.array_equal(d, d.conj().T)
    # pairing of the rest solution (1,0,1,0)/sqrt(2) with itself is +1
    u = np.array([1, 0, 1, 0], dtype=complex) / SQ2
    assert abs(np.vdot(u, d @ u) - 1.0) < 1e-15


def test_conjugation_fixed_points(gs):
    out, sig = tau_conjugate(gs.metric, METRIC_SIGNATURE)
    assert np.array_equal(out, gs.metric)
    assert sig == METRIC_SIGNATURE
    out, _ = tau_conjugate(gs.dirac_form, DIRAC_FORM_SIGNATURE)
    assert np.array_equal(out, gs.dirac_form)


def test_conjugation_involution_exact():
    rng = np.random.default_rng(7)
    for sig in (GAMMA_SIGNATURE, CHIRALITY_SIGNATURE, DIRAC_FORM_SIGNATURE, SKEW_METRIC_SIGNATURE):
        shape = (4,) * sig.ndim
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        once, sig1 = tau_conjugate(block, sig)
        assert sig1 == sig.swapped()
        twice, sig2 = tau_conjugate(once, sig1)
        assert sig2 == sig
        assert np.array_equal(twice, block)


def test_conjugation_is_antilinear():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    z = 0.3 - 1.7j
    lhs, _ = tau_conjugate(z * a, CHIRALITY_SIGNATURE)
    rhs = np.conj(z) * tau_conjugate(a, CHIRALITY_SIGNATURE)[0]
    assert np.array_equal(lhs, rhs)


def test_conjugation_rank_mismatch_raises():
    with pytest.raises(ValueError):
        tau_conjugate(np.zeros((4, 4)), GAMMA_SIGNATURE)


def test_signature_axes_bookkeeping():
    sig = SpinTensorSignature(spinor_up=1, spinor_down=1, conj_down=1, tensor_up=1)
    assert sig.ndim == 4
    assert sig.spinor_axes == 2
    assert sig.conj_axes == 1
    sw = sig.swapped()
    assert sw.conj_up == 1 and sw.conj_down == 1 and sw.spinor_down == 1
    assert sw.swapped() == sig


def test_gamma_set_is_frozen(gs):
    with pytest.raises(AttributeError):
        gs.gamma = np.zeros((4, 4, 4))


def test_canonical_set_returns_equal_values():
    a = canonical_gamma_set()
    b = canonical_gamma_set()
    assert isinstance(a, GammaSet)
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.skew_metric, b.skew_metric)


def _row_tables(gs):
    return [(_GAMMA_ROWS[q], gs.gamma[q]) for q in range(4)] + [
        (_SKEW_METRIC_ROWS, gs.skew_metric),
        (_CHIRALITY_ROWS, gs.chirality),
        (_DIRAC_FORM_ROWS, gs.dirac_form),
        (_METRIC_ROWS, gs.metric),
    ]


def test_rows_state_the_dense_matrices(gs):
    for rows, m in _row_tables(gs):
        assert np.array_equal(rows.dense(), m)
        assert np.array_equal(rows.T.dense(), m.T)


def test_row_application_equals_dense_einsum_exactly(gs):
    # signed zeros in both parts and magnitudes up to ~1e300: the one non-zero
    # term of each output entry must come through unrounded, with no inf or nan
    rng = np.random.default_rng(23)
    shape = (3, 5, 4, 4)
    v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(-300, 301, shape)
    v.real[rng.random(shape) < 0.2] = 0.0
    v.real[rng.random(shape) < 0.2] = -0.0
    v.imag[rng.random(shape) < 0.2] = 0.0
    v.imag[rng.random(shape) < 0.2] = -0.0
    for rows, m in _row_tables(gs):
        assert np.array_equal(_apply(rows, v), np.einsum("ab,...b->...a", m, v))
        assert np.array_equal(_apply(rows.T, v), np.einsum("...a,ab->...b", v, m))
        assert np.array_equal(_apply(rows, v, axis=-2), np.einsum("ab,...bc->...ac", m, v))
        assert np.array_equal(_apply(rows.T, v, axis=-2), np.einsum("ba,...bc->...ac", m, v))


def test_row_products_equal_dense_products_exactly(gs):
    tables = _row_tables(gs)
    for a, ma in tables:
        for b, mb in tables:
            assert np.array_equal((a @ b).dense(), ma @ mb)


def test_pairing_rows_state_the_current_and_action_forms(gs):
    for q in range(4):
        assert np.array_equal(_PAIRING_ROWS[q].dense(), gs.dirac_form.T @ gs.gamma[q])
        m = _PAIRING_ROWS[q].dense()
        assert np.array_equal(m, m.conj().T)  # Hermitian
