"""Helpers shared by the verification suites."""

import numpy as np

from diracfock.suites import _complex_normal


def test_complex_normal_equals_two_draw_expression_bit_for_bit():
    for shape in ((4, 4, 4), (7, 4), (3, 16, 1, 1, 4)):
        a = np.random.default_rng([11, 3])
        b = np.random.default_rng([11, 3])
        got = _complex_normal(a, shape)
        want = b.standard_normal(shape) + 1j * b.standard_normal(shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # both streams are left at the same state
        assert a.standard_normal() == b.standard_normal()
