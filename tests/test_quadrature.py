"""The shared Gauss-Legendre panel rule and its a-posteriori check."""

import numpy as np
import pytest

from volkovfp.quadrature import ORDER, UndersampledGridError, checked_panels, gl_panels


@pytest.mark.parametrize("lo, hi, n", [(-0.1, -0.05, 9), (-0.4, 0.4, 5), (0.3, 2.7, 1)])
def test_single_panel_is_the_plain_rule_bit_for_bit(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    s, sw = gl_panels(lo, hi, n)
    assert np.array_equal(s, 0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
    assert np.array_equal(sw, 0.5 * (hi - lo) * w)


def test_panels_integrate_polynomials_exactly():
    s, w = gl_panels(-1.0, 2.0, 4, n_panels=3)
    assert s.size == 12 and np.all(np.diff(s) > 0)
    assert np.sum(w * s ** 7) == pytest.approx((2.0 ** 8 - 1.0) / 8.0, rel=1e-14)


def test_checked_panels_integrate_oscillation_with_envelope():
    rule = checked_panels(-9.0, 9.0, 3.0, lambda s: np.exp(-s ** 2 / 2.0 + 3j * s), (-5.0, 5.0))
    assert rule.nodes.size % ORDER == 0 and rule.error_estimate <= 1e-12
    for v in (-5.0, 0.0, 5.0):
        got = np.sum(rule.weights * rule.values * np.exp(1j * v * rule.nodes))
        exact = np.sqrt(2.0 * np.pi) * np.exp(-(v + 3.0) ** 2 / 2.0)
        assert abs(got - exact) <= 1e-13


def test_checked_panels_refuse_what_they_cannot_resolve():
    with pytest.raises(UndersampledGridError):
        checked_panels(-1.0, 1.0, 1.0, lambda s: np.abs(s - 0.3))
    for lo, hi, rate in ((1.0, 1.0, 1.0), (0.0, np.inf, 1.0), (0.0, 1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            checked_panels(lo, hi, rate, np.cos)
