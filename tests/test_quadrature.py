"""The shared Gauss-Legendre panel rule and its a-posteriori check."""

import numpy as np
import pytest

from volkovfp import quadrature
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


def test_reference_rule_is_computed_once_and_read_only():
    x, w = quadrature._gl_reference(ORDER)
    assert quadrature._gl_reference(ORDER)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    s, sw = gl_panels(-1.0, 1.0, ORDER)
    assert s.flags.writeable and sw.flags.writeable


def _oracle(rule, v):
    """(v, panel, column) integrals from the (v, s) kernel the factored form avoids."""
    wf = rule.weights[:, None] * rule.values.reshape(rule.weights.size, -1)
    terms = np.exp(1j * np.outer(v, rule.nodes))[:, :, None] * wf
    return terms.reshape(v.size, rule.n_panels, -1, wf.shape[1]).sum(axis=2)


def _columns(s):
    """Three independent complex integrands, like fp_pair_smeared's (s, 13) block."""
    s = np.asarray(s)[:, None]
    return np.exp(-0.5 * (s - 0.4) ** 2 + 1j * np.array([0.0, 2.5, -7.0]) * s) * (1.0 + 0.3 * s)


@pytest.mark.parametrize("v", [
    np.array([3.0, -40.0, 0.0, 17.5, -0.25, 40.0]),
    -np.geomspace(0.5, 60.0, 25),
    np.geomspace(5.0, 50.0, 25),
    np.arange(-60.0, 60.0 + 0.25, 0.5),
], ids=["unsorted", "negative", "geomspace", "arange"])
# panels at most a few wavelengths of the largest |v| wide, as checked_panels makes them
@pytest.mark.parametrize("lo, hi, n_panels", [(-0.3, 0.5, 1), (-9.0, 11.0, 37), (0.5, 6.5, 8)])
@pytest.mark.parametrize("integrand", [lambda s: np.exp(-s ** 2 / 8.0 + 3j * s), _columns],
                         ids=["one-column", "three-columns"])
def test_factored_fourier_matches_direct_kernel(v, lo, hi, n_panels, integrand):
    s, w = gl_panels(lo, hi, ORDER, n_panels)
    values = np.asarray(integrand(s))
    rule = quadrature.PanelRule(lo, hi, n_panels, s, w, values, 0.0)
    expected = _oracle(rule, v)
    bound = np.abs(w) @ np.abs(values.reshape(s.size, -1))
    per_panel = quadrature._panel_integrals(rule, v)
    assert per_panel.shape == expected.shape
    assert np.all(np.max(np.abs(per_panel - expected), axis=(0, 1)) <= 2e-15 * bound)
    got = rule.fourier(v)
    assert got.shape == v.shape + values.shape[1:]
    diff = np.abs(got - expected.sum(axis=1).reshape(got.shape))
    assert np.all(diff.reshape(v.size, -1).max(axis=0) <= 2e-15 * bound)


def test_checked_rule_fourier_matches_direct_kernel_for_columns():
    rule = checked_panels(-8.0, 9.0, 7.0, _columns, (-30.0, 30.0))
    v = np.linspace(30.0, -30.0, 61)
    expected = np.exp(1j * np.outer(v, rule.nodes)) @ (rule.weights[:, None] * rule.values)
    bound = np.abs(rule.weights) @ np.abs(rule.values)
    assert rule.n_panels > 1 and rule.fourier(v).shape == (61, 3)
    assert np.all(np.max(np.abs(rule.fourier(v) - expected), axis=0) <= 2e-15 * bound)
