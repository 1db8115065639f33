"""Sideband spectra, windowed transforms and decay-order fits."""

from types import MappingProxyType

import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import jv

from volkovfp.modes import ModeParams
from volkovfp.potential import HarmonicPotential, transverse_phase
from volkovfp import quadrature, spectral
from volkovfp.spectral import (
    GaussianWindow,
    HannWindow,
    UndersampledGridError,
    decay_order_fit,
    harmonic_carrier,
    harmonic_sidebands_analytic,
    plancherel_reference,
    spectrum_fft,
    tail_decay_orders,
    transform_l2,
    transform_rule,
    window_from_descriptor,
    windowed_phase_transform,
)

MODE = ModeParams(k2=0.3, k3=0.0, u=-0.5, m=1.0)
LAM, OMEGA = 0.2, 1.0
POT = HarmonicPotential(LAM, OMEGA)


def kernel_samples(periods=200, per_period=64):
    ds = (2.0 * np.pi / OMEGA) / per_period
    s = ds * np.arange(periods * per_period)
    zeta = transverse_phase(POT, MODE.k2, MODE.k3, 0.0, s) + MODE.m ** 2 * s
    return s, np.exp(-1j * zeta / (4.0 * MODE.u))


def test_carrier_value():
    assert harmonic_carrier(MODE, LAM, OMEGA) == pytest.approx(-0.555, abs=1e-15)


def test_sidebands_zero_amplitude_single_line():
    lines = harmonic_sidebands_analytic(MODE, 0.0, OMEGA, 5)
    by_n = {l.n: l for l in lines}
    assert by_n[0].amplitude == pytest.approx(1.0)
    assert all(abs(by_n[n].amplitude) == 0.0 for n in by_n if n != 0)
    v_dispersion = (MODE.k2 ** 2 + MODE.k3 ** 2 + MODE.m ** 2) / (4.0 * MODE.u)
    assert by_n[0].v == pytest.approx(v_dispersion)


def test_sidebands_unit_power():
    lines = harmonic_sidebands_analytic(MODE, LAM, OMEGA, 12)
    total = sum(abs(l.amplitude) ** 2 for l in lines)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sidebands_against_periodic_quadrature_oracle():
    """Fourier coefficients from direct integration over one period."""
    v0 = harmonic_carrier(MODE, LAM, OMEGA)
    period = 2.0 * np.pi / OMEGA
    s = np.linspace(0.0, period, 4096, endpoint=False)
    zeta = transverse_phase(POT, MODE.k2, MODE.k3, 0.0, s) + MODE.m ** 2 * s
    f = np.exp(-1j * zeta / (4.0 * MODE.u))
    lines = {l.n: l.amplitude for l in harmonic_sidebands_analytic(MODE, LAM, OMEGA, 3)}
    for n in range(-3, 4):
        oracle = np.mean(f * np.exp(1j * (v0 + n * OMEGA) * s))
        assert lines[n] == pytest.approx(oracle, abs=1e-10 * abs(oracle) + 1e-14)


def test_sidebands_invalid_arguments():
    with pytest.raises(ValueError):
        harmonic_sidebands_analytic(MODE, LAM, OMEGA, -1)
    with pytest.raises(ValueError):
        harmonic_sidebands_analytic(MODE, LAM, 0.0, 3)


_BESSEL_ARGS = [0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e-20, -1e-8, 0.06, -0.005, 0.999, 1.0,
                -2.404825557695773, 7.0, -7.0, 17.2, -29.9]


@pytest.mark.parametrize("n", [0, 1, 12, 80])
def test_bessel_orders_match_scipy_jv(n):
    """J_k(z), k = -n..n, from the downward recurrence agree with scipy's jv:
    1e-12 relative on the falling tail |k| > |z| + 1, 1e-14 absolute
    everywhere, for z of both signs, zero, tiny and up to 30."""
    rng = np.random.default_rng(n)
    k = np.arange(-n, n + 1)
    for z in [*_BESSEL_ARGS, *rng.uniform(-30.0, 30.0, 40)]:
        got = spectral._bessel_orders(z, n)
        ref = jv(k, z)
        assert got.shape == ref.shape and np.all(np.isfinite(got)), z
        assert np.max(np.abs(got - ref)) <= 1e-14, z
        tail = (np.abs(k) > abs(z) + 1.0) & (np.abs(ref) > 1e-290)
        assert np.all(np.abs(got[tail] - ref[tail]) <= 1e-12 * np.abs(ref[tail])), z


@pytest.mark.parametrize("z", [2e11, -6e298, np.inf, np.nan])
def test_bessel_recurrence_past_the_order_cap_is_refused_before_it_runs(z):
    """An argument whose recurrence would start past _MAX_ORDERS is a domain
    error raised before any order is computed: a naive recurrence at
    |z| = 2e8 ran for over a minute and at 2e11 ran out of memory."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(UndersampledGridError, match="Bessel recurrence"):
            spectral._bessel_orders(z, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0 and peak < 2 ** 16


def _jv_sidebands(mode, amplitude, frequency, n_max):
    """The Bessel-product sum c_n over |n2| <= n_max + 16 on scipy's jv."""
    z1 = mode.k2 * amplitude / (2.0 * frequency * mode.u)
    z2 = amplitude ** 2 / (16.0 * frequency * mode.u)
    n2 = np.arange(-n_max - 16, n_max + 17)
    return np.array([np.sum(jv(n - 2 * n2, z1) * jv(n2, z2)) for n in range(-n_max, n_max + 1)])


def test_sidebands_match_jv_product_sum():
    """On the shipped sidebands config every c_n is within 1e-13 of the jv
    product sum, relative, and every amplitude is real; over random modes
    and waves (|z1| up to 17, |z2| up to 2.8), within 1e-14 absolute."""
    lines = harmonic_sidebands_analytic(MODE, LAM, OMEGA, 12)
    amplitudes = np.array([line.amplitude for line in lines])
    ref = _jv_sidebands(MODE, LAM, OMEGA, 12)
    assert [line.n for line in lines] == list(range(-12, 13))
    assert np.all(amplitudes.imag == 0.0)
    assert np.max(np.abs(amplitudes.real - ref) / np.abs(ref)) <= 1e-13
    rng = np.random.default_rng(3)
    for _ in range(20):
        mode = ModeParams(rng.uniform(-3.0, 3.0), 0.0, -rng.uniform(0.05, 2.0), 1.0)
        lam, omega, n_max = rng.uniform(0.0, 3.0), rng.uniform(0.3, 2.0), int(rng.integers(0, 30))
        got = [line.amplitude for line in harmonic_sidebands_analytic(mode, lam, omega, n_max)]
        assert np.max(np.abs(np.array(got) - _jv_sidebands(mode, lam, omega, n_max))) <= 1e-14


def test_fft_matches_analytic_lines():
    s, values = kernel_samples()
    span = s[-1] - s[0]
    window = GaussianWindow(center=0.5 * span, width=span / 14.0)
    v0 = harmonic_carrier(MODE, LAM, OMEGA)
    got = spectrum_fft(s, values, window, OMEGA, v0, 3)
    expect = {l.n: l for l in harmonic_sidebands_analytic(MODE, LAM, OMEGA, 3)}
    bin_width = 2.0 * np.pi / span
    for line in got:
        ref = expect[line.n]
        assert abs(line.v - ref.v) < bin_width
        assert abs(line.amplitude - ref.amplitude) <= 1e-4 * abs(ref.amplitude)


def test_fft_parameter_sweep_agreement(rng):
    """Random harmonic parameters: every resolvable line matches to 1e-4."""
    for _ in range(20):
        lam = float(rng.uniform(0.05, 0.5))
        omega = float(rng.uniform(0.6, 1.8))
        mode = ModeParams(k2=float(rng.uniform(-0.8, 0.8)),
                          k3=float(rng.uniform(-0.5, 0.5)),
                          u=-float(np.exp(rng.uniform(np.log(0.2), np.log(1.5)))),
                          m=float(rng.uniform(0.7, 1.3)))
        pot = HarmonicPotential(lam, omega)
        per = 64
        periods = 120
        ds = (2.0 * np.pi / omega) / per
        s = ds * np.arange(periods * per)
        zeta = transverse_phase(pot, mode.k2, mode.k3, 0.0, s) + mode.m ** 2 * s
        values = np.exp(-1j * zeta / (4.0 * mode.u))
        span = s[-1] - s[0]
        window = GaussianWindow(center=0.5 * span, width=span / 14.0)
        v0 = harmonic_carrier(mode, lam, omega)
        got = spectrum_fft(s, values, window, omega, v0, 2)
        expect = {l.n: l for l in harmonic_sidebands_analytic(mode, lam, omega, 2)}
        for line in got:
            ref = expect[line.n]
            if abs(ref.amplitude) < 1e-9:  # below leakage floor, not resolvable
                continue
            assert abs(line.amplitude - ref.amplitude) <= 1e-4 * abs(ref.amplitude)


def test_fft_rejects_bad_grids():
    s, values = kernel_samples(periods=8)
    window = GaussianWindow(center=0.5 * (s[-1] - s[0]), width=(s[-1] - s[0]) / 14.0)
    with pytest.raises(UndersampledGridError):
        spectrum_fft(s, values, window, OMEGA, -0.555, 3)
    s2, values2 = kernel_samples(per_period=2)
    window2 = GaussianWindow(center=0.5 * (s2[-1] - s2[0]), width=(s2[-1] - s2[0]) / 14.0)
    with pytest.raises(UndersampledGridError):
        spectrum_fft(s2, values2, window2, OMEGA, -0.555, 3)
    with pytest.raises(ValueError):
        spectrum_fft(np.array([0.0, 0.1, 0.3]), np.zeros(3, complex),
                     GaussianWindow(0.15, 0.1), OMEGA, -0.555, 0)
    for n in (1, 0):
        with pytest.raises(ValueError, match=f"at least 2 samples, got {n}"):
            spectrum_fft(np.zeros(n), np.zeros(n, complex), GaussianWindow(0.0, 0.1),
                         OMEGA, -0.555, 0)


def test_fft_resolution_halves_with_double_span():
    # doubling the sampled span halves the frequency bin
    s1, v1 = kernel_samples(periods=100)
    s2, v2 = kernel_samples(periods=200)
    bin1 = 2.0 * np.pi / (s1[-1] - s1[0])
    bin2 = 2.0 * np.pi / (s2[-1] - s2[0])
    assert bin2 == pytest.approx(bin1 / 2.0, rel=1e-2)


def test_zero_amplitude_fft_single_peak():
    pot0 = HarmonicPotential(0.0, OMEGA)

    per = 64
    ds = (2.0 * np.pi / OMEGA) / per
    s = ds * np.arange(200 * per)
    zeta = transverse_phase(pot0, MODE.k2, MODE.k3, 0.0, s) + MODE.m ** 2 * s
    values = np.exp(-1j * zeta / (4.0 * MODE.u))
    span = s[-1] - s[0]
    window = GaussianWindow(center=0.5 * span, width=span / 14.0)
    v0 = (MODE.k2 ** 2 + MODE.k3 ** 2 + MODE.m ** 2) / (4.0 * MODE.u)
    lines = spectrum_fft(s, values, window, OMEGA, v0, 3)
    by_n = {l.n: l for l in lines}
    assert abs(by_n[0].amplitude) == pytest.approx(1.0, rel=1e-10)
    for n in (-3, -2, -1, 1, 2, 3):
        assert abs(by_n[n].amplitude) < 1e-6


def test_windowed_transform_positive_tail_decay():
    window = GaussianWindow(center=0.0, width=0.155)
    v_fit = np.geomspace(5.0, 50.0, 25)
    f_vals = windowed_phase_transform(MODE, POT, window, v_fit)
    order, _ = decay_order_fit(v_fit, np.abs(f_vals))
    assert order >= 6.0


def test_windowed_transform_plancherel():
    window = GaussianWindow(center=0.0, width=0.155)
    v_grid = np.arange(-60.0, 59.95, 0.05)
    f_vals = windowed_phase_transform(MODE, POT, window, v_grid)
    l2 = transform_l2(v_grid, f_vals)
    ref = plancherel_reference(window)
    assert l2 == pytest.approx(ref, rel=1e-6)


def test_windowed_transform_plancherel_hann():
    window = HannWindow(-4.0, 4.0)
    v_grid = np.arange(-80.0, 79.99, 0.02)
    f_vals = windowed_phase_transform(MODE, POT, window, v_grid)
    # Hann tails fall off like v^-3, so add the analytic tail remainder bound
    l2 = transform_l2(v_grid, f_vals)
    ref = plancherel_reference(window)
    assert l2 == pytest.approx(ref, rel=1e-6)


def reference_transform(mode, pot, window, v_grid):
    """F(v) by the former rule: 32-point Gauss-Legendre panels an eighth of
    the fastest wavelength wide (phase rate or largest |v|), at most 1/8 of
    the support, with no a-posteriori check."""
    lo, hi = window.support()
    probe = np.linspace(lo, hi, 128)
    q_max = np.max((mode.k2 + pot.a2(probe)) ** 2 + (mode.k3 + pot.a3(probe)) ** 2) + mode.m ** 2
    fastest = max(q_max / (4.0 * abs(mode.u)), np.max(np.abs(v_grid)))
    width = min((hi - lo) / 8.0, 2.0 * np.pi / (8.0 * fastest))
    n_panels = int(np.ceil((hi - lo) / width))
    x, wx = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    s = (mid + half * x).ravel()
    w = (half * wx).ravel()
    zeta = transverse_phase(pot, mode.k2, mode.k3, 0.0, s) + mode.m ** 2 * s
    core = w * window.sample(s) * np.exp(-1j * zeta / (4.0 * mode.u))
    return np.exp(1j * np.outer(v_grid, s)) @ core


@pytest.mark.parametrize("window", [GaussianWindow(0.0, 0.155), HannWindow(-4.0, 4.0)],
                         ids=["gaussian", "hann"])
def test_windowed_transform_matches_reference_rule(window):
    v = np.linspace(-30.0, 30.0, 121)
    got = windowed_phase_transform(MODE, POT, window, v)
    ref = reference_transform(MODE, POT, window, v)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    rule = transform_rule(MODE, POT, window, v)
    assert rule.error_estimate <= quadrature.TOLERANCE
    # four wavelengths per panel, not the reference's eighth of one
    lo, hi = window.support()
    wavelengths = (hi - lo) * (quadrature.phase_rate(MODE, POT, lo, hi) + 30.0) / (2.0 * np.pi)
    assert rule.nodes.size == quadrature.ORDER * np.ceil(wavelengths / 4.0)


def test_windowed_transform_refines_fast_wave_at_high_v():
    """A strong fast wave puts sidebands far beyond the phase rate plus |v|;
    the first panels miss them and the halving check must refine."""
    pot = HarmonicPotential(5.0, 500.0)
    window = HannWindow(-1.5, 1.5)
    v = np.linspace(-400.0, 400.0, 81)
    rule = transform_rule(MODE, pot, window, v)
    rate = quadrature.phase_rate(MODE, pot, -1.5, 1.5)
    first = quadrature.ORDER * np.ceil(
        3.0 * (rate + 400.0) / (2.0 * np.pi * quadrature.WAVELENGTHS_PER_PANEL))
    assert rule.nodes.size >= 2 * first
    assert rule.error_estimate <= quadrature.TOLERANCE
    got = windowed_phase_transform(MODE, pot, window, v)
    ref = reference_transform(MODE, pot, window, v)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_factored_transform_is_as_accurate_as_the_direct_kernel_on_hann_dense_grid():
    """Against a long-double sum over the rule's own nodes, the factored
    transform errs no more than the (v, s) kernel product it replaced."""
    window = HannWindow(-4.0, 4.0)
    v = np.arange(-80.0, 80.0 + 0.01, 0.02)
    rule = transform_rule(MODE, POT, window, v)
    got = windowed_phase_transform(MODE, POT, window, v)
    assert np.array_equal(got, rule.fourier(v))
    # every 7th v of the 8001: long-double sines cost 0.5 us each
    v, got = v[::7], got[::7]
    wf = rule.weights * rule.values
    direct = np.exp(1j * np.outer(v, rule.nodes)) @ wf
    phase = np.multiply.outer(v.astype(np.longdouble), rule.nodes.astype(np.longdouble))
    exact = (np.cos(phase) + 1j * np.sin(phase)) @ wf.astype(np.clongdouble)
    bound = np.sum(np.abs(wf))
    err = float(np.max(np.abs(got - exact))) / bound
    assert err <= float(np.max(np.abs(direct - exact))) / bound
    assert err <= 2e-15


def test_windowed_transform_raises_when_check_cannot_be_met():
    # a jump inside a panel: halving only gains one order, never 1e-12
    class SteppedWindow(GaussianWindow):
        def sample(self, s):
            return super().sample(s) * np.where(np.asarray(s) > 1.0 / np.pi, 1.0, 0.0)

    with pytest.raises(UndersampledGridError):
        windowed_phase_transform(MODE, POT, SteppedWindow(0.0, 0.155),
                                 np.linspace(-10.0, 10.0, 21))


def test_windowed_transform_tail_beats_order_eight():
    # Gaussian-window tail decays faster than any fitted order up to 8
    window = GaussianWindow(center=0.0, width=0.155)
    v_fit = np.geomspace(5.0, 50.0, 25)
    f_vals = windowed_phase_transform(MODE, POT, window, v_fit)
    order, _ = decay_order_fit(v_fit, np.abs(f_vals))
    assert order >= 8.0


def test_windowed_transform_zero_potential_is_window_transform():
    from volkovfp.potential import ZeroPotential

    window = GaussianWindow(center=0.0, width=1.0)
    mode = ModeParams(0.0, 0.0, -0.5, 1.0)
    v0 = mode.m ** 2 / (4.0 * mode.u)
    v = np.linspace(-3.0, 2.0, 21)
    f_vals = windowed_phase_transform(mode, ZeroPotential(), window, v)
    expected = np.sqrt(2.0 * np.pi) * window.width * np.exp(
        -window.width ** 2 * (v - v0) ** 2 / 2.0)
    assert np.allclose(f_vals, expected, rtol=1e-10, atol=1e-14)


def test_tail_asymmetry_report_strong_field():
    """Strong-field configuration: the negative-v side carries a stationary
    band, so its fitted decay order is far smaller than the positive side."""
    mode = ModeParams(k2=1.0, k3=0.0, u=-0.1, m=1.0)
    pot = HarmonicPotential(1.5, 1.0)
    report = tail_decay_orders(mode, pot, GaussianWindow(0.0, 0.5), 5.0, 50.0)
    assert report["order_positive"] >= 6.0
    assert report["asymmetry"] >= 4.0


def test_decay_order_fit_known_laws():
    x = np.geomspace(1.0, 100.0, 40)
    order, resid = decay_order_fit(x, x ** -4.0)
    assert order == pytest.approx(4.0, abs=1e-6)
    assert resid < 1e-10

    order_const, _ = decay_order_fit(x, np.ones_like(x))
    assert order_const == pytest.approx(0.0, abs=1e-12)

    # exponential decay: fitted order grows with the window's upper end
    orders = []
    for hi in (10.0, 30.0, 90.0):
        xs = np.geomspace(1.0, hi, 30)
        orders.append(decay_order_fit(xs, np.exp(-xs))[0])
    assert orders[0] < orders[1] < orders[2]


def test_decay_order_fit_rejects_bad_input():
    x = np.geomspace(1.0, 10.0, 10)
    with pytest.raises(ValueError):
        decay_order_fit(x[:4], np.ones(4))
    with pytest.raises(ValueError):
        decay_order_fit(x, np.zeros(10))
    with pytest.raises(ValueError):
        decay_order_fit(np.ones(10), np.ones(10))


def test_windows():
    g = GaussianWindow(0.0, 2.0)
    assert g.sq_integral() == pytest.approx(2.0 * np.sqrt(np.pi))
    h = HannWindow(-3.0, 5.0)
    s = np.linspace(-4, 6, 1001)
    w = h.sample(s)
    assert w[0] == 0.0 and w[-1] == 0.0
    assert np.max(w) == pytest.approx(1.0, abs=1e-4)
    assert trapezoid(w ** 2, s) == pytest.approx(h.sq_integral(), rel=1e-6)
    assert window_from_descriptor({"kind": "gaussian", "center": 0.0, "width": 2.0}) == g
    assert window_from_descriptor({"kind": "hann", "lo": -3.0, "hi": 5.0}) == h
    with pytest.raises(ValueError):
        window_from_descriptor({"kind": "boxcar"})


@pytest.mark.parametrize("desc, match", [
    ({"kind": "gaussian", "center": "0", "width": 1.0}, "must be a number"),
    ({"kind": "gaussian", "center": 0.0, "width": True}, "must be a number"),
    ({"kind": "gaussian", "center": 0.0}, "missing field 'width'"),
    ({"kind": "hann", "lo": 0.0, "hi": 1.0, "width": 1.0}, "unknown field"),
    ({"kind": "hann", "lo": 0.0, "hi": float("inf")}, "finite"),
    ({"center": 0.0, "width": 1.0}, "unknown window kind"),
])
def test_malformed_window_descriptor_rejected(desc, match):
    with pytest.raises(ValueError, match=match):
        window_from_descriptor(desc)


def test_window_descriptor_accepts_integers_and_mappings():
    assert window_from_descriptor(MappingProxyType({"kind": "hann", "lo": -1, "hi": 2})) \
        == HannWindow(-1.0, 2.0)


def test_transform_l2_is_scipy_trapezoid():
    rng = np.random.default_rng(8)
    for n in (2, 3, 17, 1000):
        v = np.cumsum(rng.uniform(0.01, 1.0, n)) - 5.0
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert transform_l2(v, f) == float(trapezoid(np.abs(f) ** 2, v))
