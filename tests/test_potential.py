"""Phase integrals: closed forms vs quadrature, additivity, monotonicity."""

import json
import subprocess
import sys
import warnings
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import wofz

from volkovfp import potential
from volkovfp.potential import (
    HarmonicPotential,
    PlaneWavePotential,
    PotentialDomainError,
    PulsePotential,
    TabulatedPotential,
    ZeroPotential,
    phase,
    phase_integrand,
    potential_from_descriptor,
    transverse_phase,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def quad_phase(pot, k2, k3, m, a, b):
    val, _ = quad(lambda s: phase_integrand(pot, k2, k3, m, s), a, b,
                  epsabs=1e-13, epsrel=1e-13, limit=500)
    return val


def test_integrand_direct_values():
    assert phase_integrand(ZeroPotential(), 0.0, 0.0, 1.0, 0.37) == pytest.approx(1.0)

    pot = HarmonicPotential(0.2, 1.0)
    assert phase_integrand(pot, 0.3, 0.0, 1.0, 0.0) == pytest.approx(1.25)
    assert phase_integrand(pot, 0.3, 0.0, 1.0, np.pi / 2) == pytest.approx(1.09)


def test_phase_zero_potential_linear():
    assert phase(ZeroPotential(), 0.0, 0.0, 1.0, 0.0, 2.5) == pytest.approx(2.5)
    assert phase(ZeroPotential(), 0.0, 0.0, 1.0, 0.0, 3.0) == pytest.approx(3.0)
    assert phase(ZeroPotential(), 0.0, 0.0, 1.0, 0.0, 0.0) == 0.0


def test_phase_full_period_value():
    # harmonic closed form over one period: sine terms vanish
    pot = HarmonicPotential(0.2, 1.0)
    expected = (0.3 ** 2 + 0.5 * 0.2 ** 2 + 1.0) * 2.0 * np.pi
    got = phase(pot, 0.3, 0.0, 1.0, 0.0, 2.0 * np.pi)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(quad_phase(pot, 0.3, 0.0, 1.0, 0.0, 2.0 * np.pi), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.0, 1.0), omega=st.floats(0.3, 3.0), k2=finite, k3=finite,
       m=st.floats(0.3, 2.0), s=finite)
def test_harmonic_closed_form_matches_quadrature(lam, omega, k2, k3, m, s):
    pot = HarmonicPotential(lam, omega)
    closed = phase(pot, k2, k3, m, 0.0, s)
    numeric = quad_phase(pot, k2, k3, m, 0.0, s)
    assert closed == pytest.approx(numeric, rel=1e-10, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(a=finite, b=finite, c=finite, k2=finite, m=st.floats(0.3, 2.0))
def test_phase_additivity(a, b, c, k2, m):
    pot = HarmonicPotential(0.4, 1.3)
    lhs = phase(pot, k2, 0.1, m, a, b) + phase(pot, k2, 0.1, m, b, c)
    rhs = phase(pot, k2, 0.1, m, a, c)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    assert phase(pot, k2, 0.1, m, a, a) == 0.0


@settings(max_examples=20, deadline=None)
@given(s=finite, h=st.floats(1e-3, 1.0), k2=finite, m=st.floats(0.3, 2.0))
def test_zeta_monotone_with_mass_slope(s, h, k2, m):
    pot = HarmonicPotential(0.5, 1.0)
    rise = phase(pot, k2, -0.2, m, 0.0, s + h) - phase(pot, k2, -0.2, m, 0.0, s)
    assert rise >= m * m * h - 1e-12


def test_integrand_bounded_below_by_mass_sq():
    pot = PulsePotential(0.7, 2.0, 1.5)
    grid = np.linspace(-8.0, 8.0, 400)
    vals = phase_integrand(pot, 0.4, -0.3, 0.8, grid)
    assert np.all(vals >= 0.8 ** 2)


def test_pulse_phase_additivity_and_quadrature():
    pot = PulsePotential(0.5, 1.0, 2.0)
    q = (0.2, 0.1, 1.0)
    total = phase(pot, *q, -1.0, 2.0)
    assert total == pytest.approx(phase(pot, *q, -1.0, 0.4) + phase(pot, *q, 0.4, 2.0),
                                  rel=1e-12)
    assert total == pytest.approx(quad_phase(pot, *q, -1.0, 2.0), rel=1e-10)


# quad warns on a piece [a, 0] as narrow as the smallest normal float; that piece is 0
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=40, deadline=None)
@given(lam=finite, omega=st.floats(-40.0, 40.0), width=st.floats(0.1, 5.0),
       k2=finite, k3=finite, m=st.floats(0.3, 2.0),
       a=st.floats(-15.0, 15.0), b=st.floats(-15.0, 15.0))
@example(lam=1.0, omega=0.0, width=0.109375, k2=0.0, k3=0.0, m=1.0, a=13.0, b=-6.0)
@example(lam=1.0, omega=0.0, width=0.125, k2=0.0, k3=0.0, m=1.5,
         a=2.2250738585072014e-308, b=-2.0)
@example(lam=0.3125, omega=2.0, width=1.0, k2=0.0, k3=0.0, m=1.0,
         a=2.2250738585072014e-308, b=-6.0)
def test_pulse_moments_match_quadrature(lam, omega, width, k2, k3, m, a, b):
    pot = PulsePotential(lam, omega, width)
    q = (k2, k3, m)
    # split the reference at the pulse centre when it lies strictly inside:
    # unsplit, quad can step over a narrow pulse inside a long interval, and
    # quad(points=[0.0]) loses digits when an endpoint is next to 0
    if min(a, b) < 0.0 < max(a, b):
        reference = quad_phase(pot, *q, a, 0.0) + quad_phase(pot, *q, 0.0, b)
    else:
        reference = quad_phase(pot, *q, a, b)
    assert phase(pot, *q, a, b) == pytest.approx(reference, rel=1e-10, abs=1e-12)


def test_pulse_moments_finite_where_gaussian_factor_underflows():
    # exp(-(frequency width)^2 / 2) underflows; the moments must not overflow
    amp, width = 0.7, 30.0
    pot = PulsePotential(amp, 200.0, width)
    a2, a3, b = pot.moments(np.array([-300.0, 0.0, 300.0]))
    assert np.all(np.isfinite(a2)) and np.all(np.isfinite(b)) and np.all(a3 == 0.0)
    assert b[2] - b[0] == pytest.approx(amp ** 2 * width * np.sqrt(np.pi) / 2.0, rel=1e-12)


def test_faddeeva_matches_scipy_wofz():
    """Weideman's w(b + iz) within 1e-13 of wofz, relative, over
    b in +-[1e-6, 1e4] and 0, z in [0, 1e4], the near-real axis included."""
    b = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 301)])
    b = np.concatenate([-b[1:], b])
    z = np.concatenate([[0.0, 1e-300, 1e-15, 1e-12, 1e-9], np.geomspace(1e-6, 1e4, 301)])
    arg = b[:, None] + 1j * z
    ref = wofz(arg)
    assert np.max(np.abs(potential._faddeeva(arg) - ref) / np.abs(ref)) <= 1e-13


def _wofz_moments(pot, s):
    """A2 and B of a pulse from the Faddeeva formula on scipy's wofz."""
    def integral(width, frequency):
        z = np.abs(s) / (np.sqrt(2.0) * width)
        b = frequency * width / np.sqrt(2.0)
        tail = np.exp(-z * z + 1j * frequency * np.abs(s)) * wofz(b + 1j * z)
        return np.sign(s) * width * np.sqrt(0.5 * np.pi) * (np.exp(-b * b) - tail.real)

    lam, w, f = pot.amplitude, pot.width, pot.frequency
    narrow = w / np.sqrt(2.0)
    return lam * integral(w, f), 0.5 * lam * lam * (integral(narrow, 0.0)
                                                    + integral(narrow, 2.0 * f))


def test_pulse_moments_match_wofz_formula():
    """A2 and B within 4e-15 width sqrt(pi/2) (times the amplitude's power)
    of the same formula on scipy's wofz, over random widths, frequencies
    (zero and negative included) and s."""
    rng = np.random.default_rng(11)
    for j in range(300):
        width = 10.0 ** rng.uniform(-2.0, 1.5)
        frequency = (0.0 if j % 10 == 0 else rng.choice([-1.0, 1.0])
                     * 10.0 ** rng.uniform(-2.0, 2.0))
        pot = PulsePotential(rng.uniform(-2.0, 2.0), frequency, width)
        s = rng.normal(0.0, width * rng.uniform(0.1, 10.0), 200)
        a2, a3, b = pot.moments(s)
        ref_a2, ref_b = _wofz_moments(pot, s)
        unit = width * np.sqrt(0.5 * np.pi)
        assert np.max(np.abs(a2 - ref_a2)) <= 4e-15 * unit * abs(pot.amplitude)
        assert np.max(np.abs(b - ref_b)) <= 4e-15 * unit * pot.amplitude ** 2
        assert np.all(a3 == 0.0)


def test_pulse_moments_silent_and_finite_at_extreme_inputs():
    """s = +-1e200, frequency +-1e200 and width 1e-300 neither warn nor
    leave a non-finite moment: past z = 28 and |b| = 28 every term is 0."""
    s = np.array([-1e200, -1.0, 0.0, 1e-300, 2.5, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for frequency in (0.0, 1.0, 1e200, -1e200):
            for width in (3.0, 1e-300):
                pot = PulsePotential(0.5, frequency, width)
                for moment in (*pot.moments(s), pot.moments(1e200)[0]):
                    assert np.all(np.isfinite(moment)), (frequency, width)
                assert np.all(np.isfinite(phase(pot, 0.3, -0.2, 1.0, -1e200, s)))
    # at |s| = 1e200 the moments are their limits, reached at s = +-130 (z > 28)
    pot = PulsePotential(0.5, 1.0, 3.0)
    a2, _, b = pot.moments(np.array([-1e200, 1e200]))
    ref_a2, ref_b = _wofz_moments(pot, np.array([-130.0, 130.0]))
    assert np.array_equal(a2, ref_a2) and np.array_equal(b, ref_b)


@pytest.mark.parametrize("frequency, width", [(1e200, 1e200), (1e308, 1.0), (-1e308, 1e-300),
                                              (1e301, 1e-10), (-1e160, 1e150), (1e-10, 1e301),
                                              (0.0, 1.7e308), (0.5, 1.5e300)])
def test_pulse_whose_moment_phases_overflow_is_refused_without_warning(frequency, width):
    """A pulse with |frequency|, width or |frequency| x width past 1e300 is
    a ValueError at construction: (1e200, 1e200) and (1e308, 1) once warned
    "invalid value encountered in divide" in _faddeeva and gave NaN moments,
    and (0, 1.7e308) warned of an overflow in multiply."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="frequency"):
            PulsePotential(0.5, frequency, width)
        with pytest.raises(ValueError, match="frequency"):
            potential_from_descriptor({"kind": "pulse", "amplitude": 0.5,
                                       "frequency": frequency, "width": width})


@pytest.mark.parametrize("frequency, width", [(1e300, 1.0), (-1e300, 1e-300), (1e150, 1e150),
                                              (-1e100, 1e200), (1.0, 1e300)])
def test_pulse_at_the_phase_cap_has_finite_moments_without_warning(frequency, width):
    s = np.array([-1e250, -1.0, 0.0, 1e-300, 1.0, 1e250])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pot = PulsePotential(0.5, frequency, width)
        for moment in pot.moments(s):
            assert np.all(np.isfinite(moment)), (frequency, width)


@pytest.mark.parametrize("frequency, width", [(1.0, 1e300), (0.0, 1e300), (-1e-10, 1e300),
                                              (1.0, 1e200), (1.0, 1.4e154)])
def test_widest_pulse_has_finite_field_and_moments_without_warning(frequency, width):
    """The widest pulse the constructor accepts has a finite field and
    finite moments.  width ** 2 raised OverflowError past about 1.34e154,
    so a run of such a pulse exited 3; its square is now inf there, and the
    envelope is exactly 1 wherever s^2 is finite."""
    s = np.array([-1e150, -1.0, 0.0, 1e-300, 1.0, 1e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pot = PulsePotential(0.5, frequency, width)
        values = (*pot.field(s), *pot.moments(s))
    for value in values:
        assert np.all(np.isfinite(value)), (frequency, width)
    assert np.array_equal(values[0], 0.5 * np.cos(frequency * s))


# Run in a fresh interpreter: this process has built the series already.
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from volkovfp import potential
print(json.dumps([potential._faddeeva_series.cache_info().currsize, "numpy.fft" in sys.modules]))
"""


def test_import_builds_no_faddeeva_series():
    src = str(Path(potential.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(done.stdout) == [0, False]


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def gl_integral(f, breaks):
    """int f over [breaks[0], breaks[-1]] by a 20-point Gauss-Legendre rule on
    each panel between consecutive breaks (increasing), f vectorised."""
    half = 0.5 * np.diff(breaks)[:, None]
    nodes = 0.5 * (breaks[1:] + breaks[:-1])[:, None] + half * _GL_NODES
    return np.sum(half * _GL_WEIGHTS * f(nodes))


def _panel_breaks(a, b, knots):
    """a, the knots strictly between a and b, and b, in increasing order."""
    lo, hi = min(a, b), max(a, b)
    return np.concatenate([[lo], knots[(knots > lo) & (knots < hi)], [hi]])


def _spline_reference(s, a2, a3, x):
    """a2, a3, da2, da3, A2, A3 and B of scipy's not-a-knot splines through
    the samples, at x; the moments vanish at s[0].

    A2 and A3 are scipy's antiderivatives; B integrates a2^2 + a3^2 by
    Gauss-Legendre over whole knot intervals plus the partial one, exact
    for the degree-6 square.
    """
    c2, c3 = CubicSpline(s, a2), CubicSpline(s, a3)
    sq = lambda t: c2(t) ** 2 + c3(t) ** 2
    whole = np.concatenate([[0.0], np.cumsum([gl_integral(sq, s[i:i + 2])
                                              for i in range(s.size - 1)])])
    i = np.clip(np.searchsorted(s, x, side="right") - 1, 0, s.size - 2)
    b = whole[i] + np.array([gl_integral(sq, np.array([s[j], t])) for j, t in zip(i, x)])
    return {"a2": c2(x), "a3": c3(x), "da2": c2(x, 1), "da3": c3(x, 1),
            "A2": c2.antiderivative()(x), "A3": c3.antiderivative()(x), "B": b}




@pytest.mark.parametrize("kind", ["uniform", "random"])
@pytest.mark.parametrize("n", [4, 5, 33, 241, 10_000])
def test_tabulated_spline_matches_scipy_cubic_spline(kind, n):
    """Values, derivatives and moments agree with scipy's not-a-knot
    CubicSpline to 1e-13 of max(1, max |reference|)."""
    rng = np.random.default_rng(n + (kind == "random"))
    s = np.linspace(-3.0, 5.0, n) if kind == "uniform" else np.sort(rng.uniform(-3.0, 5.0, n))
    a2, a3 = rng.normal(size=(2, n))
    tab = TabulatedPotential(s, a2, a3)
    x = np.concatenate([s, rng.uniform(s[0], s[-1], 200), [s[0], s[-1]]])
    if n > 1000:
        x = x[rng.choice(x.size, 600, replace=False)]
    ref = _spline_reference(s, a2, a3, x)
    got = dict(zip(("a2", "a3", "da2", "da3", "A2", "A3", "B"), tab.field(x) + tab.moments(x)))
    for name, want in ref.items():
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got[name] - want)) <= 1e-13 * scale, name


_UNEVEN = np.sort(np.concatenate([[-4.0, 4.0], np.random.default_rng(7).uniform(-4.0, 4.0, 38)]))


@pytest.mark.parametrize("pot, knots", [
    (ZeroPotential(), np.linspace(-4.0, 4.0, 33)),
    (HarmonicPotential(0.3, 1.4), np.linspace(-4.0, 4.0, 33)),
    (PulsePotential(0.5, 3.0, 1.2), np.linspace(-4.0, 4.0, 33)),
    (TabulatedPotential(_UNEVEN, 0.4 * np.cos(1.3 * _UNEVEN) + 0.1 * _UNEVEN,
                        0.3 * np.sin(0.9 * _UNEVEN) - 0.2), _UNEVEN),
], ids=["zero", "harmonic", "pulse", "tabulated-a3"])
def test_phase_matches_independent_gauss_legendre(pot, knots):
    """|int q ds - Phi| <= 1e-12 |Phi| on random intervals, int q ds by a
    Gauss-Legendre rule on phase_integrand with panels at the knots (exact
    on a tabulated profile, whose q is a degree-6 polynomial per interval):
    a wrong moment, A3 included, misses by O(1)."""
    rng = np.random.default_rng(3)
    for _ in range(60):
        a, b = rng.uniform(-4.0, 4.0, 2)
        k2, k3 = rng.normal(0.0, 0.7, 2)
        m = rng.uniform(0.5, 1.5)
        reference = np.sign(b - a) * gl_integral(
            lambda x: phase_integrand(pot, k2, k3, m, x), _panel_breaks(a, b, knots))
        value = phase(pot, k2, k3, m, a, b)
        assert abs(reference - value) <= 1e-12 * abs(value), (a, b, k2, k3, m)


def test_tabulated_moments_exact_for_the_spline():
    s = np.linspace(-4.0, 4.0, 33)
    tab = TabulatedPotential(s, 0.3 * np.cos(1.7 * s) + 0.05 * s, 0.2 * np.sin(s))
    q = (0.4, -0.2, 1.0)
    for a, b in [(-4.0, 4.0), (-3.3, 1.25), (2.9, -0.4), (0.1, 0.1 + 1e-3)]:
        inner = s[(s > min(a, b)) & (s < max(a, b))]
        ref, _ = quad(lambda x: phase_integrand(tab, *q, x), a, b, points=inner,
                      epsabs=1e-13, epsrel=1e-13, limit=500)
        assert phase(tab, *q, a, b) == pytest.approx(ref, rel=1e-12, abs=1e-12)
    with pytest.raises(PotentialDomainError):
        phase(tab, *q, -4.5, 0.0)
    with pytest.raises(PotentialDomainError):
        tab.moments(4.01)


@pytest.mark.parametrize("pot", [
    ZeroPotential(), HarmonicPotential(0.3, 1.4), PulsePotential(0.5, 3.0, 1.2),
    TabulatedPotential(np.linspace(-3.0, 3.0, 25), 0.2 * np.cos(np.linspace(-3.0, 3.0, 25)),
                       0.1 * np.linspace(-3.0, 3.0, 25)),
], ids=["zero", "harmonic", "pulse", "tabulated"])
def test_transverse_phase_broadcasts_over_momenta(pot):
    k2 = np.array([-0.7, 0.0, 0.3, 1.1])
    k3 = np.array([0.2, -0.4, 0.0, 0.5])
    vec = transverse_phase(pot, k2, k3, -0.5, 2.2)
    scalar = [transverse_phase(pot, float(a), float(b), -0.5, 2.2) for a, b in zip(k2, k3)]
    assert vec.shape == k2.shape
    assert np.array_equal(vec, scalar)


def _spy_on_check_domain(monkeypatch, pot):
    """The list that collects the s of every check_domain call on pot's
    class from now on, and the unpatched method."""
    checked = []
    original = type(pot).check_domain

    def spy(self, s):
        checked.append(s)
        return original(self, s)

    monkeypatch.setattr(type(pot), "check_domain", spy)
    return checked, original


@pytest.mark.parametrize("pot", [
    ZeroPotential(), HarmonicPotential(0.3, 1.4), PulsePotential(0.5, 3.0, 1.2),
    TabulatedPotential(np.linspace(-3.0, 3.0, 25), 0.2 * np.cos(np.linspace(-3.0, 3.0, 25))),
], ids=["zero", "harmonic", "pulse", "tabulated"])
def test_transverse_phase_checks_both_endpoints_in_one_call(monkeypatch, pot):
    """One moments call, and so one domain check, takes both endpoints;
    a NaN endpoint, or one outside a table, is still a domain error."""
    checked, _ = _spy_on_check_domain(monkeypatch, pot)
    transverse_phase(pot, 0.3, -0.2, -0.5, np.array([0.5, 2.2]))
    assert len(checked) == 1
    assert np.array_equal(checked[0], [-0.5, 0.5, 2.2])
    outside = [np.nan] if not isinstance(pot, TabulatedPotential) else [np.nan, 3.5, -3.01]
    for bad in outside:
        for ends in ((bad, 1.0), (0.0, np.array([1.0, bad]))):
            with pytest.raises(PotentialDomainError):
                transverse_phase(pot, 0.3, -0.2, *ends)


@pytest.mark.parametrize("pot", [
    ZeroPotential(), HarmonicPotential(0.3, 1.4), PulsePotential(0.5, 3.0, 1.2),
    TabulatedPotential(np.linspace(-3.0, 3.0, 25), 0.2 * np.cos(np.linspace(-3.0, 3.0, 25)),
                       0.1 * np.linspace(-3.0, 3.0, 25)),
], ids=["zero", "harmonic", "pulse", "tabulated"])
def test_phase_integrand_checks_the_domain_once(monkeypatch, pot):
    """One domain check per phase_integrand call, the same values as from
    a2 and a3; a NaN s, or one outside a table, is still a domain error
    with check_domain's message."""
    s = np.array([-2.5, 0.5, 2.2])
    a2, a3 = pot.field(s)[:2]
    t2, t3 = 0.3 + a2, -0.2 + a3
    expected = t2 * t2 + t3 * t3 + 1.5 * 1.5
    checked, original = _spy_on_check_domain(monkeypatch, pot)
    assert np.array_equal(phase_integrand(pot, 0.3, -0.2, 1.5, s), expected)
    assert len(checked) == 1
    outside = [np.nan] if not isinstance(pot, TabulatedPotential) else [np.nan, 3.5, -3.01]
    for bad in outside:
        for where in (bad, np.array([1.0, bad])):
            with pytest.raises(PotentialDomainError) as direct:
                original(pot, where)
            with pytest.raises(PotentialDomainError) as raised:
                phase_integrand(pot, 0.3, -0.2, 1.5, where)
            assert str(raised.value) == str(direct.value)


@pytest.mark.parametrize("pot", [
    ZeroPotential(), HarmonicPotential(0.3, 1.4), PulsePotential(0.5, 3.0, 1.2),
    TabulatedPotential(np.linspace(-3.0, 3.0, 25), 0.2 * np.cos(np.linspace(-3.0, 3.0, 25)),
                       0.1 * np.linspace(-3.0, 3.0, 25)),
], ids=["zero", "harmonic", "pulse", "tabulated"])
def test_field_checks_the_domain_once(monkeypatch, pot):
    """field gives (a2, a3, a2', a3'), each shaped like s, after one domain
    check; a NaN s, or one outside a table, raises check_domain's error."""
    checked, original = _spy_on_check_domain(monkeypatch, pot)
    for s in (0.7, np.array([[-2.5, 0.5, 2.2], [0.0, 1.0, -1.0]])):
        checked.clear()
        values = pot.field(s)
        assert len(checked) == 1 and len(values) == 4
        assert all(np.shape(v) == np.shape(s) and np.all(np.isfinite(v)) for v in values)
    outside = [np.nan] if not isinstance(pot, TabulatedPotential) else [np.nan, 3.5, -3.01]
    for bad in outside:
        for where in (bad, np.array([1.0, bad])):
            with pytest.raises(PotentialDomainError) as direct:
                original(pot, where)
            with pytest.raises(PotentialDomainError) as raised:
                pot.field(where)
            assert str(raised.value) == str(direct.value)


def test_profile_interface_is_field_and_moments():
    """Every profile is evaluated through field and moments alone: no class
    of the module keeps per-component methods, apart from the one a2 view
    on PulsePotential that the benchmark's tracer self-test wraps."""
    classes = [c for c in vars(potential).values()
               if isinstance(c, type) and c.__module__ == potential.__name__]
    profiles = {c for c in classes if issubclass(c, PlaneWavePotential)} - {PlaneWavePotential}
    assert profiles == {ZeroPotential, HarmonicPotential, PulsePotential, TabulatedPotential}
    for cls in profiles:
        assert {"field", "moments"} <= vars(cls).keys(), cls.__name__
    for cls in classes:
        assert not {"a3", "da2", "da3", "_transverse"} & vars(cls).keys(), cls.__name__
        assert ("a2" in vars(cls)) == (cls is PulsePotential), cls.__name__


def test_phase_vectorised_endpoints():
    pot = HarmonicPotential(0.2, 1.0)
    q = (0.3, 0.0, 1.0)
    s_vals = np.array([-2.0, -0.5, 0.0, 1.0, 2.5])
    vec = phase(pot, *q, 0.0, s_vals)
    scalar = np.array([phase(pot, *q, 0.0, float(s)) for s in s_vals])
    assert np.allclose(vec, scalar, rtol=1e-14)

    pulse = PulsePotential(0.5, 1.0, 2.0)
    vec = phase(pulse, *q, 0.0, s_vals)
    scalar = np.array([phase(pulse, *q, 0.0, float(s)) for s in s_vals])
    assert np.allclose(vec, scalar, rtol=1e-11)


def test_tabulated_domain_and_interpolation():
    s = np.linspace(-5.0, 5.0, 201)
    base = HarmonicPotential(0.3, 1.2)
    tab = TabulatedPotential(s, *base.field(s)[:2])
    probe = np.linspace(-4.9, 4.9, 57)
    assert np.max(np.abs(tab.field(probe)[0] - base.field(probe)[0])) < 1e-5
    q = (0.1, 0.0, 1.0)
    assert phase(tab, *q, -2.0, 2.0) == pytest.approx(phase(base, *q, -2.0, 2.0), rel=1e-6)
    with pytest.raises(PotentialDomainError):
        tab.field(5.1)
    with pytest.raises(PotentialDomainError):
        phase(tab, *q, 0.0, 6.0)
    with pytest.raises(PotentialDomainError):
        phase_integrand(tab, *q, -5.0001)


def test_descriptor_roundtrip():
    """A descriptor builds the profile its constructor builds."""
    assert isinstance(potential_from_descriptor({"kind": "zero"}), ZeroPotential)
    assert potential_from_descriptor({"kind": "harmonic", "amplitude": 0.2, "frequency": 1.0}) \
        == HarmonicPotential(0.2, 1.0)
    assert potential_from_descriptor({"kind": "pulse", "amplitude": 0.1, "frequency": 2.0,
                                      "width": 1.5}) == PulsePotential(0.1, 2.0, 1.5)
    s = np.linspace(0, 1, 11)
    a2 = np.linspace(0, 0.5, 11)
    tab = potential_from_descriptor({"kind": "tabulated", "s": s.tolist(), "a2": a2.tolist()})
    expected = TabulatedPotential(s, a2)
    assert isinstance(tab, TabulatedPotential)
    assert all(map(np.array_equal, tab.field(s), expected.field(s)))


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        HarmonicPotential(0.2, 0.0)
    with pytest.raises(ValueError):
        TabulatedPotential([0, 1], [0, 1])
    with pytest.raises(ValueError, match="strictly increasing"):
        TabulatedPotential([0.0, 0.0, 1.0, 2.0], [0.2, 0.1, 0.0, 0.1])
    with pytest.raises(ValueError):
        potential_from_descriptor({"kind": "nope"})


@pytest.mark.parametrize("desc", [
    {"kind": "harmonic", "amplitude": float("nan"), "frequency": 1.0},
    {"kind": "harmonic", "amplitude": 0.2, "frequency": float("inf")},
    {"kind": "pulse", "amplitude": 0.1, "frequency": float("nan"), "width": 1.0},
    {"kind": "pulse", "amplitude": 0.1, "frequency": 2.0, "width": float("inf")},
    {"kind": "tabulated", "s": [0.0, 1.0, 2.0, 3.0], "a2": [0.0, float("nan"), 0.0, 0.0]},
    {"kind": "tabulated", "s": [0.0, 1.0, 2.0, 3.0], "a2": [0.0] * 4,
     "a3": [0.0, 0.0, float("-inf"), 0.0]},
])
def test_non_finite_descriptor_fields_rejected(desc):
    with pytest.raises(ValueError, match="finite"):
        potential_from_descriptor(desc)


_SAMPLES = [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("desc, match", [
    ({"kind": "harmonic", "amplitude": "0.2", "frequency": True, "width": 3}, "unknown field"),
    ({"kind": "harmonic", "amplitude": "0.2", "frequency": 1.0}, "must be a number"),
    ({"kind": "harmonic", "amplitude": 0.2, "frequency": True}, "must be a number"),
    ({"kind": "harmonic", "amplitude": 0.2, "frequency": np.True_}, "must be a number"),
    ({"kind": "harmonic", "amplitude": 10 ** 400, "frequency": 1.0}, "must be a number"),
    ({"kind": "pulse", "amplitude": 0.2, "frequency": None, "width": 1.0}, "must be a number"),
    ({"kind": "harmonic", "amplitude": 0.2}, "missing field 'frequency'"),
    ({"kind": "pulse", "amplitude": 0.2, "frequency": 1.0}, "missing field 'width'"),
    ({"kind": "zero", "amplitude": 0.0}, "unknown field"),
    ({"kind": "tabulated", "s": _SAMPLES}, "missing field 'a2'"),
    ({"kind": "tabulated", "s": _SAMPLES, "a2": ["0", 0, 0, 0]}, "list of numbers"),
    ({"kind": "tabulated", "s": _SAMPLES, "a2": [0.0] * 4, "a3": [False] * 4}, "list of numbers"),
    ({"kind": "tabulated", "s": _SAMPLES, "a2": 0.0}, "list of numbers"),
    ({"kind": "tabulated", "s": _SAMPLES, "a2": [0.0] * 4, "b": 1}, "unknown field"),
    ({"amplitude": 0.2, "frequency": 1.0}, "unknown potential kind"),
    (["harmonic", 0.2, 1.0], "mapping"),
])
def test_malformed_descriptor_rejected(desc, match):
    with pytest.raises(ValueError, match=match):
        potential_from_descriptor(desc)


@pytest.mark.parametrize("desc, expected", [
    ({"kind": "harmonic", "amplitude": 1, "frequency": 2}, HarmonicPotential(1.0, 2.0)),
    (MappingProxyType({"kind": "pulse", "amplitude": 0.5, "frequency": np.float64(1.0),
                       "width": np.int64(3)}), PulsePotential(0.5, 1.0, 3.0)),
    ({"kind": "tabulated", "s": (0, 1, 2, 3), "a2": np.zeros(4), "a3": None},
     TabulatedPotential(_SAMPLES, [0.0] * 4)),
], ids=["json-ints", "read-only-mapping", "tabulated-without-a3"])
def test_descriptor_accepts_integers_and_mappings(desc, expected):
    built = potential_from_descriptor(desc)
    if isinstance(expected, TabulatedPotential):
        s = np.array(_SAMPLES)
        assert all(map(np.array_equal, built.field(s), expected.field(s)))
    else:
        assert built == expected
