"""Phase integrals: closed forms vs quadrature, additivity, monotonicity."""

from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

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
    tabulated_from_csv,
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
    tab = TabulatedPotential(s, base.a2(s), base.a3(s))
    probe = np.linspace(-4.9, 4.9, 57)
    assert np.max(np.abs(tab.a2(probe) - base.a2(probe))) < 1e-5
    q = (0.1, 0.0, 1.0)
    assert phase(tab, *q, -2.0, 2.0) == pytest.approx(phase(base, *q, -2.0, 2.0), rel=1e-6)
    with pytest.raises(PotentialDomainError):
        tab.a2(5.1)
    with pytest.raises(PotentialDomainError):
        phase(tab, *q, 0.0, 6.0)
    with pytest.raises(PotentialDomainError):
        phase_integrand(tab, *q, -5.0001)


def test_tabulated_csv_roundtrip(tmp_path):
    s = np.linspace(0.0, 3.0, 31)
    a2 = 0.2 * np.cos(s)
    path = tmp_path / "profile.csv"
    path.write_text("s,a2\n" + "\n".join(f"{x},{y}" for x, y in zip(s, a2)) + "\n")
    pot = tabulated_from_csv(path)
    assert pot.a2(1.5) == pytest.approx(0.2 * np.cos(1.5), abs=1e-6)
    # header is mandatory
    bad = tmp_path / "noheader.csv"
    bad.write_text("0.0,0.2\n1.0,0.1\n")
    with pytest.raises(ValueError):
        tabulated_from_csv(bad)
    # strictly increasing s enforced
    bad2 = tmp_path / "unsorted.csv"
    bad2.write_text("s,a2\n0.0,0.2\n0.0,0.1\n1.0,0.0\n2.0,0.1\n")
    with pytest.raises(ValueError):
        tabulated_from_csv(bad2)


def test_descriptor_roundtrip():
    for pot in (ZeroPotential(), HarmonicPotential(0.2, 1.0),
                PulsePotential(0.1, 2.0, 1.5)):
        clone = potential_from_descriptor(pot.descriptor())
        s = np.linspace(-2, 2, 11)
        assert np.allclose(clone.a2(s), pot.a2(s))
    tab = TabulatedPotential(np.linspace(0, 1, 11), np.linspace(0, 0.5, 11))
    clone = potential_from_descriptor(tab.descriptor())
    assert clone.a2(0.37) == pytest.approx(tab.a2(0.37))


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        HarmonicPotential(0.2, 0.0)
    with pytest.raises(ValueError):
        TabulatedPotential([0, 1], [0, 1])
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
    assert potential_from_descriptor(desc).descriptor() == expected.descriptor()
