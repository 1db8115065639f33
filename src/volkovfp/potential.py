"""Plane-wave potential profiles and their cumulative phase integrals.

A plane electromagnetic wave in Lorenz gauge reduces to two transverse
profiles a2(s), a3(s) depending on the single null coordinate s = t+x.
The dynamics of a separated mode with transverse momenta (k2, k3) and
mass m only sees the profiles through the phase integrand

    q(s) = (k2 + a2(s))^2 + (k3 + a3(s))^2 + m^2  >=  m^2 > 0

and its integral Phi(s_from, s_to) = int q, ``phase(pot, k2, k3, m,
s_from, s_to)``.  Phi is additive in its endpoints and strictly
increasing in s_to with slope at least m^2, so Phi(0, s) is a strictly
monotone reparametrisation of s.  The mode phase factor
e^{-i Phi / 4u} built from it is ``volkovfp.modes.phase_factor``.

Profiles
--------
ZeroPotential       a2 = a3 = 0
HarmonicPotential   a2 = amplitude * cos(frequency * s), a3 = 0
PulsePotential      a2 = amplitude * exp(-s^2 / 2 width^2) * cos(frequency*s)
TabulatedPotential  not-a-knot cubic splines through sampled (s, a2, a3);
                    evaluation outside the sample range is a hard error,
                    never an extrapolation

A profile is evaluated by two calls, each of which checks its s against
the domain once (check_domain): field(s) = (a2, a3, a2', a3') and
moments(s) = (A2, A3, B), each entry shaped like s.  q is quadratic in
the momenta, so the phase needs only the exact moments A2 = int a2,
A3 = int a3, B = int (a2^2 + a3^2) (elementary, Gaussian, or spline
antiderivatives): the mass-free phase is
(k2^2 + k3^2) ds + 2 k2 dA2 + 2 k3 dA3 + dB.

Every profile runs on numpy alone.  Pulse moments
(_gaussian_cosine_integral) evaluate the Faddeeva function w by
Weideman's rational approximation (_faddeeva); TabulatedPotential keeps
its splines with their derivatives, and their moments, as two numpy
coefficient tables.

A descriptor {"kind": ..., field: value} is read by its kind's key table
(volkovfp.schema): a malformed one raises ValueError naming the field.
Profiles are only read, never written: this module does no file I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Mapping

import numpy as np

from .schema import Key, Table, described, number, numbers

__all__ = [
    "PotentialDomainError",
    "PlaneWavePotential",
    "ZeroPotential",
    "HarmonicPotential",
    "PulsePotential",
    "TabulatedPotential",
    "potential_from_descriptor",
    "phase_integrand",
    "transverse_phase",
    "phase",
]


class PotentialDomainError(ValueError):
    """Raised when a potential is queried outside its sampled domain."""


def _require_finite(**fields) -> None:
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"potential {name} must be finite")


class PlaneWavePotential:
    """Base class for transverse plane-wave profiles (a2(s), a3(s))."""

    def check_domain(self, s) -> None:
        """Raise PotentialDomainError if any s lies outside the domain."""
        # Profiles defined on the whole line accept everything finite.
        if not np.all(np.isfinite(s)):
            raise PotentialDomainError("potential queried at non-finite s")

    def field(self, s):
        """(a2, a3, a2', a3') at s, each shaped like s, after one domain
        check: an s outside the domain raises PotentialDomainError."""
        raise NotImplementedError

    def moments(self, s):
        """(A2, A3, B) at s: antiderivatives of a2, a3 and a2^2 + a3^2;
        an s outside the domain raises PotentialDomainError."""
        raise NotImplementedError


class ZeroPotential(PlaneWavePotential):
    """Vacuum profile a2 = a3 = 0."""

    def field(self, s):
        self.check_domain(s)
        zero = np.zeros_like(np.asarray(s, dtype=float))
        return zero, zero, zero, zero

    def moments(self, s):
        self.check_domain(s)
        zero = np.zeros_like(np.asarray(s, dtype=float))
        return zero, zero, zero


@dataclass(frozen=True)
class HarmonicPotential(PlaneWavePotential):
    """Monochromatic wave a2(s) = amplitude * cos(frequency * s), a3 = 0."""

    amplitude: float
    frequency: float

    def __post_init__(self):
        _require_finite(amplitude=self.amplitude, frequency=self.frequency)
        if self.frequency == 0:
            raise ValueError("harmonic frequency must be nonzero")

    def field(self, s):
        self.check_domain(s)
        lam, w = self.amplitude, self.frequency
        s = np.asarray(s, dtype=float)
        zero = np.zeros_like(s)
        return lam * np.cos(w * s), zero, -lam * w * np.sin(w * s), zero

    def moments(self, s):
        self.check_domain(s)
        lam, w = self.amplitude, self.frequency
        s = np.asarray(s, dtype=float)
        return ((lam / w) * np.sin(w * s), np.zeros_like(s),
                0.5 * lam * lam * (s + np.sin(2.0 * w * s) / (2.0 * w)))


_MAX_PULSE_PHASE = 1e300


@dataclass(frozen=True)
class PulsePotential(PlaneWavePotential):
    """Gaussian-enveloped harmonic pulse, a3 = 0.

    a2(s) = amplitude * exp(-s^2 / (2 width^2)) * cos(frequency * s).
    Smooth and rapidly decaying; its moments are Gaussian integrals.  A
    |frequency| or |frequency| x width past _MAX_PULSE_PHASE is refused:
    the moments form phases up to 56 |frequency| width and 2 frequency.
    """

    amplitude: float
    frequency: float
    width: float

    def __post_init__(self):
        _require_finite(amplitude=self.amplitude, frequency=self.frequency, width=self.width)
        if self.width <= 0:
            raise ValueError("pulse width must be positive")
        if not abs(self.frequency) * max(self.width, 1.0) <= _MAX_PULSE_PHASE:
            raise ValueError(f"pulse |frequency| and |frequency| x width must be at most "
                             f"{_MAX_PULSE_PHASE:g}: the phases of its moments overflow")

    def field(self, s):
        self.check_domain(s)
        f = self.frequency
        s = np.asarray(s, dtype=float)
        envelope = self.amplitude * np.exp(-np.square(s) / (2.0 * self.width ** 2))
        cos, zero = np.cos(f * s), np.zeros_like(s)
        return (envelope * cos, zero,
                envelope * (-(s / self.width ** 2) * cos - f * np.sin(f * s)), zero)

    def a2(self, s):
        # The one per-component view: perfbench's tracer self-test checks
        # that it wraps PulsePotential.a2 (ROADMAP item 7 drops both).
        return self.field(s)[0]

    def moments(self, s):
        # a2^2 is the envelope at width / sqrt(2) times (1 + cos(2 frequency s)) / 2
        self.check_domain(s)
        lam, w, f = self.amplitude, self.width, self.frequency
        s = np.asarray(s, dtype=float)
        narrow = w / np.sqrt(2.0)
        a2, b0, b2 = _gaussian_cosine_integral(s, [w, narrow, narrow], [f, 0.0, 2.0 * f])
        return lam * a2, np.zeros_like(s), 0.5 * lam * lam * (b0 + b2)


_OVERFLOW = "the tabulated splines through s overflow: s is too unevenly spaced or a2, a3 too large"


class TabulatedPotential(PlaneWavePotential):
    """Not-a-knot cubic splines through sampled transverse profiles.

    The splines are scipy's CubicSpline(s, a2) and CubicSpline(s, a3),
    built with numpy alone (_not_a_knot_cubics); their derivatives and
    their moments are exact piecewise polynomials on the same knots, kept
    as two tables: (a2, a3, a2', a3') and (A2, A3, B).
    Queries outside [s[0], s[-1]] raise PotentialDomainError: silent
    extrapolation would corrupt every phase built on top of the profile.
    Samples whose splines overflow the float range are a ValueError.
    """

    def __init__(self, s, a2, a3=None):
        s = np.asarray(s, dtype=float)
        a2 = np.asarray(a2, dtype=float)
        if s.ndim != 1 or len(s) < 4:
            raise ValueError("tabulated potential needs at least 4 samples")
        if not np.all(s[1:] > s[:-1]):
            raise ValueError("tabulated s values must be strictly increasing")
        if a2.shape != s.shape:
            raise ValueError("a2 samples must match s samples")
        if a3 is None:
            a3 = np.zeros_like(s)
        a3 = np.asarray(a3, dtype=float)
        if a3.shape != s.shape:
            raise ValueError("a3 samples must match s samples")
        _require_finite(s=s, a2=a2, a3=a3)
        with np.errstate(all="ignore"):
            if not np.isfinite(s[-1] - s[0]):
                raise ValueError("tabulated s must span a finite range")
            h = np.diff(s)
            cubic = _not_a_knot_cubics(s, h, np.stack([a2, a3]))
            # Square each interval's cubic exactly: degree-6 coefficients sum_{i+j=k} c_i c_j.
            sq = np.zeros((7, h.size))
            for i in range(4):
                sq[i:i + 4] += (cubic[i] * cubic).sum(axis=1)
            moments = np.zeros((8, 3, h.size))
            moments[3:, :2] = _antiderivative(cubic, h)
            moments[:, 2] = _antiderivative(sq, h)
        if not (np.all(np.isfinite(cubic)) and np.all(np.isfinite(moments))):
            raise ValueError(_OVERFLOW)
        # Tables are (coefficient, ..., interval), highest degree first.
        self._s = s
        self._inner = s[1:-1]
        # The derivative quadratics lead with a zero coefficient: Horner's
        # 0 * h + c is c exactly, so they keep the bits of a degree-2 table.
        self._field = np.zeros((4, 4, h.size))
        self._field[:, :2] = cubic
        self._field[1:, 2:] = cubic[:3] * np.array([3.0, 2.0, 1.0])[:, None, None]
        self._moments = moments

    @property
    def s_min(self) -> float:
        return float(self._s[0])

    @property
    def s_max(self) -> float:
        return float(self._s[-1])

    def check_domain(self, s) -> None:
        s = np.asarray(s, dtype=float)
        if not np.all(np.isfinite(s)):
            raise PotentialDomainError("potential queried at non-finite s")
        if np.any(s < self.s_min) or np.any(s > self.s_max):
            raise PotentialDomainError(
                f"s outside tabulated range [{self.s_min}, {self.s_max}]"
            )

    def _at(self, table, s):
        """The piecewise polynomials `table` (coefficient, ..., interval) at s,
        shaped (..., *s.shape).

        Interval i covers [s_i, s_{i+1}), the last one [s_{n-2}, s_{n-1}].
        """
        self.check_domain(s)
        s = np.asarray(s, dtype=float)
        i = np.searchsorted(self._inner, s, side="right")
        # take, unlike table[..., i], gathers each coefficient contiguously
        return _horner(table.take(i, axis=-1), s - self._s[i])

    def field(self, s):
        return tuple(self._at(self._field, s))

    def moments(self, s):
        # The antiderivatives vanish at s_min; only differences enter a phase.
        return tuple(self._at(self._moments, s))


def _horner(c, h):
    """sum_k c[k] h^(K-1-k) for coefficients c[0], ..., c[K-1] (K >= 2),
    highest degree first, each broadcasting against h."""
    value = c[0] * h
    for ck in c[1:-1]:
        value += ck
        value *= h
    value += c[-1]
    return value


def _antiderivative(table, h):
    """Continuous antiderivatives, 0 at the first knot, of the piecewise
    polynomials `table` (coefficient, ..., interval) on intervals of widths h.

    Each interval's constant is the sum of the earlier intervals' increments.
    """
    degree = table.shape[0]
    anti = np.zeros((degree + 1,) + table.shape[1:])
    for k in range(degree):
        anti[k] = table[k] / (degree - k)
    anti[-1, ..., 1:] = np.cumsum(_horner(anti[..., :-1], h[:-1]), axis=-1)
    return anti


def _not_a_knot_cubics(s, h, y):
    """Per-interval coefficients (4, row, interval), highest degree first,
    of the not-a-knot cubic splines through the rows of y (row, knot).

    The knot slopes m solve the tridiagonal system CubicSpline assembles:
    interior rows h_i m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_{i-1} m_{i+1}
    = 3 (h_i d_{i-1} + h_{i-1} d_i) for the secants d, and end rows that
    make the third derivative continuous at s_1 and s_{n-2}.  One
    elimination without pivoting solves it: every pivot is positive.
    Each interval is then the cubic Hermite interpolant of its end values
    and slopes.
    """
    n = s.size
    d = np.diff(y) / h
    lower, diag, upper = np.empty(n), np.empty(n), np.empty(n)
    rhs = np.empty_like(y)
    lower[1:-1], diag[1:-1], upper[1:-1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    rhs[:, 1:-1] = 3.0 * (h[1:] * d[:, :-1] + h[:-1] * d[:, 1:])
    span = s[2] - s[0]
    diag[0], upper[0] = h[1], span
    rhs[:, 0] = ((h[0] + 2.0 * span) * h[1] * d[:, 0] + h[0] ** 2 * d[:, 1]) / span
    span = s[-1] - s[-3]
    diag[-1], lower[-1] = h[-2], span
    rhs[:, -1] = (h[-1] ** 2 * d[:, -2] + (2.0 * span + h[-1]) * h[-2] * d[:, -1]) / span
    # Python floats: they neither warn nor raise on overflow, and each
    # divisor is checked first, so nothing here raises ZeroDivisionError.
    lower, diag, upper = lower.tolist(), diag.tolist(), upper.tolist()
    for i in range(1, n):
        if not diag[i - 1] > 0.0:  # NaN, or a positive pivot lost to rounding
            raise ValueError(_OVERFLOW)
        lower[i] /= diag[i - 1]
        diag[i] -= lower[i] * upper[i - 1]
    if not diag[-1] > 0.0:
        raise ValueError(_OVERFLOW)
    m = rhs.tolist()
    for row in m:
        for i in range(1, n):
            row[i] -= lower[i] * row[i - 1]
        row[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            row[i] = (row[i] - upper[i] * row[i + 1]) / diag[i]
    m = np.array(m)
    t = (m[:, :-1] + m[:, 1:] - 2.0 * d) / h
    return np.stack([t / h, (d - m[:, :-1]) / h - t, m[:, :-1], y[:, :-1]])


@cache
def _faddeeva_series():
    """Weideman's coefficients a_N, ..., a_1 (highest degree first) and
    his L = sqrt(N / sqrt(2)), for N = 40, from one FFT of samples of
    e^{-t^2} (L^2 + t^2) at t = L tan(k pi / 2N), |k| < 2N.

    The real coefficients are stored as complex: Horner's rule then adds
    each to a complex array without a cast, a quarter faster at few points.
    """
    n = 40
    m = 2 * n
    L = np.sqrt(n / np.sqrt(2.0))
    t = L * np.tan(np.arange(1 - m, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return a[n:0:-1].astype(complex), L


def _faddeeva(z):
    """The Faddeeva function w(z) = e^{-z^2} erfc(-iz) for Im z >= 0.

    Weideman's series (SIAM J. Numer. Anal. 31 (1994) 1497) with N = 40,
    2 sum_n a_n Z^(n-1) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)) with
    Z = (L + iz) / (L - iz), |Z| <= 1; it divides by L - iz twice, not by
    its square, so a huge z cannot overflow.
    """
    a, L = _faddeeva_series()
    iz = 1j * z
    d = L - iz
    return (2.0 * _horner(a, (L + iz) / d) / d + 1.0 / np.sqrt(np.pi)) / d


def _gaussian_cosine_integral(s, widths, frequencies):
    """int_0^s exp(-t^2 / (2 width^2)) cos(frequency t) dt, shaped
    (len(widths), *s.shape): one row per (width, frequency) pair.

    With z = |s| / (sqrt(2) width) and b = frequency width / sqrt(2) it is
    sign(s) width sqrt(pi/2) Re[e^{-b^2} - e^{-z^2 + i frequency |s|} w(b + i z)],
    w the Faddeeva function (_faddeeva), evaluated for all rows at once.
    w stays bounded for z >= 0, so nothing overflows where e^{-b^2}
    underflows.  Past 28, e^{-z^2} and e^{-b^2} are 0.0 in float64:
    z and |b| are clamped there, which leaves every value unchanged and
    keeps z^2, b^2 and frequency |s| finite at any finite input.
    """
    s = np.asarray(s, dtype=float)
    rows = (-1,) + (1,) * s.ndim
    width, frequency = np.reshape(widths, rows), np.reshape(frequencies, rows)
    scale = np.sqrt(2.0) * width
    a = np.minimum(np.abs(s), 28.0 * scale)
    z = a / scale
    b = frequency * width / np.sqrt(2.0)
    tail = np.exp(-z * z + 1j * frequency * a) * _faddeeva(b + 1j * z)
    gauss = np.exp(-np.square(np.minimum(np.abs(b), 28.0)))
    return np.sign(s) * width * np.sqrt(0.5 * np.pi) * (gauss - tail.real)


_PROFILES = {
    "zero": (ZeroPotential, Table({})),
    "harmonic": (HarmonicPotential, Table(dict.fromkeys(("amplitude", "frequency"), Key(number)))),
    "pulse": (PulsePotential, Table(dict.fromkeys(("amplitude", "frequency", "width"),
                                                  Key(number)))),
    "tabulated": (TabulatedPotential, Table({
        **dict.fromkeys(("s", "a2"), Key(numbers)),
        "a3": Key(lambda v, name: None if v is None else numbers(v, name), default=None),
    })),
}


def potential_from_descriptor(desc: Mapping, name: str = "potential") -> PlaneWavePotential:
    """Build a potential from its descriptor mapping, named `name` in
    errors; a tabulated "a3" may be left out or null."""
    return described(desc, _PROFILES, name)


def _integrand(k2, k3, m, a2, a3):
    """(k2 + a2)^2 + (k3 + a3)^2 + m^2 at given field values."""
    t2 = k2 + a2
    t3 = k3 + a3
    return t2 * t2 + t3 * t3 + m * m


def phase_integrand(pot: PlaneWavePotential, k2, k3, m, s):
    """(k2 + a2(s))^2 + (k3 + a3(s))^2 + m^2; always >= m^2."""
    return _integrand(k2, k3, m, *pot.field(s)[:2])


def transverse_phase(pot: PlaneWavePotential, k2, k3, s_from, s_to):
    """Mass-free part of the phase, int_{s_from}^{s_to} (k2+a2)^2 + (k3+a3)^2 ds.

    (k2^2 + k3^2) ds + 2 k2 dA2 + 2 k3 dA3 + dB over the profile moments
    at the two endpoints; momenta and endpoints broadcast against each
    other (array s_to, or arrays of k2 and k3 at one s).  One moments
    call takes both endpoints.
    """
    s_from, s_to = np.asarray(s_from, dtype=float), np.asarray(s_to, dtype=float)
    n = s_from.size
    (a2_from, a2_to), (a3_from, a3_to), (b_from, b_to) = (
        (value[:n].reshape(s_from.shape), value[n:].reshape(s_to.shape))
        for value in pot.moments(np.concatenate([s_from.ravel(), s_to.ravel()])))
    return ((k2 * k2 + k3 * k3) * (s_to - s_from)
            + 2.0 * k2 * (a2_to - a2_from) + 2.0 * k3 * (a3_to - a3_from) + (b_to - b_from))


def phase(pot: PlaneWavePotential, k2, k3, m, s_from, s_to):
    """Cumulative phase Phi(s_from, s_to) = int of phase_integrand.

    Additive in the endpoints and strictly increasing in s_to with
    slope >= m^2.  Momenta, mass and endpoints broadcast against each other.
    """
    return transverse_phase(pot, k2, k3, s_from, s_to) + m * m * (
        np.asarray(s_to, dtype=float) - s_from
    )
