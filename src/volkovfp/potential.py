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
TabulatedPotential  cubic interpolation of sampled (s, a2, a3); evaluation
                    outside the sample range is a hard error, never an
                    extrapolation

q is quadratic in the momenta, so each profile enters only through its
exact moments A2 = int a2, A3 = int a3, B = int (a2^2 + a3^2) (elementary,
Gaussian, or spline antiderivatives), and the mass-free phase is
(k2^2 + k3^2) ds + 2 k2 dA2 + 2 k3 dA3 + dB.

Only two profiles need scipy, and each imports it where it is called:
TabulatedPotential builds its splines with scipy.interpolate, and the
PulsePotential moments (_gaussian_cosine_integral) evaluate
scipy.special.wofz.  Zero and harmonic profiles run on numpy alone.

A descriptor {"kind": ..., field: value} is read by its kind's key table
(volkovfp.schema): a malformed one raises ValueError naming the field.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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
    "tabulated_from_csv",
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

    def a2(self, s):
        raise NotImplementedError

    def a3(self, s):
        raise NotImplementedError

    def da2(self, s):
        """Analytic derivative a2'(s)."""
        raise NotImplementedError

    def da3(self, s):
        raise NotImplementedError

    def check_domain(self, s) -> None:
        """Raise PotentialDomainError if any s lies outside the domain."""
        # Profiles defined on the whole line accept everything finite.
        if not np.all(np.isfinite(s)):
            raise PotentialDomainError("potential queried at non-finite s")

    def moments(self, s):
        """(A2, A3, B) at s: antiderivatives of a2, a3 and a2^2 + a3^2."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        """JSON-serialisable description of the profile."""
        raise NotImplementedError


class ZeroPotential(PlaneWavePotential):
    """Vacuum profile a2 = a3 = 0."""

    def a2(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    a3 = a2
    da2 = a2
    da3 = a2

    def moments(self, s):
        zero = np.zeros_like(np.asarray(s, dtype=float))
        return zero, zero, zero

    def descriptor(self) -> dict:
        return {"kind": "zero"}


@dataclass(frozen=True)
class HarmonicPotential(PlaneWavePotential):
    """Monochromatic wave a2(s) = amplitude * cos(frequency * s), a3 = 0."""

    amplitude: float
    frequency: float

    def __post_init__(self):
        _require_finite(amplitude=self.amplitude, frequency=self.frequency)
        if self.frequency == 0:
            raise ValueError("harmonic frequency must be nonzero")

    def a2(self, s):
        return self.amplitude * np.cos(self.frequency * np.asarray(s, dtype=float))

    def a3(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def da2(self, s):
        return -self.amplitude * self.frequency * np.sin(self.frequency * np.asarray(s, dtype=float))

    da3 = a3

    def descriptor(self) -> dict:
        return {"kind": "harmonic", "amplitude": self.amplitude, "frequency": self.frequency}

    def moments(self, s):
        lam, w = self.amplitude, self.frequency
        s = np.asarray(s, dtype=float)
        return ((lam / w) * np.sin(w * s), np.zeros_like(s),
                0.5 * lam * lam * (s + np.sin(2.0 * w * s) / (2.0 * w)))


@dataclass(frozen=True)
class PulsePotential(PlaneWavePotential):
    """Gaussian-enveloped harmonic pulse, a3 = 0.

    a2(s) = amplitude * exp(-s^2 / (2 width^2)) * cos(frequency * s).
    Smooth and rapidly decaying; its moments are Gaussian integrals.
    """

    amplitude: float
    frequency: float
    width: float

    def __post_init__(self):
        _require_finite(amplitude=self.amplitude, frequency=self.frequency, width=self.width)
        if self.width <= 0:
            raise ValueError("pulse width must be positive")

    def _envelope(self, s):
        return self.amplitude * np.exp(-np.square(s) / (2.0 * self.width ** 2))

    def a2(self, s):
        s = np.asarray(s, dtype=float)
        return self._envelope(s) * np.cos(self.frequency * s)

    def a3(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def da2(self, s):
        s = np.asarray(s, dtype=float)
        w = self.frequency
        return self._envelope(s) * (-(s / self.width ** 2) * np.cos(w * s) - w * np.sin(w * s))

    da3 = a3

    def moments(self, s):
        # a2^2 is the envelope at width / sqrt(2) times (1 + cos(2 frequency s)) / 2
        lam, w, f = self.amplitude, self.width, self.frequency
        s = np.asarray(s, dtype=float)
        b = 0.5 * lam * lam * (_gaussian_cosine_integral(s, w / np.sqrt(2.0), 0.0)
                               + _gaussian_cosine_integral(s, w / np.sqrt(2.0), 2.0 * f))
        return lam * _gaussian_cosine_integral(s, w, f), np.zeros_like(s), b

    def descriptor(self) -> dict:
        return {
            "kind": "pulse",
            "amplitude": self.amplitude,
            "frequency": self.frequency,
            "width": self.width,
        }


class TabulatedPotential(PlaneWavePotential):
    """Cubic interpolation of sampled transverse profiles.

    Queries outside [s[0], s[-1]] raise PotentialDomainError: silent
    extrapolation would corrupt every phase built on top of the profile.
    """

    def __init__(self, s, a2, a3=None):
        from scipy.interpolate import CubicSpline, PPoly

        s = np.asarray(s, dtype=float)
        a2 = np.asarray(a2, dtype=float)
        if s.ndim != 1 or len(s) < 4:
            raise ValueError("tabulated potential needs at least 4 samples")
        if not np.all(np.diff(s) > 0):
            raise ValueError("tabulated s values must be strictly increasing")
        if a2.shape != s.shape:
            raise ValueError("a2 samples must match s samples")
        if a3 is None:
            a3 = np.zeros_like(s)
        a3 = np.asarray(a3, dtype=float)
        if a3.shape != s.shape:
            raise ValueError("a3 samples must match s samples")
        _require_finite(s=s, a2=a2, a3=a3)
        self._s = s
        self._a2_samples = a2
        self._a3_samples = a3
        self._a2 = CubicSpline(s, a2)
        self._a3 = CubicSpline(s, a3)
        self._da2 = self._a2.derivative()
        self._da3 = self._a3.derivative()
        self._int_a2 = self._a2.antiderivative()
        self._int_a3 = self._a3.antiderivative()
        # Square each interval's cubic exactly: degree-6 coefficients sum_{i+j=k} c_i c_j.
        sq = np.zeros((7, s.size - 1))
        for i in range(4):
            sq[i:i + 4] += self._a2.c[i] * self._a2.c + self._a3.c[i] * self._a3.c
        self._int_sq = PPoly(sq, s).antiderivative()

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

    def a2(self, s):
        self.check_domain(s)
        return self._a2(s)

    def a3(self, s):
        self.check_domain(s)
        return self._a3(s)

    def da2(self, s):
        self.check_domain(s)
        return self._da2(s)

    def da3(self, s):
        self.check_domain(s)
        return self._da3(s)

    def moments(self, s):
        # The antiderivatives vanish at s_min; only differences enter a phase.
        self.check_domain(s)
        return self._int_a2(s), self._int_a3(s), self._int_sq(s)

    def descriptor(self) -> dict:
        return {
            "kind": "tabulated",
            "s": self._s.tolist(),
            "a2": self._a2_samples.tolist(),
            "a3": self._a3_samples.tolist(),
        }


def _gaussian_cosine_integral(s, width: float, frequency: float):
    """int_0^s exp(-t^2 / (2 width^2)) cos(frequency t) dt, scalar or array s.

    With z = |s| / (sqrt(2) width) and b = frequency width / sqrt(2) it is
    sign(s) width sqrt(pi/2) Re[e^{-b^2} - e^{-z^2 + i frequency |s|} w(b + i z)],
    w the Faddeeva function.  w stays bounded for z >= 0, so nothing
    overflows where e^{-b^2} underflows.
    """
    from scipy.special import wofz

    s = np.asarray(s, dtype=float)
    z = np.abs(s) / (np.sqrt(2.0) * width)
    b = frequency * width / np.sqrt(2.0)
    tail = np.exp(-z * z + 1j * frequency * np.abs(s)) * wofz(b + 1j * z)
    return np.sign(s) * width * np.sqrt(0.5 * np.pi) * (np.exp(-b * b) - tail.real)


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
    """Rebuild a potential from its descriptor mapping, named `name` in
    errors; a tabulated "a3" may be left out or null."""
    return described(desc, _PROFILES, name)


def tabulated_from_csv(path) -> TabulatedPotential:
    """Load a tabulated profile from CSV columns (s, a2[, a3]).

    A header row is required and s must be strictly increasing.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        cols = [c.strip().lower() for c in header]
        if len(cols) < 2 or cols[0] != "s" or cols[1] != "a2":
            raise ValueError(f"{path}: header must start with columns 's,a2[,a3]'")
        has_a3 = len(cols) >= 3 and cols[2] == "a3"
        s, a2, a3 = [], [], []
        for row in reader:
            if not row:
                continue
            s.append(float(row[0]))
            a2.append(float(row[1]))
            if has_a3:
                a3.append(float(row[2]))
    return TabulatedPotential(s, a2, a3 if has_a3 else None)


def phase_integrand(pot: PlaneWavePotential, k2, k3, m, s):
    """(k2 + a2(s))^2 + (k3 + a3(s))^2 + m^2; always >= m^2."""
    pot.check_domain(s)
    t2 = k2 + pot.a2(s)
    t3 = k3 + pot.a3(s)
    return t2 * t2 + t3 * t3 + m * m


def transverse_phase(pot: PlaneWavePotential, k2, k3, s_from, s_to):
    """Mass-free part of the phase, int_{s_from}^{s_to} (k2+a2)^2 + (k3+a3)^2 ds.

    (k2^2 + k3^2) ds + 2 k2 dA2 + 2 k3 dA3 + dB over the profile moments
    at the two endpoints; momenta and endpoints broadcast against each
    other (array s_to, or arrays of k2 and k3 at one s).
    """
    pot.check_domain(s_from)
    pot.check_domain(s_to)
    a2_to, a3_to, b_to = pot.moments(s_to)
    a2_from, a3_from, b_from = pot.moments(s_from)
    return ((k2 * k2 + k3 * k3) * (np.asarray(s_to, dtype=float) - s_from)
            + 2.0 * k2 * (a2_to - a2_from) + 2.0 * k3 * (a3_to - a3_from) + (b_to - b_from))


def phase(pot: PlaneWavePotential, k2, k3, m, s_from, s_to):
    """Cumulative phase Phi(s_from, s_to) = int of phase_integrand.

    Additive in the endpoints and strictly increasing in s_to with
    slope >= m^2.  Momenta, mass and endpoints broadcast against each other.
    """
    return transverse_phase(pot, k2, k3, s_from, s_to) + m * m * (
        np.asarray(s_to, dtype=float) - s_from
    )
