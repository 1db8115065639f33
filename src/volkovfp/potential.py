"""Plane-wave potential profiles and their cumulative phase integrals.

A plane electromagnetic wave in Lorenz gauge reduces to two transverse
profiles a2(s), a3(s) depending on the single null coordinate s = t+x.
The dynamics of a separated mode with transverse momenta (k2, k3) and
mass m only sees the profiles through the phase integrand

    q(s) = (k2 + a2(s))^2 + (k3 + a3(s))^2 + m^2  >=  m^2 > 0

and its integral Phi(s_from, s_to) = int q.  Phi is additive in its
endpoints and strictly increasing in s_to with slope at least m^2, so
zeta(s) = Phi(0, s) is a strictly monotone reparametrisation of s.

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
"""

from __future__ import annotations

import csv
import numbers
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "PotentialDomainError",
    "PhaseQuery",
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
    "zeta",
]


class PotentialDomainError(ValueError):
    """Raised when a potential is queried outside its sampled domain."""


def _require_finite(**fields) -> None:
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"potential {name} must be finite")


def _broadcast_fields(obj, names) -> list:
    """Values of a frozen dataclass's fields, stored as one-shape float arrays.

    Scalars stay as given; if any field is an array, every field is
    broadcast to the common shape, so each entry names one mode.
    """
    values = [getattr(obj, name) for name in names]
    if not all(np.isscalar(v) for v in values):
        values = [np.array(v, dtype=float) for v in np.broadcast_arrays(*values)]
        for name, value in zip(names, values):
            object.__setattr__(obj, name, value)
    return values


@dataclass(frozen=True)
class PhaseQuery:
    """Transverse momenta and mass entering the phase integrand.

    Scalars, or arrays with one query per entry (see _broadcast_fields).
    """

    k2: float | np.ndarray
    k3: float | np.ndarray
    m: float | np.ndarray

    def __post_init__(self):
        m = _broadcast_fields(self, ("k2", "k3", "m"))[2]
        if not (np.asarray(m) > 0).all():
            raise ValueError(f"mass must be positive, got {np.min(self.m)}")


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


def _is_number(value) -> bool:
    """A real number, not a bool, that converts to a float without overflow."""
    if isinstance(value, numbers.Integral):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real)


_NUMBER = (_is_number, "a number")
_SAMPLES = (lambda v: isinstance(v, (list, tuple, np.ndarray)) and all(map(_is_number, v)),
            "a list of numbers")


def _descriptor_fields(desc, kinds: dict, what: str, optional=()) -> tuple[str, dict]:
    """Kind and fields of a {"kind": kind, field: value, ...} descriptor.

    kinds maps each kind to its fields and each field to (test, meaning).
    An unknown kind or field, a missing field (one named in `optional` may
    be left out or None) and a value failing its test raise ValueError.
    """
    if not isinstance(desc, Mapping):
        raise ValueError(f"{what} descriptor must be a mapping, got {desc!r:.40}")
    kind = desc.get("kind")
    if not (isinstance(kind, str) and kind in kinds):
        raise ValueError(f"unknown {what} kind {kind!r}")
    fields = kinds[kind]
    unknown = sorted(set(desc) - {"kind", *fields})
    if unknown:
        raise ValueError(f"{kind} {what} has unknown field {unknown[0]!r}")
    values = {}
    for name, (test, meaning) in fields.items():
        value = desc.get(name)
        if value is None and name in optional:
            continue
        if name not in desc:
            raise ValueError(f"{kind} {what} is missing field {name!r}")
        if not test(value):
            raise ValueError(f"{kind} {what} field {name!r} must be {meaning}, got {value!r:.40}")
        values[name] = value
    return kind, values


_POTENTIAL_FIELDS = {
    "zero": {},
    "harmonic": dict.fromkeys(("amplitude", "frequency"), _NUMBER),
    "pulse": dict.fromkeys(("amplitude", "frequency", "width"), _NUMBER),
    "tabulated": dict.fromkeys(("s", "a2", "a3"), _SAMPLES),
}


def potential_from_descriptor(desc: Mapping) -> PlaneWavePotential:
    """Rebuild a potential from its descriptor mapping.

    Numbers must be numbers (not bools or text); an unknown kind or field
    or a missing field raises ValueError.  A tabulated "a3" may be left out.
    """
    kind, f = _descriptor_fields(desc, _POTENTIAL_FIELDS, "potential", optional=("a3",))
    if kind == "zero":
        return ZeroPotential()
    if kind == "harmonic":
        return HarmonicPotential(float(f["amplitude"]), float(f["frequency"]))
    if kind == "pulse":
        return PulsePotential(float(f["amplitude"]), float(f["frequency"]), float(f["width"]))
    return TabulatedPotential(f["s"], f["a2"], f.get("a3"))


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


def phase_integrand(pot: PlaneWavePotential, q: PhaseQuery, s):
    """(k2 + a2(s))^2 + (k3 + a3(s))^2 + m^2; always >= m^2."""
    pot.check_domain(s)
    t2 = q.k2 + pot.a2(s)
    t3 = q.k3 + pot.a3(s)
    return t2 * t2 + t3 * t3 + q.m * q.m


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


def phase(pot: PlaneWavePotential, q: PhaseQuery, s_from, s_to):
    """Cumulative phase Phi(s_from, s_to) = int of phase_integrand.

    Additive in the endpoints and strictly increasing in s_to with
    slope >= m^2.  Endpoints and query fields broadcast against each other.
    """
    return transverse_phase(pot, q.k2, q.k3, s_from, s_to) + q.m * q.m * (
        np.asarray(s_to, dtype=float) - s_from
    )


def zeta(pot: PlaneWavePotential, q: PhaseQuery, s):
    """Monotone null reparametrisation zeta(s) = Phi(0, s)."""
    return phase(pot, q, 0.0, s)
