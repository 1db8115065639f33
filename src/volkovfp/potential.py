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

Zero and Harmonic phases are evaluated in closed form; Pulse and
Tabulated phases fall back to adaptive Gauss-Kronrod quadrature with
absolute tolerance 1e-12 (the integrand is smooth and non-oscillatory,
all oscillation lives in complex exponentials applied downstream).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

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

_QUAD_ABS_TOL = 1e-12


class PotentialDomainError(ValueError):
    """Raised when a potential is queried outside its sampled domain."""


def _require_finite(**fields) -> None:
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"potential {name} must be finite")


@dataclass(frozen=True)
class PhaseQuery:
    """Transverse momenta and mass entering the phase integrand."""

    k2: float
    k3: float
    m: float

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"mass must be positive, got {self.m}")


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

    def descriptor(self) -> dict:
        """JSON-serialisable description of the profile."""
        raise NotImplementedError

    # Closed-form transverse phase; None means "integrate numerically".
    def _transverse_phase_closed(self, k2, k3, s_from, s_to):
        return None


class ZeroPotential(PlaneWavePotential):
    """Vacuum profile a2 = a3 = 0."""

    def a2(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    a3 = a2
    da2 = a2
    da3 = a2

    def descriptor(self) -> dict:
        return {"kind": "zero"}

    def _transverse_phase_closed(self, k2, k3, s_from, s_to):
        return (k2 * k2 + k3 * k3) * (np.asarray(s_to, dtype=float) - s_from)


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

    def _transverse_phase_closed(self, k2, k3, s_from, s_to):
        # int (k2 + lam cos(w s))^2 + k3^2
        #   = (k2^2 + k3^2 + lam^2/2) ds + (2 k2 lam / w) d(sin w s)
        #     + (lam^2 / 4w) d(sin 2 w s)
        lam, w = self.amplitude, self.frequency
        s_to = np.asarray(s_to, dtype=float)
        mean = (k2 * k2 + k3 * k3 + 0.5 * lam * lam) * (s_to - s_from)
        first = (2.0 * k2 * lam / w) * (np.sin(w * s_to) - np.sin(w * s_from))
        second = (lam * lam / (4.0 * w)) * (np.sin(2.0 * w * s_to) - np.sin(2.0 * w * s_from))
        return mean + first + second


@dataclass(frozen=True)
class PulsePotential(PlaneWavePotential):
    """Gaussian-enveloped harmonic pulse, a3 = 0.

    a2(s) = amplitude * exp(-s^2 / (2 width^2)) * cos(frequency * s).
    Smooth and rapidly decaying; the phase integral is done by quadrature.
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

    def descriptor(self) -> dict:
        return {
            "kind": "tabulated",
            "s": self._s.tolist(),
            "a2": self._a2_samples.tolist(),
            "a3": self._a3_samples.tolist(),
        }


def potential_from_descriptor(desc: dict) -> PlaneWavePotential:
    """Rebuild a potential from its descriptor dictionary."""
    kind = desc.get("kind")
    if kind == "zero":
        return ZeroPotential()
    if kind == "harmonic":
        return HarmonicPotential(float(desc["amplitude"]), float(desc["frequency"]))
    if kind == "pulse":
        return PulsePotential(
            float(desc["amplitude"]), float(desc["frequency"]), float(desc["width"])
        )
    if kind == "tabulated":
        return TabulatedPotential(desc["s"], desc["a2"], desc.get("a3"))
    raise ValueError(f"unknown potential kind {kind!r}")


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


def transverse_phase(pot: PlaneWavePotential, k2: float, k3: float, s_from: float, s_to):
    """Mass-free part of the phase, int (k2+a2)^2 + (k3+a3)^2 ds.

    Accepts scalar or array s_to.  Closed forms for Zero/Harmonic,
    adaptive quadrature otherwise.
    """
    pot.check_domain(s_from)
    pot.check_domain(s_to)
    closed = pot._transverse_phase_closed(k2, k3, s_from, s_to)
    if closed is not None:
        return closed

    def integrand(s):
        t2 = k2 + pot.a2(s)
        t3 = k3 + pot.a3(s)
        return t2 * t2 + t3 * t3

    s_to_arr = np.asarray(s_to, dtype=float)
    if s_to_arr.ndim == 0:
        val, _ = quad(integrand, s_from, float(s_to_arr), epsabs=_QUAD_ABS_TOL,
                      epsrel=1e-12, limit=400)
        return val
    # Integrate once along the sorted endpoints and accumulate, so an
    # n-point evaluation costs n quadratures over short subintervals.
    order = np.argsort(s_to_arr, kind="stable")
    sorted_s = s_to_arr[order]
    out_sorted = np.empty_like(sorted_s)
    prev_s, prev_val = s_from, 0.0
    for i, s_i in enumerate(sorted_s):
        if s_i != prev_s:
            inc, _ = quad(integrand, prev_s, s_i, epsabs=_QUAD_ABS_TOL,
                          epsrel=1e-12, limit=400)
            prev_val += inc
            prev_s = s_i
        out_sorted[i] = prev_val
    out = np.empty_like(out_sorted)
    out[order] = out_sorted
    return out


def phase(pot: PlaneWavePotential, q: PhaseQuery, s_from: float, s_to):
    """Cumulative phase Phi(s_from, s_to) = int of phase_integrand.

    Additive in the endpoints and strictly increasing in s_to with
    slope >= m^2.  Scalar or array s_to.
    """
    return transverse_phase(pot, q.k2, q.k3, s_from, s_to) + q.m * q.m * (
        np.asarray(s_to, dtype=float) - s_from
    )


def zeta(pot: PlaneWavePotential, q: PhaseQuery, s):
    """Monotone null reparametrisation zeta(s) = Phi(0, s)."""
    return phase(pot, q, 0.0, s)
