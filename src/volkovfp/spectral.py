"""Frequency-content diagnostics of the projector kernel.

For a harmonic profile a2(s) = amplitude * cos(frequency * s) the phase
integral is elementary and the scalar kernel factor at s~ = 0 becomes a
discrete line spectrum

    e^{-i Phi(0,s)/4u} = sum_n c_n e^{-i (v0 + n frequency) s},

    v0  = (k2^2 + k3^2 + amplitude^2/2 + m^2) / (4u),
    c_n = sum_{n1 + 2 n2 = n} J_{n1}(z1) J_{n2}(z2),
    z1  = k2 * amplitude / (2 frequency u),
    z2  = amplitude^2 / (16 frequency u),

a double Jacobi-Anger resummation of the two sine harmonics appearing in
the phase (one at the wave frequency, one at twice it).  The c_n satisfy
sum |c_n|^2 = 1 since the resummed function has unit modulus.  At
amplitude 0 the spectrum collapses to the single dispersion line
4 u v = k2^2 + k3^2 + m^2.

``spectrum_fft`` recovers the same lines from uniform samples of the
scalar kernel factor: windowed FFT, 3-bin parabolic interpolation of the
log-magnitude around each peak (exact for Gaussian windows, whose
transform is a Gaussian), and amplitude read-off with the window's
coherent gain divided out.

``windowed_phase_transform`` evaluates the off-grid transform of the
window f times the mode phase factor (``modes.phase_factor``),

    F(v) = int f(s) e^{-i Phi(0,s)/4u} e^{i v s} ds,

with the checked Gauss-Legendre panel rule of ``volkovfp.quadrature``
(panels a few wavelengths of the fastest oscillation wide, accepted only
when halving them leaves F unchanged).  The sum over the rule's nodes is
factored over its panels, e^{i v s} = e^{i v mid} e^{i v h x}, so a
transform costs (v, 32) and (v, panel) exponentials and one matrix
product; no (v, s) kernel is built.  It serves the one-sided rapid-decay
diagnostic: for u < 0 the phase derivative of the integrand never
vanishes once v > m^2/(8u), so F decays rapidly towards positive v while
Plancherel, int |F|^2 dv = 2 pi int |f|^2 ds, rules out any spurious
global smallness.

Everything here runs on numpy alone: the Bessel functions J_k(z) of the
sidebands come from one Miller downward recurrence per argument
(``_bessel_orders``).  Both line spectra come back as three arrays
(n, v_n, c_n), the columns of the sideband tables; lines and transforms
are returned, not written: ``volkovfp.cli`` writes every artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .modes import ModeParams, phase_factor
from .potential import PlaneWavePotential
from .quadrature import PanelRule, UndersampledGridError, checked_panels, phase_rate
from .schema import Key, Table, described, number

__all__ = [
    "GaussianWindow",
    "HannWindow",
    "window_from_descriptor",
    "UndersampledGridError",
    "harmonic_sidebands_analytic",
    "spectrum_fft",
    "windowed_phase_transform",
    "transform_rule",
    "transform_l2",
    "plancherel_reference",
    "decay_order_fit",
    "tail_decay_orders",
]


@dataclass(frozen=True)
class GaussianWindow:
    """exp(-(s-center)^2 / 2 width^2); effectively supported within 9 widths."""

    center: float
    width: float
    _CUT = 9.0

    def __post_init__(self):
        if not (np.isfinite(self.center) and 0 < self.width < np.inf):
            raise ValueError("window center must be finite and width positive")
        if self.width < np.sqrt(np.finfo(float).tiny):  # sample divides by 2 width^2
            raise ValueError(f"window width {self.width:g} is too small: its square underflows")

    def sample(self, s):
        s = np.asarray(s, dtype=float)
        return np.exp(-np.square(s - self.center) / (2.0 * self.width ** 2))

    def support(self) -> tuple[float, float]:
        return (self.center - self._CUT * self.width, self.center + self._CUT * self.width)

    def sq_integral(self) -> float:
        return self.width * np.sqrt(np.pi)


@dataclass(frozen=True)
class HannWindow:
    """Raised cosine 0.5 (1 + cos(2 pi (s - mid)/span)) on [lo, hi], 0 outside."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("window support must be finite")
        if not self.lo < self.hi:
            raise ValueError("empty window support")

    def sample(self, s):
        s = np.asarray(s, dtype=float)
        mid = 0.5 * (self.lo + self.hi)
        span = self.hi - self.lo
        inside = np.abs(s - mid) <= 0.5 * span
        out = np.zeros_like(s)
        out[inside] = 0.5 * (1.0 + np.cos(2.0 * np.pi * (s[inside] - mid) / span))
        return out

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def sq_integral(self) -> float:
        return 0.375 * (self.hi - self.lo)


_WINDOWS = {"gaussian": (GaussianWindow, Table(dict.fromkeys(("center", "width"), Key(number)))),
            "hann": (HannWindow, Table(dict.fromkeys(("lo", "hi"), Key(number))))}


def window_from_descriptor(desc: Mapping, name: str = "window"):
    """Build a window from its descriptor mapping, checked as in potential_from_descriptor."""
    return described(desc, _WINDOWS, name)


# ---------------------------------------------------------------------------
# analytic sidebands

_MAX_ORDERS = 2 ** 20


def harmonic_carrier(mode: ModeParams, amplitude: float, frequency: float) -> float:
    """Carrier frequency (k2^2 + k3^2 + amplitude^2/2 + m^2) / 4u."""
    if frequency == 0:
        raise ValueError("harmonic frequency must be nonzero")
    return (mode.k2 ** 2 + mode.k3 ** 2 + 0.5 * amplitude ** 2 + mode.m ** 2) / (4.0 * mode.u)


def _bessel_orders(z: float, n: int) -> np.ndarray:
    """J_k(z) for k = -n..n and real z, by Miller's downward recurrence.

    The recurrence J_{k-1} = (2k/z) J_k - J_{k+1} starts at an even order
    above n + |z| with J_{top+1} = 0 and is normalised by
    J_0 + 2 sum_k J_2k = 1.  Above |z|, where the J_k fall, it runs on
    the ratios r_k = J_k / J_{k-1} = z / (2k - z r_{k+1}), so no value
    can overflow however small z is; at and below |z| it runs on the
    values, whose steps 2k/|z| <= 2 stay bounded.  J_{-k} = (-1)^k J_k.
    A recurrence of more than _MAX_ORDERS orders is refused before it runs.
    """
    z = float(z)
    # past |z| the J_k fall roughly like e^{-(k - |z|)^{3/2} / |z|^{1/2}}, and the
    # start's relative error at order k scales as (J_top / J_k)^2: this margin
    # puts it below double precision
    start = n + abs(z) + 16.0 + 8.0 * abs(z) ** (1.0 / 3.0)
    if not start <= _MAX_ORDERS:
        raise UndersampledGridError(
            f"Bessel recurrence for J_k({z:.3g}), |k| <= {n}, would start at order "
            f"{start:.3g}, more than {_MAX_ORDERS}")
    top = 2 * math.ceil(start / 2)
    mid = int(abs(z))
    ratios = []
    r = 0.0
    for k in range(top, mid, -1):
        r = z / (2 * k - z * r)
        ratios.append(r)
    values = [1.0]
    above, here = r, 1.0
    for k in range(mid, 0, -1):
        above, here = here, (2 * k / z) * here - above
        values.append(here)
    j = np.empty(top + 1)
    j[mid::-1] = values
    j[mid + 1:] = np.cumprod(ratios[::-1])
    j /= j[0] + 2.0 * np.sum(j[2::2])
    j = j[:n + 1]
    flipped = j[:0:-1].copy()
    flipped[n - 1::-2] *= -1.0
    return np.concatenate((flipped, j))


def harmonic_sidebands_analytic(mode: ModeParams, amplitude: float, frequency: float,
                                n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bessel-product sideband lines (n, v_n, c_n) for |n| <= n_max.

    Three arrays over n = -n_max..n_max: the index n, the frequency
    v_n = v0 + n frequency and the complex amplitude
    c_n = sum over n1 + 2 n2 = n of J_{n1}(z1) J_{n2}(z2); the two
    arguments come from the first and second harmonic of the phase.  The
    sum runs over |n2| <= n_max + 16, so |n1| <= 3 n_max + 32, and is one
    valid-mode convolution of the z1 orders with the z2 orders spread onto
    even indices: (2 n_max + 1) x (2 n_max + 33) nonzero products.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if frequency == 0:
        raise ValueError("harmonic frequency must be nonzero")
    v0 = harmonic_carrier(mode, amplitude, frequency)
    z1 = mode.k2 * amplitude / (2.0 * frequency * mode.u)
    z2 = amplitude ** 2 / (16.0 * frequency * mode.u)

    n2_cap = n_max + 16
    j1 = _bessel_orders(z1, n_max + 2 * n2_cap)
    j2 = np.zeros(4 * n2_cap + 1)
    j2[::2] = _bessel_orders(z2, n2_cap)
    n = np.arange(-n_max, n_max + 1)
    return n, v0 + n * frequency, np.convolve(j1, j2, mode="valid").astype(complex)


# ---------------------------------------------------------------------------
# FFT spectra


def spectrum_fft(s_grid, values, window, base_frequency: float, carrier: float,
                 n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract lines (n, v_n, c_n) at carrier + n * base_frequency from uniform samples.

    values are samples of a function sum_n c_n e^{-i v_n s}.  The grid
    must span at least 16 base periods and its Nyquist frequency must
    exceed the largest requested line.  Peak positions come from a 3-bin
    parabolic fit of log|FFT| (exact for Gaussian windows), done for all
    2 n_max + 1 lines at once; amplitudes are the windowed projections at
    the refined positions, one per line, normalised by the window's
    coherent gain.  Returns three arrays over n = -n_max..n_max.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    values = np.asarray(values, dtype=complex)
    if s_grid.ndim != 1 or s_grid.shape != values.shape:
        raise ValueError("s_grid and values must be matching 1-d arrays")
    if s_grid.size < 2:
        raise ValueError(f"spectrum_fft needs at least 2 samples, got {s_grid.size}")
    steps = np.diff(s_grid)
    ds = steps[0]
    if not np.allclose(steps, ds, rtol=1e-9, atol=0.0):
        raise ValueError("spectrum_fft needs a uniform s grid")
    if base_frequency == 0:
        raise ValueError("base frequency must be nonzero")
    span = s_grid[-1] - s_grid[0]
    period = 2.0 * np.pi / abs(base_frequency)
    if span < 16.0 * period:
        raise UndersampledGridError(
            f"grid spans {span / period:.1f} base periods, need at least 16"
        )
    nyquist = np.pi / ds
    v_extreme = abs(carrier) + n_max * abs(base_frequency)
    if nyquist <= 1.25 * v_extreme:
        raise UndersampledGridError(
            f"Nyquist {nyquist:.3g} too low for lines up to |v| = {v_extreme:.3g}"
        )

    n_samples = s_grid.shape[0]
    w = np.asarray(window.sample(s_grid), dtype=float)
    gain = float(np.sum(w))
    if not 0 < gain < np.inf:
        raise ValueError(f"window sums to {gain:.3g} on the sampling grid, not a positive number")
    windowed = values * w
    mag = np.abs(np.fft.fft(windowed))
    dv = 2.0 * np.pi / (n_samples * ds)

    n = np.arange(-n_max, n_max + 1)
    v_expect = carrier + n * base_frequency
    # component e^{-i v s} lands in bin k with 2 pi k / (N ds) = -v mod 2 pi/ds
    k0 = np.round((-v_expect / dv) % n_samples).astype(int) % n_samples
    half = max(2, int(0.35 * abs(base_frequency) / dv))
    cand = (k0[:, None] + np.arange(-half, half + 1)) % n_samples
    k_peak = cand[n + n_max, np.argmax(mag[cand], axis=1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        lm, lc, lp = np.log(mag[(k_peak + np.array([[-1], [0], [1]])) % n_samples])
        denom = lm - 2.0 * lc + lp
        delta = np.where(np.isfinite(denom) & (denom != 0), 0.5 * (lm - lp) / denom, 0.0)
    # unwrap the refined bin to the v-representative nearest v_expect
    v_raw = -(k_peak + np.clip(delta, -0.5, 0.5)) * dv
    wrap = 2.0 * np.pi / ds
    v_hat = v_raw - wrap * np.round((v_raw - v_expect) / wrap)
    amps = [np.sum(windowed * np.exp(1j * v * s_grid)) / gain for v in v_hat]
    return n, v_hat, np.array(amps, dtype=complex)


# ---------------------------------------------------------------------------
# windowed phase transform


def transform_rule(mode: ModeParams, pot: PlaneWavePotential, window, v_grid) -> PanelRule:
    """The checked panel rule windowed_phase_transform integrates with.

    rule.fourier(v_grid) is the transform on v_grid; the rule's nodes,
    weights and error_estimate (the halving estimate at the two ends of
    the v grid) report how it was obtained.
    """
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    lo, hi = window.support()

    def core(s):
        return np.asarray(window.sample(s), dtype=complex) * phase_factor(mode, pot, 0.0, s)

    v_ends = (v_grid.min(), v_grid.max()) if v_grid.size else (0.0,)
    return checked_panels(lo, hi, phase_rate(mode, pot, lo, hi), core, v_ends)


def windowed_phase_transform(mode: ModeParams, pot: PlaneWavePotential, window,
                             v_grid) -> np.ndarray:
    """F(v) = int f(s) e^{-i Phi(0,s)/4u} e^{i v s} ds on the given v grid.

    The quadrature is the checked Gauss-Legendre panel rule of
    ``volkovfp.quadrature``: panels a few wavelengths of the fastest
    oscillation wide (phase rate plus the largest |v|), accepted only
    when halving them changes F at both ends of the v grid by at most
    1e-12 of sum |w f|; otherwise UndersampledGridError is raised.
    The sum over its nodes is factored over the panels (PanelRule.fourier);
    F has the shape of the v grid.
    """
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    return transform_rule(mode, pot, window, v_grid).fourier(v_grid)


def transform_l2(v_grid, f_values) -> float:
    """Trapezoid integral of |F|^2 over the sampled v grid.

    The sum is written out in the order scipy.integrate.trapezoid takes,
    so it matches `scipy.integrate.trapezoid` bit for bit (a test asserts
    it) without importing scipy.
    """
    v_grid = np.asarray(v_grid, dtype=float)
    y = np.abs(np.asarray(f_values)) ** 2
    return float(np.sum(np.diff(v_grid) * (y[1:] + y[:-1]) / 2.0))


def plancherel_reference(window) -> float:
    """2 pi int |f|^2 ds, the Plancherel value of int |F|^2 dv for the window f."""
    return 2.0 * np.pi * window.sq_integral()


# ---------------------------------------------------------------------------
# decay-order fits


def decay_order_fit(x, magnitudes) -> tuple[float, float]:
    """Least-squares exponent N of a |x|^-N envelope, with fit residual.

    Fits log|value| against log|x|; N is minus the slope and the residual
    is the rms misfit.  Superpolynomial decay shows up as N growing with
    the upper end of the fit window.
    """
    x = np.asarray(x, dtype=float)
    magnitudes = np.asarray(magnitudes, dtype=float)
    if x.shape != magnitudes.shape or x.ndim != 1:
        raise ValueError("x and magnitudes must be matching 1-d arrays")
    if x.shape[0] < 8:
        raise ValueError("decay fit needs at least 8 samples")
    if np.any(magnitudes <= 0):
        raise ValueError("decay fit needs positive magnitudes")
    if np.any(x <= 0):
        raise ValueError("decay fit needs positive abscissae")
    lx = np.log(x)
    if np.ptp(lx) == 0:
        raise ValueError("degenerate fit window")
    ly = np.log(magnitudes)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(-slope), resid


_TAIL_POINTS = 25  # geometric v samples per tail
_TAIL_FLOOR = 1e-300  # |F| is clipped here so that log|F| stays finite


def tail_decay_orders(mode: ModeParams, pot: PlaneWavePotential, window,
                      v_lo: float, v_hi: float) -> dict:
    """Measured decay orders of |F(v)| on the +/- tails [v_lo, v_hi].

    Reports the fitted order on each side; the positive-v side is the
    asserted rapid-decay direction, the negative side is reported for
    comparison only (no rate is claimed for it).  Both tails come from
    one transform, checked at +/- v_hi.
    """
    if not (0 < v_lo < v_hi):
        raise ValueError("need 0 < v_lo < v_hi")
    v_plus = np.geomspace(v_lo, v_hi, _TAIL_POINTS)
    f_plus, f_minus = np.abs(windowed_phase_transform(mode, pot, window, [v_plus, -v_plus]))
    order_plus, resid_plus = decay_order_fit(v_plus, np.maximum(f_plus, _TAIL_FLOOR))
    order_minus, resid_minus = decay_order_fit(v_plus, np.maximum(f_minus, _TAIL_FLOOR))
    return {
        "v_lo": v_lo,
        "v_hi": v_hi,
        "order_positive": order_plus,
        "residual_positive": resid_plus,
        "order_negative": order_minus,
        "residual_negative": resid_minus,
        "asymmetry": order_plus - order_minus,
    }
