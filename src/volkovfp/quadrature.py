"""Gauss-Legendre panel quadrature for the oscillatory s integrals.

``gl_panels`` is the one Gauss-Legendre rule of the package: an
``order``-point rule on each of ``n_panels`` equal panels of [lo, hi]
(one panel gives the plain rule used for the momentum grids).

``checked_panels`` integrates f(s) e^{i v s} over [lo, hi].  It starts
from panels WAVELENGTHS_PER_PANEL wavelengths of the fastest oscillation
wide, rate + max|v|, where ``rate`` bounds how fast the phase of f turns
(``phase_rate`` gives it for the projector phase factor).  It then checks
the rule a posteriori: the integrals at the checked v values are
recomputed with the panels halved, and the panel-by-panel differences,
summed in modulus and taken relative to sum |w f| (an upper bound on
every |integral|), are the error estimate.  While that estimate exceeds
TOLERANCE the panels are halved, at most MAX_HALVINGS times; after that
the rule raises ``UndersampledGridError`` rather than return an
unchecked integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import phase_integrand

__all__ = [
    "ORDER",
    "WAVELENGTHS_PER_PANEL",
    "TOLERANCE",
    "MAX_HALVINGS",
    "UndersampledGridError",
    "PanelRule",
    "gl_panels",
    "phase_rate",
    "checked_panels",
]

ORDER = 32
# 32 points over 4 wavelengths resolve e^{i v s} far below rounding; the
# halving check, not this constant, is what guarantees the result.
WAVELENGTHS_PER_PANEL = 4.0
TOLERANCE = 1e-12
MAX_HALVINGS = 6
_RATE_PROBE_POINTS = 128


class UndersampledGridError(ValueError):
    """Raised when a sampling grid or quadrature rule cannot resolve the requested quantity."""


@dataclass(frozen=True)
class PanelRule:
    """Accepted panel rule: nodes, weights, integrand values there, error estimate."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    error_estimate: float


def gl_panels(lo: float, hi: float, order: int, n_panels: int = 1):
    """Nodes and weights of an order-point Gauss-Legendre rule on n_panels equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    s = (mid[:, None] + half[:, None] * nodes[None, :]).reshape(-1)
    w = (half[:, None] * weights[None, :]).reshape(-1)
    return s, w


def phase_rate(mode, pot, lo: float, hi: float) -> float:
    """Fastest rate q_max / 4|u| of the phase factor e^{-i Phi(0,s)/4u} on [lo, hi].

    q(s) = (k2 + a2(s))^2 + (k3 + a3(s))^2 + m^2 is probed at 128 evenly
    spaced points; a profile varying between them is left to the halving
    check of ``checked_panels``.
    """
    probe = np.linspace(lo, hi, _RATE_PROBE_POINTS)
    q_max = float(np.max(phase_integrand(pot, mode.query, probe)))
    return q_max / (4.0 * abs(mode.u))


def _panel_integrals(s, w, values, v_check, n_panels) -> np.ndarray:
    """(v, panel, column) integrals of f e^{i v s} over each of n_panels panels."""
    f = values.reshape(s.size, -1)
    terms = np.exp(1j * np.outer(v_check, s))[:, :, None] * (w[:, None] * f)
    return terms.reshape(v_check.size, n_panels, -1, f.shape[1]).sum(axis=2)


def _halving_estimate(s, w, values, s_fine, w_fine, fine, v_check, n_panels) -> float:
    """Sum over panels of |I_halved - I|, relative to sum |w f|, at the worst v and column.

    Summing the panel differences in modulus keeps an error that cancels
    between panels at the checked v, but not at other v, from hiding.
    """
    bound = float(np.max(np.abs(w) @ np.abs(values.reshape(s.size, -1))))
    if bound == 0.0:
        return 0.0
    diff = (_panel_integrals(s_fine, w_fine, fine, v_check, n_panels)
            - _panel_integrals(s, w, values, v_check, n_panels))
    return float(np.max(np.sum(np.abs(diff), axis=1))) / bound


def checked_panels(lo: float, hi: float, rate: float, integrand, v_check=(0.0,)) -> PanelRule:
    """Checked panel rule for int_lo^hi f(s) e^{i v s} ds, v in v_check.

    integrand(s) returns f at the nodes s as an array whose first axis
    runs over s (further axes are independent integrands, all checked).
    The returned rule integrates with the unhalved panels; its
    error_estimate is the halving difference that accepted them, an
    estimate of their error relative to sum |w f|.
    """
    v_check = np.atleast_1d(np.asarray(v_check, dtype=float))
    fastest = rate + float(np.max(np.abs(v_check)))
    if not (lo < hi and np.isfinite(hi - lo) and np.isfinite(fastest)):
        raise ValueError("need a finite interval lo < hi and a finite oscillation rate")
    n_panels = max(1, int(np.ceil((hi - lo) * fastest / (2.0 * np.pi * WAVELENGTHS_PER_PANEL))))
    s, w = gl_panels(lo, hi, ORDER, n_panels)
    values = np.asarray(integrand(s))
    for _ in range(MAX_HALVINGS + 1):
        s_fine, w_fine = gl_panels(lo, hi, ORDER, 2 * n_panels)
        fine = np.asarray(integrand(s_fine))
        estimate = _halving_estimate(s, w, values, s_fine, w_fine, fine, v_check, n_panels)
        if estimate <= TOLERANCE:
            return PanelRule(s, w, values, estimate)
        n_panels *= 2
        s, w, values = s_fine, w_fine, fine
    raise UndersampledGridError(
        f"panel rule on [{lo:.6g}, {hi:.6g}] has halving estimate {estimate:.3g} "
        f"> {TOLERANCE:g} after {MAX_HALVINGS} halvings"
    )
