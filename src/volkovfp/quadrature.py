"""Gauss-Legendre panel quadrature for the oscillatory s integrals.

``gl_panels`` is the one Gauss-Legendre rule of the package: an
``order``-point rule on each of ``n_panels`` equal panels of [lo, hi]
(one panel gives the plain rule used for the momentum grids).  Every
node is s_pq = mid_p + h x_q, with the panel midpoints mid_p, one common
half-width h and the nodes x_q of the reference rule on [-1, 1], which
is computed once per order.

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
unchecked integral.  So does a non-finite rate, and any rule, a halved
one included, of more than _MAX_NODES nodes: it is refused before its
nodes are allocated.

Every Fourier sum over a panel rule, the halving check's and
``PanelRule.fourier``'s, is evaluated in factored form:
e^{i v s_pq} = e^{i v mid_p} e^{i v h x_q}, so the per-panel integrals

    I[v, p] = e^{i v mid_p} sum_q e^{i v h x_q} (w f)[p, q]

cost a (v, order) and a (v, panel) table of exponentials and one matrix
product, for any v grid; the transform is I summed over the panels.  No
(v, s) kernel is built.  The rounding of each node's sum mid_p + h x_q
enters to first order, so the factored sum is taken on the rule's own
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

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
_MAX_NODES = 2 ** 20
_RATE_PROBE_POINTS = 128


class UndersampledGridError(ValueError):
    """Raised when a sampling grid or quadrature rule cannot resolve the requested quantity."""


@dataclass(frozen=True)
class PanelRule:
    """Panel rule on [lo, hi]: n_panels equal panels of the ORDER-point
    Gauss-Legendre rule, its nodes and weights, the integrand values there
    and the error estimate that accepted it."""

    lo: float
    hi: float
    n_panels: int
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    error_estimate: float

    def fourier(self, v) -> np.ndarray:
        """sum_j w_j f(s_j) e^{i v s_j} at every v, factored over the panels,
        of shape v.shape + the shape of one integrand value (values.shape[1:])."""
        v = np.asarray(v, dtype=float)
        sums = _panel_integrals(self, v.reshape(-1)).sum(axis=1)
        return sums.reshape(v.shape + self.values.shape[1:])


@cache
def _gl_reference(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1],
    computed once per order and read-only, since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _panel_geometry(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, float]:
    """Midpoints and the common half-width of n_panels equal panels of [lo, hi]."""
    edges = np.linspace(lo, hi, n_panels + 1)
    return 0.5 * (edges[:-1] + edges[1:]), (hi - lo) / (2 * n_panels)


def gl_panels(lo: float, hi: float, order: int, n_panels: int = 1):
    """Nodes and weights of an order-point Gauss-Legendre rule on n_panels equal panels."""
    nodes, weights = _gl_reference(order)
    mid, half = _panel_geometry(lo, hi, n_panels)
    s = (mid[:, None] + half * nodes).reshape(-1)
    w = np.tile(half * weights, n_panels)
    return s, w


def phase_rate(mode, pot, lo: float, hi: float) -> float:
    """Fastest rate q_max / 4|u| of the phase factor e^{-i Phi(0,s)/4u} on [lo, hi].

    q(s) = (k2 + a2(s))^2 + (k3 + a3(s))^2 + m^2 is probed at 128 evenly
    spaced points; a profile varying between them is left to the halving
    check of ``checked_panels``.
    """
    probe = np.linspace(lo, hi, _RATE_PROBE_POINTS)
    # a q past the float range is an infinite rate, which checked_panels refuses
    with np.errstate(over="ignore"):
        q_max = float(np.max(phase_integrand(pot, mode.k2, mode.k3, mode.m, probe)))
    return q_max / (4.0 * abs(mode.u))


def _panel_integrals(rule: PanelRule, v: np.ndarray) -> np.ndarray:
    """(v, panel, column) integrals of f e^{i v s} over each panel of rule.

    Every node is s_pq = mid_p + h x_q + r_pq, where r_pq is the rounding
    of that sum, recovered exactly by a two-sum.  So on the rule's own
    nodes e^{i v s_pq} = e^{i v mid_p} e^{i v h x_q} (1 + i v r_pq), up to
    (v r)^2 / 2: one (v, order) and one (v, panel) table of exponentials
    and one product (v, order) @ (order, panel x 2 column).
    """
    mid, half = _panel_geometry(rule.lo, rule.hi, rule.n_panels)
    hx = half * _gl_reference(rule.nodes.size // rule.n_panels)[0]
    s = rule.nodes.reshape(rule.n_panels, hx.size)
    hx_rounded = s - mid[:, None]
    r = ((s - hx_rounded) - mid[:, None]) + (hx_rounded - hx)
    wf = (rule.weights[:, None] * rule.values.reshape(s.size, -1)).reshape(*s.shape, -1)
    both = np.concatenate([wf, r[:, :, None] * wf], axis=2).transpose(1, 0, 2)
    sums = (np.exp(1j * np.outer(v, hx)) @ both.reshape(hx.size, -1)).reshape(
        v.size, rule.n_panels, 2, -1)
    per_panel = sums[:, :, 0] + 1j * v[:, None, None] * sums[:, :, 1]
    return per_panel * np.exp(1j * np.outer(v, mid))[:, :, None]


def _halving_estimate(rule: PanelRule, fine: PanelRule, v_check) -> float:
    """Sum over panels of |I_halved - I|, relative to sum |w f|, at the worst v and column.

    I_halved sums the two halves of each panel.  Summing the panel
    differences in modulus keeps an error that cancels between panels at
    the checked v, but not at other v, from hiding.
    """
    bound = float(np.max(np.abs(rule.weights) @ np.abs(rule.values.reshape(rule.weights.size, -1))))
    if bound == 0.0:
        return 0.0
    halved = _panel_integrals(fine, v_check).reshape(v_check.size, rule.n_panels, 2, -1).sum(axis=2)
    diff = halved - _panel_integrals(rule, v_check)
    return float(np.max(np.sum(np.abs(diff), axis=1))) / bound


def _unchecked(lo: float, hi: float, n_panels: int, integrand) -> PanelRule:
    """The rule on n_panels panels, with no error estimate yet (inf)."""
    if n_panels * ORDER > _MAX_NODES:
        raise UndersampledGridError(
            f"panel rule on [{lo:.6g}, {hi:.6g}] needs {n_panels * ORDER:.3g} nodes, "
            f"more than {_MAX_NODES}")
    s, w = gl_panels(lo, hi, ORDER, n_panels)
    return PanelRule(lo, hi, n_panels, s, w, np.asarray(integrand(s)), np.inf)


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
    if not (lo < hi and np.isfinite(hi - lo)):
        raise ValueError("need a finite interval lo < hi")
    panels = (hi - lo) * fastest / (2.0 * np.pi * WAVELENGTHS_PER_PANEL)
    if not np.isfinite(panels):
        raise UndersampledGridError(
            f"panel rule on [{lo:.6g}, {hi:.6g}] at oscillation rate {fastest:.3g}: "
            "the panel count is not finite")
    n_panels = max(1, int(np.ceil(panels)))
    rule = _unchecked(lo, hi, n_panels, integrand)
    for _ in range(MAX_HALVINGS + 1):
        fine = _unchecked(lo, hi, 2 * rule.n_panels, integrand)
        estimate = _halving_estimate(rule, fine, v_check)
        if estimate <= TOLERANCE:
            return replace(rule, error_estimate=estimate)
        rule = fine
    raise UndersampledGridError(
        f"panel rule on [{lo:.6g}, {hi:.6g}] has halving estimate {estimate:.3g} "
        f"> {TOLERANCE:g} after {MAX_HALVINGS} halvings"
    )
