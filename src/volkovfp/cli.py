"""Batch scenario runner: reproducible experiments with CSV/JSON artifacts.

Usage:  volkov-fp <scenario> --config <path> [--out <dir>]

Scenarios: dirac-residual, null-product-invariance, mass-pairing,
mass-oscillation, decay-scan, fp-kernel-export, sidebands,
wavefront-probe.

Every run reads a single versioned JSON config, validates it against the
scenario's key table in CONFIG_TABLES with volkovfp.schema (unknown keys,
missing keys and values of the wrong kind are config errors), writes CSV
artifacts (each carrying a comment line with the config hash) plus a
machine-readable summary.json with one pass/fail entry per assertion,
and exits 0 on pass, 1 on assertion failure, 2 on config errors and 3
on numerical-domain errors.

Each scenario runner is a function of its validated config alone: it
returns its checks and its tables and writes nothing.  `run_scenario`
calls it, maps every library error to a config or a domain error, and
only then writes the tables and summary.json, so a run that exits 2 or 3
leaves no file.  This is the only module of the package that writes
files, and every CSV goes through `_write_csv`.

A table is column-wise: a header and equal-length 1-D arrays or lists.
A column's dtype sets its cells' format: float %.17g, integer %d, text
%s.  `volkovfp.csvformat` formats blocks of about 4096 cells with numpy,
byte for byte as the per-cell % operator does: an integer column within
[-2^53, 2^53] is written as its doubles, whose %.17g is the %d, and a
cell it cannot prove (non-finite, |x| outside [1e-280, 1e280], within
1e-6 of a tie, an integer beyond 2^53, or text) is formatted by Python's
% itself, its one fallback.  A cell of more than 47 bytes is refused.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .clifford import spin_adjoint
from .csvformat import csv_lines
from .modes import (
    MassFamily,
    ModeAmplitude,
    ModeParams,
    WavePacket,
    _mode_and_dirac,
    mass_pairing_identity,
    null_decay_scan,
    null_scalar_product,
    phase_factor,
    project_pi_minus,
    smooth_bump,
)
from .potential import (
    HarmonicPotential,
    PotentialDomainError,
    potential_from_descriptor,
)
from .projector import (
    causal_fundamental_momentum,
    fp_kernel_momentum,
    fp_scalar_a,
    mass_oscillation_check,
    signature_sign,
)
from .quadrature import gl_panels
from .schema import Key, Table, kind, literal, numbers, number, validate
from .spectral import (
    GaussianWindow,
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
)

SCHEMA_VERSION = 1
EXIT_PASS = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema: one key table per scenario, read by volkovfp.schema


_integer = kind(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_bool = kind(lambda v: isinstance(v, bool), "true or false")


def _grid(value, name: str) -> tuple[float, float, int]:
    """[lo, hi, n]: finite ends and an integer count n that fits an index."""
    grid = numbers(value, name)
    if len(grid) != 3 or not grid[2].is_integer() or abs(grid[2]) > sys.maxsize:
        raise ValueError(f"{name} must be [lo, hi, n] with an integer n of index size")
    return grid[0], grid[1], int(grid[2])


# The most points a config may ask of one grid, as checked_panels caps a
# panel rule's nodes: a larger grid is a config error, not a MemoryError.
_MAX_GRID_POINTS = 2 ** 20


def _budget(size, what: str):
    """Rule that size(config), the size `what` names, is at most _MAX_GRID_POINTS."""
    return (lambda c: size(c) <= _MAX_GRID_POINTS, f"{what} must be at most {_MAX_GRID_POINTS}")


_FINITE = Key(number)
_POSITIVE = Key(number, lambda x: x > 0, "positive")
_COUNT = Key(_integer, lambda n: n >= 1, "at least 1")
_NATURAL = Key(_integer, lambda n: n >= 0, "a nonnegative integer")
_NUMBERS = Key(numbers, len, "nonempty")
_POSITIVE_INTERVAL = Key(numbers, lambda v: len(v) == 2 and 0 < v[0] < v[1],
                         "[lo, hi] with 0 < lo < hi")
_GL_GRID = Key(_grid, lambda g: g[0] < g[1] and g[2] >= 1, "[lo, hi, n] with lo < hi, n >= 1")
_POTENTIAL = Key(potential_from_descriptor)
_WINDOW = Key(window_from_descriptor)
_MODE = dict.fromkeys(("k2", "k3", "u", "m"), _FINITE)
_KERNEL_AXES = ("u_values", "k2_values", "k3_values", "s_values", "s_tilde_values")
_DRAWN = {"seed": _NATURAL, "potential": _POTENTIAL}

CONFIG_TABLES = {
    "dirac-residual": Table({**_DRAWN, "n_modes": _COUNT, "tolerance": _FINITE},
                            rules=(_budget(lambda c: c["n_modes"], "n_modes, the number of modes"),)),
    "null-product-invariance": Table({
        **_DRAWN,
        **dict.fromkeys(("n_packets", "nodes_per_packet"), _COUNT),
        "s_values": _NUMBERS,
        "tolerance": _FINITE,
    }, rules=(_budget(lambda c: (len(c["s_values"]) + 1) * c["n_packets"] * c["nodes_per_packet"],
                      "(s_values + 1) x n_packets x nodes_per_packet, the number of "
                      "(surface, packet node) pairs"),)),
    "mass-pairing": Table({**_DRAWN, "n_draws": _COUNT, "tolerance": _FINITE},
                          rules=(_budget(lambda c: c["n_draws"], "n_draws, the number of pairs"),)),
    "mass-oscillation": Table({
        **_DRAWN,
        "mass_interval": _POSITIVE_INTERVAL,
        "n_masses": Key(_integer, lambda n: n >= 2, "at least 2"),
        "u_grid": Key(_grid, lambda g: g[0] < g[1] <= 0 and g[2] >= 1,
                      "[lo, hi, n] with lo < hi <= 0, n >= 1"),
        **dict.fromkeys(("k2_grid", "k3_grid"), _GL_GRID),
        "epsilons": Key(numbers, lambda e: len(e) > 0 and min(e) > 0 and len(set(e)) == len(e),
                        "distinct positive numbers"),
        "tolerance": _FINITE,
        "disjoint_null_check": Key(_bool, default=False),
        "null_tolerance": _FINITE._replace(default=None),
        **dict.fromkeys(("disjoint_support_low", "disjoint_support_high"),
                        _POSITIVE_INTERVAL._replace(default=None)),
    }, rules=((lambda c: not c["disjoint_null_check"] or None not in (
        c["null_tolerance"], c["disjoint_support_low"], c["disjoint_support_high"]),
        "disjoint_null_check needs null_tolerance and both disjoint supports"),
        _budget(lambda c: c["n_masses"] * c["u_grid"][2] * c["k2_grid"][2] * c["k3_grid"][2],
                "n_masses x u_grid x k2_grid x k3_grid, the mass family's size"),
        _budget(lambda c: c["u_grid"][2] * len(c["epsilons"]) * c["n_masses"] ** 2,
                "u_grid x epsilons x n_masses^2, the size of the (u, epsilon, m, m') table"))),
    "decay-scan": Table({
        **_DRAWN,
        "u_grid": Key(_grid, lambda g: 2 <= g[2] <= _MAX_GRID_POINTS
                      and not np.any(np.linspace(*g) == 0),
                      f"[lo, hi, n] with 2 <= n <= {_MAX_GRID_POINTS} whose points avoid u = 0"),
        "weight": Key(partial(validate, Table({"center": _FINITE, "sigma": _POSITIVE}))),
        **dict.fromkeys(("k2", "k3", "m", "order_min"), _FINITE),
        "l_range": _POSITIVE_INTERVAL,
        "n_l": Key(_integer, lambda n: n >= 8, "at least 8"),
        "s_values": _NUMBERS,
    }, rules=(_budget(lambda c: 2 * c["n_l"] * c["u_grid"][2],
                      "2 n_l x u_grid, the size of the (l, u) kernel"),
              _budget(lambda c: len(c["s_values"]) * c["u_grid"][2],
                      "s_values x u_grid, the size of the (s, u) packet table"))),
    "fp-kernel-export": Table({
        "seed": _NATURAL._replace(default=None),  # unused; the shipped config sets it
        "potential": _POTENTIAL,
        "u_values": Key(numbers, lambda v: len(v) > 0 and max(v) < 0, "negative numbers"),
        **dict.fromkeys(_KERNEL_AXES[1:], _NUMBERS),
        **dict.fromkeys(("m", "tolerance"), _FINITE),
    }, rules=(_budget(lambda c: math.prod(len(c[key]) for key in _KERNEL_AXES),
                      " x ".join(_KERNEL_AXES) + ", the number of kernels"),)),
    "sidebands": Table({
        **dict.fromkeys(("amplitude", "frequency", "amplitude_tolerance", "sum_sq_tolerance"),
                        _FINITE),
        **_MODE,
        **dict.fromkeys(("n_max", "n_compare"), _NATURAL),
        **dict.fromkeys(("periods", "samples_per_period"), _COUNT),
    }, rules=((lambda c: c["n_compare"] <= c["n_max"], "need n_compare <= n_max"),
              (lambda c: c["periods"] * c["samples_per_period"] >= 2,
               "need periods * samples_per_period >= 2 samples"),
              _budget(lambda c: c["periods"] * c["samples_per_period"],
                      "periods x samples_per_period, the s grid's size"),
              _budget(lambda c: (2 * c["n_max"] + 1) * (2 * c["n_max"] + 33),
                      "(2 n_max + 1) x (2 n_max + 33), the (line, z2 order) products "
                      "of the Bessel convolution"))),
    "wavefront-probe": Table({
        "seed": _NATURAL._replace(default=None),  # unused; the shipped config sets it
        "potential": _POTENTIAL,
        **_MODE,
        "window": _WINDOW,
        "v_fit": Key(_grid, lambda g: 0 < g[0] < g[1] and 8 <= g[2] <= _MAX_GRID_POINTS,
                     f"[lo, hi, n] with 0 < lo < hi, 8 <= n <= {_MAX_GRID_POINTS}"),
        "order_min": _FINITE,
        "plancherel": Key(partial(validate, Table(
            {"v_max": _POSITIVE, "dv": _POSITIVE, "tolerance": _FINITE},
            rules=((lambda p: p["dv"] < p["v_max"], "need dv < v_max"),
                   _budget(lambda p: 2.0 * p["v_max"] / p["dv"] + 1.0,
                           "2 v_max / dv + 1, the dense v grid's size"))))),
        # a field left out takes the probe's own value
        "asymmetry_report": Key(partial(validate, Table({
            **dict.fromkeys(_MODE, _FINITE._replace(default=None)),
            "potential": _POTENTIAL._replace(default=None),
            "window": _WINDOW._replace(default=None),
        })), default=None),
    }),
}


def validate_config(scenario: str, raw) -> Mapping:
    """The read-only config of one scenario run: its key table plus the
    keys every config has, schema_version and an optional scenario name."""
    keys, rules = CONFIG_TABLES[scenario]
    table = Table({"schema_version": literal(SCHEMA_VERSION),
                   "scenario": literal(scenario, scenario), **keys}, rules)
    try:
        return validate(table, raw, "config")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# artifact plumbing


def _load_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_csv(path: Path, header: list[str], columns, comment: str) -> None:
    """The artifact format: a `# comment` line, the header, one line per row.

    columns are equal-length 1-D arrays or lists, one per header field,
    formatted by their dtype: floats as %.17g (which round-trips a double),
    integers as %d and text as %s (see volkovfp.csvformat).
    """
    with open(path, "wb") as fh:
        fh.write(f"# {comment}\n{','.join(header)}\n".encode())
        fh.writelines(csv_lines(columns))


@dataclass
class Check:
    """One named assertion; a non-finite measured value always fails."""

    name: str
    measured: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        self.passed = bool(self.passed) and bool(np.isfinite(self.measured))


class ScenarioResult(NamedTuple):
    """What a runner returns: its checks, the tables run_scenario writes
    (file name -> (header, columns), in artifact order) and any extra
    summary.json entries."""

    checks: list[Check]
    tables: Mapping[str, tuple[list[str], list]]
    extra: Mapping = MappingProxyType({})


def _leq(name: str, measured: float, tol: float) -> Check:
    return Check(name, float(measured), float(tol), float(measured) <= float(tol))


def _geq(name: str, measured: float, bound: float) -> Check:
    return Check(name, float(measured), float(bound), float(measured) >= float(bound))


def _worst(values) -> float:
    """Largest value, 0 for none; NaN if any value is NaN (builtin max drops it)."""
    return float(np.max(np.asarray(list(values), dtype=float), initial=0.0))


def _json_safe(value):
    """Copy of a summary with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _unit_pi_minus(raw) -> np.ndarray:
    """Each row of `raw` projected onto the range of Pi_minus and normalised."""
    proj = project_pi_minus(raw)
    norms = np.linalg.norm(proj, axis=1, keepdims=True)
    return proj / np.maximum(norms, 1e-300)


def _random_pi_minus(rng, n: int = 1) -> np.ndarray:
    return _unit_pi_minus(rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4)))


# ---------------------------------------------------------------------------
# scenarios: each runner takes the validated config and returns a
# ScenarioResult; it writes nothing


# Drawn modes and packet nodes have log |u| uniform on [log 0.1, log 2].
# The draw loops read the stream draw by draw in a fixed order.  Uniform
# and normal numbers are read through random and standard_normal and
# scaled as uniform and normal scale them, which gives the same values;
# adjacent numbers share a Generator call whatever their ranges, which
# reads the same bits as one call per number.  The sign of u is the top
# bit of one 32-bit draw, as choice([-1.0, 1.0]) and integers(2) read it:
# a float32 random() of at least 0.5, at about half the cost of integers(2).
_LOG_U_RANGE = (np.log(0.1), np.log(2.0))


def _uniform(unit, lo, hi):
    """rng.uniform(lo, hi) of the numbers `unit` that rng.random drew."""
    return lo + (hi - lo) * unit


def _normal(std, loc=0.0, scale=1.0):
    """rng.normal(loc, scale) of the numbers `std` that rng.standard_normal drew."""
    return loc + scale * std


def _signed_u(sign_draw, log_u) -> np.ndarray:
    """u = -exp(log_u), or +exp(log_u) where the float32 sign draw is >= 0.5."""
    return np.where(sign_draw >= 0.5, 1.0, -1.0) * np.exp(log_u)


def _draw_modes(rng, n: int):
    """n modes drawn one after another, returned as columns:
    u, k2, k3, m (n,), points (n, 4) and chi0 (n, 4).

    Each mode reads the sign of u, log |u|, (k2, k3), m, the point
    (s, l, y, z) and a raw spinor's 4 real then 4 imaginary parts.
    """
    sign_draw = np.empty(n, dtype=np.float32)
    unit = np.empty((n, 6))  # log |u|, m, the point
    std = np.empty((n, 10))  # k2, k3, the raw spinor
    for i in range(n):
        sign_draw[i] = rng.random(dtype=np.float32)
        unit[i, 0] = rng.random()
        rng.standard_normal(out=std[i, :2])
        rng.random(out=unit[i, 1:])
        rng.standard_normal(out=std[i, 2:])
    k2, k3 = np.ascontiguousarray(_normal(std[:, :2], 0.0, 0.7).T)
    raw = _normal(std[:, 2:])
    return [_signed_u(sign_draw, _uniform(unit[:, 0], *_LOG_U_RANGE)), k2, k3,
            _uniform(unit[:, 1], 0.5, 1.5), _uniform(unit[:, 2:], -3.0, 3.0),
            _unit_pi_minus(raw[:, :4] + 1j * raw[:, 4:])]


def _draw_pairs(rng, n: int):
    """n mode pairs drawn one after another, returned as columns:
    k2, k3, u, m, m_prime, s (n,) and the two amplitudes chi_a, chi_b (n, 4).

    Each pair reads (k2, k3), the sign of u, log |u|, (m, m_prime), s and
    the raw spinors' 16 parts (real then imaginary of a, then of b).
    """
    sign_draw = np.empty(n, dtype=np.float32)
    unit = np.empty((n, 4))  # log |u|, m, m_prime, s
    std = np.empty((n, 18))  # k2, k3, the raw spinors
    for i in range(n):
        rng.standard_normal(out=std[i, :2])
        sign_draw[i] = rng.random(dtype=np.float32)
        rng.random(out=unit[i])
        rng.standard_normal(out=std[i, 2:])
    k2, k3 = np.ascontiguousarray(_normal(std[:, :2], 0.0, 0.7).T)
    m, m_prime = np.ascontiguousarray(_uniform(unit[:, 1:3], 0.6, 1.4).T)
    re_a, im_a, re_b, im_b = _normal(std[:, 2:]).reshape(n, 4, 4).transpose(1, 0, 2)
    return [k2, k3, _signed_u(sign_draw, _uniform(unit[:, 0], *_LOG_U_RANGE)), m, m_prime,
            _uniform(unit[:, 3], -5.0, 5.0),
            _unit_pi_minus(re_a + 1j * im_a), _unit_pi_minus(re_b + 1j * im_b)]


def _draw_packets(rng, n_packets: int, n_nodes: int):
    """n_packets packet pairs (psi, phi) drawn one after another, each pair
    on one node grid, returned as columns: u, k2, k3, quad_weights (P, N),
    then chi0 (P, N, 4) and weights (P, N) of psi, then of phi.

    Each pair reads N values of log |u|, 12N normals (k2, k3, then psi's
    raw spinors' 4N real and 4N imaginary parts and its weights' N real
    and N imaginary parts), N quadrature weights and 10N normals (phi's
    spinors and weights, laid out as psi's).
    """
    p, n = n_packets, n_nodes
    unit = np.empty((2, p, n))  # log |u|, quadrature weights
    std = np.empty((p, 22 * n))
    for i in range(p):
        rng.random(out=unit[0, i])
        rng.standard_normal(out=std[i, :12 * n])
        rng.random(out=unit[1, i])
        rng.standard_normal(out=std[i, 12 * n:])
    u = -np.exp(_uniform(unit[0], *_LOG_U_RANGE))
    u += np.linspace(0.0, 1e-9, n)  # distinct nodes
    k = _normal(std[:, :2 * n], 0.0, 0.5)

    def amplitudes(raw):
        """chi0 (P, N, 4) and weights (P, N) from (P, 10N) standard normals."""
        raw = _normal(raw)
        spinors = raw[:, :4 * n].reshape(-1, 4) + 1j * raw[:, 4 * n:8 * n].reshape(-1, 4)
        return _unit_pi_minus(spinors).reshape(p, n, 4), raw[:, 8 * n:9 * n] + 1j * raw[:, 9 * n:]

    return [u, k[:, :n], k[:, n:], _uniform(unit[1], 0.1, 1.0),
            *amplitudes(std[:, 2 * n:12 * n]), *amplitudes(std[:, 12 * n:])]


def run_dirac_residual(cfg: Mapping) -> ScenarioResult:
    pot = cfg["potential"]
    rng = np.random.default_rng(cfg["seed"])
    u, k2, k3, m, points, chi0 = _draw_modes(rng, cfg["n_modes"])
    mode = ModeParams(k2=k2, k3=k3, u=u, m=m)
    amp = ModeAmplitude(chi0)
    psi, dirac_psi = _mode_and_dirac(amp, mode, pot, points.T)
    resid = np.linalg.norm(dirac_psi, axis=-1)
    norm = np.linalg.norm(psi, axis=-1)
    relative = resid / norm
    columns = [np.arange(u.size), u, k2, k3, m, *points.T, resid, norm, relative]
    header = ["idx", "u", "k2", "k3", "m", "s", "l", "y", "z", "residual", "norm", "relative"]
    return ScenarioResult([_leq("max_relative_dirac_residual", _worst(relative), cfg["tolerance"])],
                          {"dirac_residual.csv": (header, columns)})


def run_null_product_invariance(cfg: Mapping) -> ScenarioResult:
    s_values = cfg["s_values"]
    u, k2, k3, qw, chi_psi, w_psi, chi_phi, w_phi = _draw_packets(
        np.random.default_rng(cfg["seed"]), cfg["n_packets"], cfg["nodes_per_packet"])
    psi = WavePacket(1.0, u, k2, k3, chi_psi, w_psi, qw)
    phi = WavePacket(1.0, u, k2, k3, chi_phi, w_phi, qw)
    # one (surface, packet) table; the s = 0 row is each packet's reference
    base, *values = null_scalar_product(psi, phi, cfg["potential"], np.array([0.0, *s_values]))
    values = np.array(values)
    # each scale is abs of one value, which can differ from np.abs in the last bit
    dev = np.abs(values - base) / [max(abs(b), 1e-300) for b in base]
    # packet-major rows: packet p's row for each surface in turn
    columns = [np.repeat(np.arange(base.size), len(s_values)), np.tile(s_values, base.size),
               values.real.T.ravel(), values.imag.T.ravel(), dev.T.ravel()]
    header = ["packet", "s", "re_value", "im_value", "relative_deviation"]
    return ScenarioResult([_leq("max_s_dependence", _worst(dev.ravel()), cfg["tolerance"])],
                          {"null_product.csv": (header, columns)})


def run_mass_pairing(cfg: Mapping) -> ScenarioResult:
    k2, k3, u, m, mp, s, chi_a, chi_b = _draw_pairs(np.random.default_rng(cfg["seed"]),
                                                    cfg["n_draws"])
    lhs, rhs = mass_pairing_identity(
        ModeAmplitude(chi_a), ModeParams(k2, k3, u, m),
        ModeAmplitude(chi_b), ModeParams(k2, k3, u, mp), cfg["potential"], s,
    )
    gap = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    columns = [np.arange(k2.size), k2, k3, u, m, mp, s,
               lhs.real, lhs.imag, rhs.real, rhs.imag, gap]
    header = ["draw", "k2", "k3", "u", "m", "m_prime", "s",
              "re_lhs", "im_lhs", "re_rhs", "im_rhs", "relative_gap"]
    return ScenarioResult([_leq("max_relative_gap", _worst(gap), cfg["tolerance"])],
                          {"mass_pairing.csv": (header, columns)})


def _grid_family(cfg: Mapping) -> MassFamily:
    """Family on the config's Gauss-Legendre (u, k2, k3) grid: one seeded
    Pi_minus amplitude per node shared by every mass, unit weights, and eta
    a bump over the whole mass interval."""
    interval = cfg["mass_interval"]
    n_masses = cfg["n_masses"]
    masses = np.linspace(interval[0], interval[1], n_masses)
    mass_w = np.full(n_masses, (interval[1] - interval[0]) / (n_masses - 1))
    u_n, u_w = gl_panels(*cfg["u_grid"])
    k2_n, k2_w = gl_panels(*cfg["k2_grid"])
    k3_n, k3_w = gl_panels(*cfg["k3_grid"])
    uu, kk2, kk3 = np.meshgrid(u_n, k2_n, k3_n, indexing="ij")
    qw = np.einsum("i,j,k->ijk", u_w, k2_w, k3_w).ravel()
    u, k2, k3 = uu.ravel(), kk2.ravel(), kk3.ravel()
    chi0 = _random_pi_minus(np.random.default_rng(cfg["seed"]), u.size)
    return MassFamily(interval=interval, masses=masses, eta=smooth_bump(masses, *interval),
                      mass_quad_weights=mass_w, u=u, k2=k2, k3=k3, quad_weights=qw,
                      chi0=np.repeat(chi0[None], n_masses, axis=0),
                      weights=np.ones((n_masses, u.size), dtype=complex))


def run_mass_oscillation(cfg: Mapping) -> ScenarioResult:
    pot = cfg["potential"]
    epsilons = cfg["epsilons"]
    fam = _grid_family(cfg)
    result = mass_oscillation_check(fam, fam, pot, epsilons)
    checks = [_leq("relative_gap", result.relative_gap, cfg["tolerance"])]
    cases, eps, values = [], [], []

    def add(case, res):
        """Rows of one check: each epsilon, the extrapolation, the rhs."""
        cases.extend([case] * len(res.epsilons) + [f"{case}_extrapolated", f"{case}_rhs"])
        eps.extend([*res.epsilons, 0.0, 0.0])
        values.extend([*res.lhs_by_epsilon, res.lhs, res.rhs])

    add("diagonal", result)

    if cfg["disjoint_null_check"]:
        fam_lo, fam_hi = (replace(fam, eta=smooth_bump(fam.masses, *cfg[support]))
                          for support in ("disjoint_support_low", "disjoint_support_high"))
        null = mass_oscillation_check(fam_lo, fam_hi, pot, epsilons)
        scale = max(abs(result.lhs), 1e-300)
        null_tol = cfg["null_tolerance"]
        checks.append(_leq("null_lhs_over_diagonal", abs(null.lhs) / scale, null_tol))
        checks.append(_leq("null_rhs_over_diagonal", abs(null.rhs) / scale, null_tol))
        add("disjoint", null)

    values = np.array(values)
    header = ["case", "epsilon", "re_value", "im_value"]
    return ScenarioResult(checks, {"mass_oscillation.csv": (
        header, [cases, eps, values.real, values.imag])})


def run_decay_scan(cfg: Mapping) -> ScenarioResult:
    pot = cfg["potential"]
    u = np.linspace(*cfg["u_grid"])
    n = u.size
    center, sigma = cfg["weight"]["center"], cfg["weight"]["sigma"]
    k2, k3, m = cfg["k2"], cfg["k3"], cfg["m"]
    s_values = cfg["s_values"]
    rng = np.random.default_rng(cfg["seed"])

    chi0 = np.tile(_random_pi_minus(rng)[0], (n, 1))
    # a square past the float range is a weight of exactly 0
    with np.errstate(over="ignore"):
        weights = np.exp(-np.square((u - center) / sigma) / 2.0).astype(complex)
    if not weights.any():
        raise ValueError("weight vanishes at every u node")
    du = abs(u[1] - u[0])
    packet = WavePacket(m=m, u=u, k2=np.full(n, k2), k3=np.full(n, k3),
                        chi0=chi0, weights=weights, quad_weights=np.full(n, du))
    single = WavePacket(m=m, u=np.array([u[n // 2]]), k2=np.array([k2]),
                        k3=np.array([k3]), chi0=chi0[:1],
                        weights=np.array([1.0 + 0j]), quad_weights=np.array([1.0]))
    l_grid = np.geomspace(*cfg["l_range"], cfg["n_l"])
    l_both = np.concatenate([l_grid, -l_grid])
    report = null_decay_scan(packet, pot, s_values, l_both)
    single_report = null_decay_scan(single, pot, s_values[:1], l_both)

    n_s, n_l = report.magnitudes.shape
    columns = [np.repeat(report.s_values, n_l), np.tile(report.l_values, n_s),
               report.magnitudes.ravel()]
    checks = [
        _geq("min_fitted_decay_order", report.min_order, cfg["order_min"]),
        Check("single_mode_flagged_non_decaying",
              single_report.min_order, report.threshold, single_report.non_decaying),
    ]
    return ScenarioResult(checks, {"decay_scan.csv": (["s", "l", "pi_minus_norm"], columns)})


_KERNEL_HEADER = ["u", "k2", "k3", "s", "s_tilde"] + [
    f"{part}_{i}{j}" for i in range(4) for j in range(4) for part in ("re", "im")]


def _kernel_columns(modes: ModeParams, s, s_tilde, kernel: np.ndarray) -> list[np.ndarray]:
    """The columns u, k2, k3, s, s~ and re/im of each entry, one row per
    kernel value.

    The mode fields, s and s~ broadcast to the leading axes of kernel,
    (..., 4, 4), and the rows follow those axes in C order (mode-major).
    """
    head = np.broadcast_arrays(modes.u, modes.k2, modes.k3, s, s_tilde, kernel[..., 0, 0].real)
    entries = np.stack([kernel.real, kernel.imag], axis=-1).reshape(-1, 32)
    return [np.ravel(h) for h in head[:5]] + list(entries.T)


def run_fp_kernel_export(cfg: Mapping) -> ScenarioResult:
    pot = cfg["potential"]
    # one mode per (u, k2, k3) on axis 0, s on axis 1, s~ on axis 2
    u, k2, k3 = (x.ravel()[:, None, None] for x in
                 np.meshgrid(cfg["u_values"], cfg["k2_values"], cfg["k3_values"],
                             indexing="ij"))
    modes = ModeParams(k2, k3, u, cfg["m"])
    s = np.array(cfg["s_values"])[:, None]
    st = np.array(cfg["s_tilde_values"])

    scale = 1.0 / (2.0 * np.pi) ** 4
    coincidence_gaps = np.abs(fp_scalar_a(modes, pot, s, s) - scale) / scale
    kernel = fp_kernel_momentum(modes, pot, s, st)
    mirrored = fp_kernel_momentum(modes, pot, st, s)
    causal = causal_fundamental_momentum(modes, pot, s, st)
    sign = signature_sign(modes.u)[..., None, None]
    norm = np.maximum(np.max(np.abs(kernel), axis=(-2, -1)), 1e-300)
    sym_gaps = np.max(np.abs(spin_adjoint(kernel) - mirrored), axis=(-2, -1)) / norm
    consistency_gaps = np.max(np.abs(kernel - (-sign) * causal), axis=(-2, -1)) / norm
    tol = cfg["tolerance"]
    checks = [
        _leq("spin_adjoint_symmetry", _worst(sym_gaps), tol),
        _leq("projector_vs_causal_consistency", _worst(consistency_gaps), tol),
        _leq("coincidence_scalar", _worst(coincidence_gaps), tol),
    ]
    return ScenarioResult(checks, {"fp_kernel.csv": (_KERNEL_HEADER,
                                                     _kernel_columns(modes, s, st, kernel))})


def run_sidebands(cfg: Mapping) -> ScenarioResult:
    lam, omega = cfg["amplitude"], cfg["frequency"]
    n_max = cfg["n_max"]
    per = cfg["samples_per_period"]
    mode = ModeParams(cfg["k2"], cfg["k3"], cfg["u"], cfg["m"])
    pot = HarmonicPotential(lam, omega)
    v0 = harmonic_carrier(mode, lam, omega)
    lines_an = harmonic_sidebands_analytic(mode, lam, omega, n_max)
    total_sq = sum(abs(l.amplitude) ** 2 for l in lines_an)

    ds = (2.0 * np.pi / abs(omega)) / per
    n_samp = cfg["periods"] * per
    s_grid = ds * np.arange(n_samp)
    values = phase_factor(mode, pot, 0.0, s_grid)
    span = s_grid[-1] - s_grid[0]
    window = GaussianWindow(center=0.5 * span, width=span / 14.0)
    lines_fft = spectrum_fft(s_grid, values, window, omega, v0, cfg["n_compare"])

    # A line whose analytic amplitude is exactly 0 (J_n(0) = 0, e.g. the odd
    # lines at k2 = k3 = 0) has no scale for a relative gap and no position
    # to compare: its gap is absolute and it has no position offset.
    an_by_n = {l.n: l for l in lines_an}
    bin_width = 2.0 * np.pi / span
    amp_gaps = [abs(lf.amplitude - an_by_n[lf.n].amplitude)
                / (abs(an_by_n[lf.n].amplitude) or 1.0) for lf in lines_fft]
    pos_offsets = [abs(lf.v - an_by_n[lf.n].v) / bin_width for lf in lines_fft
                   if an_by_n[lf.n].amplitude != 0]

    # amplitude off: spectrum collapses to the single dispersion line
    lines_zero = harmonic_sidebands_analytic(mode, 0.0, omega, n_max)
    zero_carrier = [l for l in lines_zero if l.n == 0][0]
    v_disp = (mode.k2 ** 2 + mode.k3 ** 2 + mode.m ** 2) / (4.0 * mode.u)
    collapse_err = _worst(
        [abs(zero_carrier.amplitude - 1.0), abs(zero_carrier.v - v_disp)]
        + [abs(l.amplitude) for l in lines_zero if l.n != 0]
    )

    tables = {}
    for name, lines in (("sidebands_analytic.csv", lines_an), ("sidebands_fft.csv", lines_fft)):
        amps = [complex(line.amplitude) for line in lines]
        tables[name] = (["n", "v_n", "re_amp", "im_amp", "abs_amp"],
                        [[line.n for line in lines], [line.v for line in lines],
                         [a.real for a in amps], [a.imag for a in amps], [abs(a) for a in amps]])
    checks = [
        _leq("max_amplitude_relative_gap", _worst(amp_gaps), cfg["amplitude_tolerance"]),
        _leq("max_position_offset_bins", _worst(pos_offsets), 1.0),
        _leq("sum_sq_deficit", abs(1.0 - total_sq), cfg["sum_sq_tolerance"]),
        _leq("zero_amplitude_collapse", collapse_err, 1e-12),
    ]
    return ScenarioResult(checks, tables)


def run_wavefront_probe(cfg: Mapping) -> ScenarioResult:
    pot, window = cfg["potential"], cfg["window"]
    mode = ModeParams(cfg["k2"], cfg["k3"], cfg["u"], cfg["m"])
    v_lo, v_hi, n_fit = cfg["v_fit"]
    plancherel = cfg["plancherel"]

    v_fit = np.geomspace(v_lo, v_hi, n_fit)
    v_max, dv = plancherel["v_max"], plancherel["dv"]
    v_dense = np.arange(-v_max, v_max + 0.5 * dv, dv)
    rules = {"fit": transform_rule(mode, pot, window, v_fit),
             "plancherel": transform_rule(mode, pot, window, v_dense)}
    f_fit = rules["fit"].fourier(v_fit)
    f_dense = rules["plancherel"].fourier(v_dense)
    order, resid = decay_order_fit(v_fit, np.abs(f_fit))
    l2 = transform_l2(v_dense, f_dense)
    ref = plancherel_reference(window)
    pl_err = abs(l2 - ref) / ref
    extra = {
        "fit_residual": resid,
        "transform_error_estimate": _worst(r.error_estimate for r in rules.values()),
        "s_nodes": {name: int(r.nodes.size) for name, r in rules.items()},
    }

    asym = cfg["asymmetry_report"]
    if asym is not None:
        asym_mode = ModeParams(*(cfg[key] if asym[key] is None else asym[key]
                                 for key in ("k2", "k3", "u", "m")))
        extra["asymmetry_report"] = tail_decay_orders(
            asym_mode, asym["potential"] or pot, asym["window"] or window, v_lo, v_hi)

    tables = {name: (["v", "re_F", "im_F"], [v, f.real, f.imag])
              for name, v, f in (("wavefront_fit.csv", v_fit, f_fit),
                                 ("wavefront_dense.csv", v_dense, f_dense))}
    checks = [
        _geq("positive_tail_decay_order", order, cfg["order_min"]),
        _leq("plancherel_relative_error", pl_err, plancherel["tolerance"]),
    ]
    return ScenarioResult(checks, tables, extra)


_SCENARIOS = {
    "dirac-residual": (
        run_dirac_residual,
        "(i gamma^j d_j + gamma^2 A2 + gamma^3 A3 - m) psi = 0 for separated "
        "plane-wave modes, via analytic derivatives",
    ),
    "null-product-invariance": (
        run_null_product_invariance,
        "(2 pi)^4 sum_i qw_i <Pi- chi_i(s) | gamma0 Pi- chi_i(s)> is independent "
        "of the null surface s",
    ),
    "mass-pairing": (
        run_mass_pairing,
        "2u <chi^m(s)|chi^m'(s)> = (m+m') e^{i(m^2-m'^2)s/4u} "
        "<chi0^m | gamma0 chi0^m'>",
    ),
    "mass-oscillation": (
        run_mass_oscillation,
        "regulated spacetime pairing of mass families equals the sign(u)-weighted "
        "fixed-s pairing (mass-diagonal limit of the double mass integral)",
    ),
    "decay-scan": (
        run_decay_scan,
        "smooth-weight wavepackets decay rapidly in the null direction l, "
        "uniformly in s; a delta-weight packet does not decay",
    ),
    "fp-kernel-export": (
        run_fp_kernel_export,
        "P = -sign(u) (advanced - retarded)/(2 pi i) for u < 0; "
        "gamma0 P(s,s~)^dag gamma0 = P(s~,s); a(s,s) = (2 pi)^-4",
    ),
    "sidebands": (
        run_sidebands,
        "harmonic-wave kernel spectrum sits on v0 + n Omega with Bessel-product "
        "amplitudes c_n, sum |c_n|^2 = 1; amplitude 0 collapses to "
        "4uv = k2^2 + k3^2 + m^2",
    ),
    "wavefront-probe": (
        run_wavefront_probe,
        "windowed kernel transform decays rapidly for v above m^2/8u while "
        "the Plancherel mass int |F|^2 dv = 2 pi int |f g|^2 ds is conserved",
    ),
}


def run_scenario(scenario: str, cfg: dict, outdir: Path, _ignored=None) -> dict:
    """Validate the raw config `cfg`, run one scenario and write its
    tables and summary.json to outdir.

    A value the library refuses (a ValueError) is a ConfigError naming
    the scenario; an ArithmeticError (an overflow, say) is raised again
    as one naming the scenario and the original error's type;
    PotentialDomainError and UndersampledGridError pass through as they
    are.  Nothing is written unless the runner returns.
    The fourth parameter is ignored; the benchmark harness still passes
    it, and ROADMAP item 6 drops it.
    """
    runner, identity = _SCENARIOS[scenario]
    valid = validate_config(scenario, cfg)
    try:
        result = runner(valid)
    except (PotentialDomainError, UndersampledGridError):
        raise
    except ValueError as exc:
        raise ConfigError(f"{scenario}: {exc}") from exc
    except ArithmeticError as exc:
        raise ArithmeticError(f"{scenario}: {type(exc).__name__}: {exc}") from exc
    chash = _config_hash(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in result.tables.items():
        _write_csv(outdir / name, header, rows, f"config_sha256={chash}")
    summary = {
        "scenario": scenario,
        "identity": identity,
        "config_sha256": chash,
        "checks": [asdict(c) for c in result.checks],
        "passed": all(c.passed for c in result.checks),
        "artifacts": list(result.tables),
        **result.extra,
    }
    summary = _json_safe(summary)
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True, allow_nan=False)
    return summary


def _show(x) -> str:
    return "non-finite" if x is None else f"{x:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="volkov-fp",
        description="Batch scenarios for plane-wave Dirac modes and the "
                    "fermionic-projector kernel.",
    )
    parser.add_argument("scenario", choices=sorted(_SCENARIOS))
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        summary = run_scenario(args.scenario, _load_config(args.config), Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PotentialDomainError, UndersampledGridError, ArithmeticError) as exc:
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    for check in summary["checks"]:
        state = "PASS" if check["passed"] else "FAIL"
        print(f"[{state}] {check['name']}: measured={_show(check['measured'])} "
              f"tolerance={_show(check['tolerance'])}")
    print(f"summary: {'PASS' if summary['passed'] else 'FAIL'} "
          f"({Path(args.out) / 'summary.json'})")
    return EXIT_PASS if summary["passed"] else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
