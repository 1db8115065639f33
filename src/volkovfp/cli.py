"""Batch scenario runner: reproducible experiments with CSV/JSON artifacts.

Usage:  volkov-fp <scenario> --config <path> [--out <dir>] [--workers N]

Scenarios: dirac-residual, null-product-invariance, mass-pairing,
mass-oscillation, decay-scan, fp-kernel-export, sidebands,
wavefront-probe.

Every run reads a single versioned JSON config, validates it against the
scenario's key table in CONFIG_TABLES with volkovfp.schema (unknown keys,
missing keys and values of the wrong kind are config errors), writes CSV
artifacts (each carrying a comment line with the config hash) plus a
machine-readable summary.json with one pass/fail entry per assertion,
and exits 0 on pass, 1 on assertion failure, 2 on config errors and 3
on numerical-domain errors.  Random draws are sequential; each
per-mode scenario then evaluates all its modes in one array call, so no
scenario fans out to worker processes.  --workers is still accepted and
validated, starts no process and never changes results.

This is the only module of the package that writes files: the library
returns arrays and records, and every CSV goes through `_write_csv`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .clifford import lightcone_operators, spin_adjoint
from .modes import (
    MassFamily,
    ModeAmplitude,
    ModeParams,
    WavePacket,
    mass_pairing_identity,
    mode_wavefunction,
    dirac_residual,
    null_decay_scan,
    null_scalar_product,
    phase_factor,
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

_PI_MINUS = lightcone_operators()[3]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema: one key table per scenario, read by volkovfp.schema


_integer = kind(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_bool = kind(lambda v: isinstance(v, bool), "true or false")


def _grid(value, name: str) -> tuple[float, float, int]:
    """[lo, hi, n]: finite ends and an integer count n."""
    grid = numbers(value, name)
    if len(grid) != 3 or not grid[2].is_integer():
        raise ValueError(f"{name} must be [lo, hi, n] with an integer n")
    return grid[0], grid[1], int(grid[2])


def _build(what: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), with the library's own domain checks
    reported as config errors."""
    try:
        return factory(*args, **kwargs)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


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
_DRAWN = {"seed": _NATURAL, "potential": _POTENTIAL}

CONFIG_TABLES = {
    "dirac-residual": Table({**_DRAWN, "n_modes": _COUNT, "tolerance": _FINITE}),
    "null-product-invariance": Table({
        **_DRAWN,
        **dict.fromkeys(("n_packets", "nodes_per_packet"), _COUNT),
        "s_values": _NUMBERS,
        "tolerance": _FINITE,
    }),
    "mass-pairing": Table({**_DRAWN, "n_draws": _COUNT, "tolerance": _FINITE}),
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
        "disjoint_null_check needs null_tolerance and both disjoint supports"),)),
    "decay-scan": Table({
        **_DRAWN,
        "u_grid": Key(_grid, lambda g: g[2] >= 2 and not np.any(np.linspace(*g) == 0),
                      "[lo, hi, n] with n >= 2 whose points avoid u = 0"),
        "weight": Key(partial(validate, Table({"center": _FINITE, "sigma": _POSITIVE}))),
        **dict.fromkeys(("k2", "k3", "m", "order_min"), _FINITE),
        "l_range": _POSITIVE_INTERVAL,
        "n_l": Key(_integer, lambda n: n >= 8, "at least 8"),
        "s_values": _NUMBERS,
    }),
    "fp-kernel-export": Table({
        "seed": _NATURAL._replace(default=None),  # unused; the shipped config sets it
        "potential": _POTENTIAL,
        "u_values": Key(numbers, lambda v: len(v) > 0 and max(v) < 0, "negative numbers"),
        **dict.fromkeys(("k2_values", "k3_values", "s_values", "s_tilde_values"), _NUMBERS),
        **dict.fromkeys(("m", "tolerance"), _FINITE),
    }),
    "sidebands": Table({
        **dict.fromkeys(("amplitude", "frequency", "amplitude_tolerance", "sum_sq_tolerance"),
                        _FINITE),
        **_MODE,
        **dict.fromkeys(("n_max", "n_compare"), _NATURAL),
        **dict.fromkeys(("periods", "samples_per_period"), _COUNT),
    }, rules=((lambda c: c["n_compare"] <= c["n_max"], "need n_compare <= n_max"),
              (lambda c: c["periods"] * c["samples_per_period"] >= 2,
               "need periods * samples_per_period >= 2 samples"))),
    "wavefront-probe": Table({
        "seed": _NATURAL._replace(default=None),  # unused; the shipped config sets it
        "potential": _POTENTIAL,
        **_MODE,
        "window": _WINDOW,
        "v_fit": Key(_grid, lambda g: 0 < g[0] < g[1] and g[2] >= 8,
                     "[lo, hi, n] with 0 < lo < hi, n >= 8"),
        "order_min": _FINITE,
        "plancherel": Key(partial(validate, Table(
            {"v_max": _POSITIVE, "dv": _POSITIVE, "tolerance": _FINITE},
            rules=((lambda p: p["dv"] < p["v_max"], "need dv < v_max"),)))),
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


def _write_csv(path: Path, header: list[str], rows, comment: str) -> None:
    """The artifact format: a `# comment` line, the header, one line per row.

    rows is any iterable, read once as the file is written.  The rows share
    their column types, so the first row sets the format of all: text as
    is, integers in decimal, other numbers as %.17g (which round-trips a double).
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n{','.join(header)}\n")
        if first is not None:
            fmt = ",".join("%s" if isinstance(c, str) else "%d" if isinstance(c, (int, np.integer))
                           else "%.17g" for c in first) + "\n"
            fh.write(fmt % tuple(first))
            fh.writelines(fmt % tuple(row) for row in rows)


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
    """What a runner reports: its checks, the artifact files it wrote and
    any extra summary.json entries."""

    checks: list[Check]
    artifacts: list[str]
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


def _pi_minus_rows(raw) -> np.ndarray:
    """Each row of `raw` projected by Pi_minus and normalised."""
    proj = np.asarray(raw) @ _PI_MINUS.T
    norms = np.linalg.norm(proj, axis=1, keepdims=True)
    return proj / np.maximum(norms, 1e-300)


def _random_pi_minus(rng, n: int = 1) -> np.ndarray:
    return _pi_minus_rows(rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4)))


# ---------------------------------------------------------------------------
# scenarios: each runner takes the validated config, the output directory
# and the comment line its CSVs carry


# Drawn modes and packet nodes have log |u| uniform on [log 0.1, log 2].
# The draw loops read the stream mode by mode in a fixed order.  Adjacent
# numbers of one distribution share a Generator call, which draws the same
# values as one call per number, and integers(2) picks the sign of u from
# the same bits as choice([-1.0, 1.0]).
_LOG_U_RANGE = (np.log(0.1), np.log(2.0))


def _signed_u(upper, log_u) -> np.ndarray:
    """u = -exp(log_u), or +exp(log_u) where the sign draw `upper` is 1."""
    return np.where(upper == 1, 1.0, -1.0) * np.exp(log_u)


def _draw_modes(rng, n: int):
    """n modes drawn one after another, returned as columns:
    u, k2, k3, m (n,), points (n, 4) and chi0 (n, 4).

    Each mode reads the sign of u, log |u|, (k2, k3), m, the point
    (s, l, y, z) and a raw spinor's 4 real then 4 imaginary parts.
    """
    upper = np.empty(n, dtype=np.int64)
    log_u, m = np.empty(n), np.empty(n)
    k = np.empty((2, n))
    points, raw = np.empty((n, 4)), np.empty((n, 8))
    for i in range(n):
        upper[i] = rng.integers(2)
        log_u[i] = rng.uniform(*_LOG_U_RANGE)
        k[:, i] = rng.normal(0.0, 0.7, 2)
        m[i] = rng.uniform(0.5, 1.5)
        points[i] = rng.uniform(-3.0, 3.0, 4)
        raw[i] = rng.normal(size=8)
    return [_signed_u(upper, log_u), *k, m, points, _pi_minus_rows(raw[:, :4] + 1j * raw[:, 4:])]


def _draw_pairs(rng, n: int):
    """n mode pairs drawn one after another, returned as columns:
    k2, k3, u, m, m_prime, s (n,) and the two amplitudes chi_a, chi_b (n, 4).

    Each pair reads (k2, k3), the sign of u, log |u|, (m, m_prime), s and
    the raw spinors' 16 parts (real then imaginary of a, then of b).
    """
    upper = np.empty(n, dtype=np.int64)
    log_u, s = np.empty(n), np.empty(n)
    k, masses = np.empty((2, n)), np.empty((2, n))
    raw = np.empty((n, 16))
    for i in range(n):
        k[:, i] = rng.normal(0.0, 0.7, 2)
        upper[i] = rng.integers(2)
        log_u[i] = rng.uniform(*_LOG_U_RANGE)
        masses[:, i] = rng.uniform(0.6, 1.4, 2)
        s[i] = rng.uniform(-5.0, 5.0)
        raw[i] = rng.normal(size=16)
    re_a, im_a, re_b, im_b = raw.reshape(n, 4, 4).transpose(1, 0, 2)
    return [*k, _signed_u(upper, log_u), *masses, s,
            _pi_minus_rows(re_a + 1j * im_a), _pi_minus_rows(re_b + 1j * im_b)]


def run_dirac_residual(cfg: Mapping, outdir: Path, comment: str) -> ScenarioResult:
    pot = cfg["potential"]
    rng = np.random.default_rng(cfg["seed"])
    u, k2, k3, m, points, chi0 = _draw_modes(rng, cfg["n_modes"])
    mode = ModeParams(k2=k2, k3=k3, u=u, m=m)
    amp = ModeAmplitude(chi0)
    resid = dirac_residual(amp, mode, pot, points.T)
    norm = np.linalg.norm(mode_wavefunction(amp, mode, pot, points.T), axis=-1)
    relative = resid / norm
    rows = [(i, *cols) for i, cols in
            enumerate(zip(u, k2, k3, m, *points.T, resid, norm, relative))]
    csv_path = outdir / "dirac_residual.csv"
    _write_csv(csv_path,
               ["idx", "u", "k2", "k3", "m", "s", "l", "y", "z",
                "residual", "norm", "relative"],
               rows, comment)
    return ScenarioResult([_leq("max_relative_dirac_residual", _worst(relative),
                                cfg["tolerance"])], [csv_path.name])


def _random_packet(rng, pot_kind_m: float, n_nodes: int) -> WavePacket:
    u = -np.exp(rng.uniform(*_LOG_U_RANGE, n_nodes))
    u += np.linspace(0.0, 1e-9, n_nodes)  # enforce distinct nodes
    k2 = rng.normal(0.0, 0.5, n_nodes)
    k3 = rng.normal(0.0, 0.5, n_nodes)
    chi0 = _random_pi_minus(rng, n_nodes)
    weights = rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)
    qw = rng.uniform(0.1, 1.0, n_nodes)
    return WavePacket(m=pot_kind_m, u=u, k2=k2, k3=k3, chi0=chi0,
                      weights=weights, quad_weights=qw)


def run_null_product_invariance(cfg: Mapping, outdir: Path, comment: str) -> ScenarioResult:
    n_nodes = cfg["nodes_per_packet"]
    s_values = cfg["s_values"]
    rng = np.random.default_rng(cfg["seed"])
    surfaces = np.array([0.0, *s_values])  # the s = 0 value is the reference
    rows = []
    for p in range(cfg["n_packets"]):
        psi = _random_packet(rng, 1.0, n_nodes)
        phi = WavePacket(m=psi.m, u=psi.u, k2=psi.k2, k3=psi.k3,
                         chi0=_random_pi_minus(rng, n_nodes),
                         weights=rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes),
                         quad_weights=psi.quad_weights)
        base, *values = null_scalar_product(psi, phi, cfg["potential"], surfaces)
        dev = np.abs(np.array(values) - base) / max(abs(base), 1e-300)
        rows.extend((p, s, val.real, val.imag, d) for s, val, d in zip(s_values, values, dev))
    csv_path = outdir / "null_product.csv"
    _write_csv(csv_path, ["packet", "s", "re_value", "im_value", "relative_deviation"],
               rows, comment)
    return ScenarioResult([_leq("max_s_dependence", _worst(r[-1] for r in rows),
                                cfg["tolerance"])], [csv_path.name])


def run_mass_pairing(cfg: Mapping, outdir: Path, comment: str) -> ScenarioResult:
    k2, k3, u, m, mp, s, chi_a, chi_b = _draw_pairs(np.random.default_rng(cfg["seed"]),
                                                    cfg["n_draws"])
    lhs, rhs = mass_pairing_identity(
        ModeAmplitude(chi_a), ModeParams(k2, k3, u, m),
        ModeAmplitude(chi_b), ModeParams(k2, k3, u, mp), cfg["potential"], s,
    )
    gap = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    rows = [(i, *cols) for i, cols in enumerate(
        zip(k2, k3, u, m, mp, s, lhs.real, lhs.imag, rhs.real, rhs.imag, gap))]
    csv_path = outdir / "mass_pairing.csv"
    _write_csv(csv_path,
               ["draw", "k2", "k3", "u", "m", "m_prime", "s",
                "re_lhs", "im_lhs", "re_rhs", "im_rhs", "relative_gap"],
               rows, comment)
    return ScenarioResult([_leq("max_relative_gap", _worst(gap), cfg["tolerance"])],
                          [csv_path.name])


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


def run_mass_oscillation(cfg: Mapping, outdir: Path, comment: str) -> ScenarioResult:
    pot = cfg["potential"]
    epsilons = cfg["epsilons"]
    fam = _grid_family(cfg)
    result = _build("mass-oscillation regulator", mass_oscillation_check, fam, fam, pot, epsilons)
    checks = [_leq("relative_gap", result.relative_gap, cfg["tolerance"])]

    rows = [("diagonal", e, v.real, v.imag) for e, v in
            zip(result.epsilons, result.lhs_by_epsilon)]
    rows.append(("diagonal_extrapolated", 0.0, result.lhs.real, result.lhs.imag))
    rows.append(("diagonal_rhs", 0.0, result.rhs.real, result.rhs.imag))

    if cfg["disjoint_null_check"]:
        fam_lo, fam_hi = (replace(fam, eta=smooth_bump(fam.masses, *cfg[support]))
                          for support in ("disjoint_support_low", "disjoint_support_high"))
        null = _build("mass-oscillation disjoint supports", mass_oscillation_check,
                      fam_lo, fam_hi, pot, epsilons)
        scale = max(abs(result.lhs), 1e-300)
        null_tol = cfg["null_tolerance"]
        checks.append(_leq("null_lhs_over_diagonal", abs(null.lhs) / scale, null_tol))
        checks.append(_leq("null_rhs_over_diagonal", abs(null.rhs) / scale, null_tol))
        rows.extend(("disjoint", e, v.real, v.imag) for e, v in
                    zip(null.epsilons, null.lhs_by_epsilon))
        rows.append(("disjoint_extrapolated", 0.0, null.lhs.real, null.lhs.imag))
        rows.append(("disjoint_rhs", 0.0, null.rhs.real, null.rhs.imag))

    csv_path = outdir / "mass_oscillation.csv"
    _write_csv(csv_path, ["case", "epsilon", "re_value", "im_value"], rows, comment)
    return ScenarioResult(checks, [csv_path.name])


def run_decay_scan(cfg: Mapping, outdir: Path, comment: str) -> ScenarioResult:
    pot = cfg["potential"]
    u = np.linspace(*cfg["u_grid"])
    n = u.size
    center, sigma = cfg["weight"]["center"], cfg["weight"]["sigma"]
    k2, k3, m = cfg["k2"], cfg["k3"], cfg["m"]
    s_values = cfg["s_values"]
    rng = np.random.default_rng(cfg["seed"])

    chi0 = np.tile(_random_pi_minus(rng)[0], (n, 1))
    weights = np.exp(-np.square((u - center) / sigma) / 2.0).astype(complex)
    du = abs(u[1] - u[0])
    packet = _build("decay-scan packet", WavePacket,
                    m=m, u=u, k2=np.full(n, k2), k3=np.full(n, k3),
                    chi0=chi0, weights=weights, quad_weights=np.full(n, du))
    single = WavePacket(m=m, u=np.array([u[n // 2]]), k2=np.array([k2]),
                        k3=np.array([k3]), chi0=chi0[:1],
                        weights=np.array([1.0 + 0j]), quad_weights=np.array([1.0]))
    l_grid = np.geomspace(*cfg["l_range"], cfg["n_l"])
    l_both = np.concatenate([l_grid, -l_grid])
    report = null_decay_scan(packet, pot, s_values, l_both)
    single_report = null_decay_scan(single, pot, s_values[:1], l_both)

    rows = [(s, l, mag) for s, mags in zip(report.s_values, report.magnitudes)
            for l, mag in zip(report.l_values, mags)]
    csv_path = outdir / "decay_scan.csv"
    _write_csv(csv_path, ["s", "l", "pi_minus_norm"], rows, comment)

    checks = [
        _geq("min_fitted_decay_order", report.min_order, cfg["order_min"]),
        Check("single_mode_flagged_non_decaying",
              single_report.min_order, report.threshold, single_report.non_decaying),
    ]
    return ScenarioResult(checks, [csv_path.name])


_KERNEL_HEADER = ["u", "k2", "k3", "s", "s_tilde"] + [
    f"{part}_{i}{j}" for i in range(4) for j in range(4) for part in ("re", "im")]


def _kernel_rows(modes: ModeParams, s, s_tilde, kernel: np.ndarray) -> list[list]:
    """One row (u, k2, k3, s, s~, re/im of each entry) per kernel value.

    The mode fields, s and s~ broadcast to the leading axes of kernel,
    (..., 4, 4), and the rows follow those axes in C order (mode-major).
    """
    head = np.broadcast_arrays(modes.u, modes.k2, modes.k3, s, s_tilde, kernel[..., 0, 0].real)
    entries = np.stack([kernel.real, kernel.imag], axis=-1).reshape(-1, 32)
    return np.column_stack([np.ravel(h) for h in head[:5]] + [entries]).tolist()


def run_fp_kernel_export(cfg: Mapping, outdir: Path, comment: str) -> ScenarioResult:
    pot = cfg["potential"]
    # one mode per (u, k2, k3) on axis 0, s on axis 1, s~ on axis 2
    u, k2, k3 = (x.ravel()[:, None, None] for x in
                 np.meshgrid(cfg["u_values"], cfg["k2_values"], cfg["k3_values"],
                             indexing="ij"))
    modes = _build("fp-kernel-export mode", ModeParams, k2, k3, u, cfg["m"])
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
    csv_path = outdir / "fp_kernel.csv"
    _write_csv(csv_path, _KERNEL_HEADER, _kernel_rows(modes, s, st, kernel), comment)
    tol = cfg["tolerance"]
    checks = [
        _leq("spin_adjoint_symmetry", _worst(sym_gaps), tol),
        _leq("projector_vs_causal_consistency", _worst(consistency_gaps), tol),
        _leq("coincidence_scalar", _worst(coincidence_gaps), tol),
    ]
    return ScenarioResult(checks, [csv_path.name])


def run_sidebands(cfg: Mapping, outdir: Path, comment: str) -> ScenarioResult:
    lam, omega = cfg["amplitude"], cfg["frequency"]
    n_max = cfg["n_max"]
    per = cfg["samples_per_period"]
    mode = _build("sidebands mode", ModeParams, cfg["k2"], cfg["k3"], cfg["u"], cfg["m"])
    pot = _build("sidebands wave", HarmonicPotential, lam, omega)
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

    an_path = outdir / "sidebands_analytic.csv"
    fft_path = outdir / "sidebands_fft.csv"
    for path, lines in ((an_path, lines_an), (fft_path, lines_fft)):
        amps = [complex(line.amplitude) for line in lines]
        _write_csv(path, ["n", "v_n", "re_amp", "im_amp", "abs_amp"],
                   [(line.n, line.v, a.real, a.imag, abs(a)) for line, a in zip(lines, amps)],
                   comment)
    checks = [
        _leq("max_amplitude_relative_gap", _worst(amp_gaps), cfg["amplitude_tolerance"]),
        _leq("max_position_offset_bins", _worst(pos_offsets), 1.0),
        _leq("sum_sq_deficit", abs(1.0 - total_sq), cfg["sum_sq_tolerance"]),
        _leq("zero_amplitude_collapse", collapse_err, 1e-12),
    ]
    return ScenarioResult(checks, [an_path.name, fft_path.name])


def run_wavefront_probe(cfg: Mapping, outdir: Path, comment: str) -> ScenarioResult:
    pot, window = cfg["potential"], cfg["window"]
    mode = _build("wavefront-probe mode", ModeParams, cfg["k2"], cfg["k3"], cfg["u"], cfg["m"])
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
        asym_mode = _build("asymmetry_report mode", ModeParams, *(
            cfg[key] if asym[key] is None else asym[key] for key in ("k2", "k3", "u", "m")))
        extra["asymmetry_report"] = tail_decay_orders(
            asym_mode, asym["potential"] or pot, asym["window"] or window, v_lo, v_hi)

    fit_path = outdir / "wavefront_fit.csv"
    dense_path = outdir / "wavefront_dense.csv"
    for path, v, f in ((fit_path, v_fit, f_fit), (dense_path, v_dense, f_dense)):
        # a lazy zip: the dense grid's formatted lines are never all held at once
        _write_csv(path, ["v", "re_F", "im_F"],
                   zip(v.tolist(), f.real.tolist(), f.imag.tolist()), comment)
    checks = [
        _geq("positive_tail_decay_order", order, cfg["order_min"]),
        _leq("plancherel_relative_error", pl_err, plancherel["tolerance"]),
    ]
    return ScenarioResult(checks, [fit_path.name, dense_path.name], extra)


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


def run_scenario(scenario: str, cfg: dict, outdir: Path, workers: int) -> dict:
    """Validate the raw config `cfg`, run one scenario and write its
    artifacts and summary.json.

    workers is the validated --workers count; no scenario fans out, so
    it does not change what runs or what is written.
    """
    runner, identity = _SCENARIOS[scenario]
    valid = validate_config(scenario, cfg)
    chash = _config_hash(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    result = runner(valid, outdir, f"config_sha256={chash}")
    summary = {
        "scenario": scenario,
        "identity": identity,
        "config_sha256": chash,
        "checks": [asdict(c) for c in result.checks],
        "passed": all(c.passed for c in result.checks),
        "artifacts": result.artifacts,
        **result.extra,
    }
    summary = _json_safe(summary)
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True, allow_nan=False)
    return summary


def _worker_count(requested) -> int:
    """--workers, else VOLKOV_FP_WORKERS, else 1; it must be a positive integer."""
    if requested is None:
        env = os.environ.get("VOLKOV_FP_WORKERS", "1")
        try:
            requested = int(env)
        except ValueError:
            raise ConfigError(f"VOLKOV_FP_WORKERS must be an integer, got {env!r}") from None
    if requested < 1:
        raise ConfigError(f"worker count must be at least 1, got {requested}")
    return requested


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
    parser.add_argument(
        "--workers", type=int, default=None,
        help="accepted for compatibility and validated; no scenario starts worker "
             "processes (default from VOLKOV_FP_WORKERS, else 1)",
    )
    args = parser.parse_args(argv)

    try:
        workers = _worker_count(args.workers)
        summary = run_scenario(args.scenario, _load_config(args.config), Path(args.out),
                               workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PotentialDomainError, UndersampledGridError) as exc:
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
