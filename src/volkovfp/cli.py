"""Batch scenario runner: reproducible experiments with CSV/JSON artifacts.

Usage:  volkov-fp <scenario> --config <path> [--out <dir>] [--workers N]

Scenarios: dirac-residual, null-product-invariance, mass-pairing,
mass-oscillation, decay-scan, fp-kernel-export, sidebands,
wavefront-probe.

Every run reads a single versioned JSON config, writes CSV artifacts
(each carrying a comment line with the config hash) plus a
machine-readable summary.json with one pass/fail entry per assertion,
and exits 0 on pass, 1 on assertion failure, 2 on config errors and 3
on numerical-domain errors.  Worker fan-out never changes results: work
is split into fixed-size chunks and reduced in chunk order, so CSV
output is byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
from pathlib import Path

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
    packet_pi_minus_field,
    smooth_bump,
)
from .potential import (
    PlaneWavePotential,
    PotentialDomainError,
    potential_from_descriptor,
    transverse_phase,
)
from .projector import (
    KernelSample,
    causal_fundamental_momentum,
    fp_kernel_momentum,
    fp_scalar_a,
    mass_oscillation_check,
    signature_sign,
    write_kernel_csv,
)
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
    window_from_descriptor,
    windowed_phase_transform,
    write_lines_csv,
    write_transform_csv,
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
# config and artifact plumbing


def _load_config(path: str, scenario: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    declared = cfg.get("scenario")
    if declared is not None and declared != scenario:
        raise ConfigError(f"config is for scenario {declared!r}, not {scenario!r}")
    return cfg


def _require(cfg: dict, key: str, kind, what: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{what} is missing required key {key!r}")
    value = cfg[key]
    if kind is float:
        if not _is_number(value):
            raise ConfigError(f"{what}[{key!r}] must be a number")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{what}[{key!r}] must be an integer")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"{what}[{key!r}] must be of type {kind.__name__}")
    return value


def _require_count(cfg: dict, key: str) -> int:
    """A positive integer: a run over zero draws would pass with nothing measured."""
    value = _require(cfg, key, int)
    if value < 1:
        raise ConfigError(f"{key} must be at least 1")
    return value


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _potential(cfg: dict) -> PlaneWavePotential:
    desc = _require(cfg, "potential", dict)
    try:
        return potential_from_descriptor(desc)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad potential descriptor: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows, config_hash: str) -> None:
    lines = [f"# config_sha256={config_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _gl_grid(triple, what: str):
    """[lo, hi, n] -> Gauss-Legendre nodes/weights on [lo, hi]."""
    if (not isinstance(triple, list)) or len(triple) != 3:
        raise ConfigError(f"{what} must be [lo, hi, n]")
    lo, hi, n = float(triple[0]), float(triple[1]), int(triple[2])
    if not (lo < hi and n >= 1):
        raise ConfigError(f"{what} must satisfy lo < hi and n >= 1")
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w


def _chunks(items, size: int):
    return [items[i:i + size] for i in range(0, len(items), size)]


def parallel_map(fn, items: list, workers: int, chunk_size: int = 32) -> list:
    """Map fn over fixed-size chunks; reduction order never depends on workers."""
    chunks = _chunks(items, chunk_size)
    if workers <= 1 or len(chunks) <= 1:
        parts = [fn(chunk) for chunk in chunks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            parts = pool.map(fn, chunks)
    out = []
    for part in parts:
        out.extend(part)
    return out


class Check:
    """One named assertion; a non-finite measured value always fails."""

    def __init__(self, name: str, measured: float, tolerance: float, passed: bool):
        self.name = name
        self.measured = measured
        self.tolerance = tolerance
        self.passed = bool(passed) and bool(np.isfinite(measured))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


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


def _random_pi_minus(rng, n: int = 1) -> np.ndarray:
    raw = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    proj = raw @ _PI_MINUS.T
    norms = np.linalg.norm(proj, axis=1, keepdims=True)
    return proj / np.maximum(norms, 1e-300)


# ---------------------------------------------------------------------------
# scenarios


def _draw_modes(cfg: dict, rng, n: int):
    u_lo, u_hi = 0.1, 2.0
    draws = []
    for _ in range(n):
        u = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(u_lo), np.log(u_hi))))
        k2 = float(rng.normal(0.0, 0.7))
        k3 = float(rng.normal(0.0, 0.7))
        m = float(rng.uniform(0.5, 1.5))
        point = tuple(rng.uniform(-3.0, 3.0, size=4))
        chi0 = _random_pi_minus(rng)[0]
        draws.append((u, k2, k3, m, point, chi0))
    return draws


def _residual_chunk(args):
    pot_desc, chunk = args
    pot = potential_from_descriptor(pot_desc)
    rows = []
    for idx, (u, k2, k3, m, point, chi0_re, chi0_im) in chunk:
        chi0 = np.asarray(chi0_re) + 1j * np.asarray(chi0_im)
        mode = ModeParams(k2=k2, k3=k3, u=u, m=m)
        amp = ModeAmplitude(chi0)
        resid = dirac_residual(amp, mode, pot, point)
        norm = float(np.linalg.norm(mode_wavefunction(amp, mode, pot, point)))
        rows.append((idx, u, k2, k3, m, *point, resid, norm, resid / norm))
    return rows


def run_dirac_residual(cfg: dict, outdir: Path, workers: int) -> tuple[list[Check], list[str]]:
    pot_desc = _require(cfg, "potential", dict)
    _potential(cfg)
    n_modes = _require_count(cfg, "n_modes")
    tol = _require(cfg, "tolerance", float)
    rng = np.random.default_rng(_require(cfg, "seed", int))
    draws = _draw_modes(cfg, rng, n_modes)
    items = [
        (i, (u, k2, k3, m, point, chi0.real.tolist(), chi0.imag.tolist()))
        for i, (u, k2, k3, m, point, chi0) in enumerate(draws)
    ]
    rows = parallel_map(_ResidualWorker(pot_desc), items, workers)
    rows.sort(key=lambda r: r[0])
    chash = _config_hash(cfg)
    csv_path = outdir / "dirac_residual.csv"
    _write_csv(csv_path,
               ["idx", "u", "k2", "k3", "m", "s", "l", "y", "z",
                "residual", "norm", "relative"],
               rows, chash)
    worst = _worst(r[-1] for r in rows)
    return [_leq("max_relative_dirac_residual", worst, tol)], [csv_path.name]


class _ResidualWorker:
    """Picklable chunk worker carrying the potential descriptor."""

    def __init__(self, pot_desc):
        self.pot_desc = pot_desc

    def __call__(self, chunk):
        return _residual_chunk((self.pot_desc, chunk))


def _random_packet(rng, pot_kind_m: float, n_nodes: int) -> WavePacket:
    u = -np.exp(rng.uniform(np.log(0.1), np.log(2.0), n_nodes))
    u += np.linspace(0.0, 1e-9, n_nodes)  # enforce distinct nodes
    k2 = rng.normal(0.0, 0.5, n_nodes)
    k3 = rng.normal(0.0, 0.5, n_nodes)
    chi0 = _random_pi_minus(rng, n_nodes)
    weights = rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)
    qw = rng.uniform(0.1, 1.0, n_nodes)
    return WavePacket(m=pot_kind_m, u=u, k2=k2, k3=k3, chi0=chi0,
                      weights=weights, quad_weights=qw)


def run_null_product_invariance(cfg, outdir: Path, workers: int):
    pot = _potential(cfg)
    n_packets = _require_count(cfg, "n_packets")
    n_nodes = _require_count(cfg, "nodes_per_packet")
    tol = _require(cfg, "tolerance", float)
    s_values = [float(s) for s in _require(cfg, "s_values", list)]
    rng = np.random.default_rng(_require(cfg, "seed", int))
    rows = []
    for p in range(n_packets):
        psi = _random_packet(rng, 1.0, n_nodes)
        phi = WavePacket(m=psi.m, u=psi.u, k2=psi.k2, k3=psi.k3,
                         chi0=_random_pi_minus(rng, n_nodes),
                         weights=rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes),
                         quad_weights=psi.quad_weights)
        base = null_scalar_product(psi, phi, pot, 0.0)
        for s in s_values:
            val = null_scalar_product(psi, phi, pot, s)
            dev = abs(val - base) / max(abs(base), 1e-300)
            rows.append((p, s, val.real, val.imag, dev))
    chash = _config_hash(cfg)
    csv_path = outdir / "null_product.csv"
    _write_csv(csv_path, ["packet", "s", "re_value", "im_value", "relative_deviation"],
               rows, chash)
    return [_leq("max_s_dependence", _worst(r[-1] for r in rows), tol)], [csv_path.name]


def run_mass_pairing(cfg, outdir: Path, workers: int):
    pot = _potential(cfg)
    n_draws = _require_count(cfg, "n_draws")
    tol = _require(cfg, "tolerance", float)
    rng = np.random.default_rng(_require(cfg, "seed", int))
    rows = []
    for i in range(n_draws):
        k2 = float(rng.normal(0.0, 0.7))
        k3 = float(rng.normal(0.0, 0.7))
        u = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
        m = float(rng.uniform(0.6, 1.4))
        mp = float(rng.uniform(0.6, 1.4))
        s = float(rng.uniform(-5.0, 5.0))
        amp_a = ModeAmplitude(_random_pi_minus(rng)[0])
        amp_b = ModeAmplitude(_random_pi_minus(rng)[0])
        lhs, rhs = mass_pairing_identity(
            amp_a, ModeParams(k2, k3, u, m), amp_b, ModeParams(k2, k3, u, mp), pot, s
        )
        gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rows.append((i, k2, k3, u, m, mp, s, lhs.real, lhs.imag, rhs.real, rhs.imag, gap))
    chash = _config_hash(cfg)
    csv_path = outdir / "mass_pairing.csv"
    _write_csv(csv_path,
               ["draw", "k2", "k3", "u", "m", "m_prime", "s",
                "re_lhs", "im_lhs", "re_rhs", "im_rhs", "relative_gap"],
               rows, chash)
    return [_leq("max_relative_gap", _worst(r[-1] for r in rows), tol)], [csv_path.name]


def _mass_interval(cfg) -> tuple[float, float]:
    interval = _require(cfg, "mass_interval", list)
    if len(interval) != 2 or not all(_is_number(x) for x in interval):
        raise ConfigError("mass_interval must be [lo, hi]")
    lo, hi = float(interval[0]), float(interval[1])
    if not 0 < lo < hi < np.inf:
        raise ConfigError("mass_interval must satisfy 0 < lo < hi")
    return lo, hi


def _grid_family(cfg, eta_support, rng) -> tuple[MassFamily, np.ndarray]:
    interval = _mass_interval(cfg)
    n_masses = _require(cfg, "n_masses", int)
    if n_masses < 2:
        raise ConfigError("n_masses must be at least 2")
    masses = np.linspace(interval[0], interval[1], n_masses)
    mass_w = np.full(n_masses, (interval[1] - interval[0]) / (n_masses - 1))
    u_n, u_w = _gl_grid(_require(cfg, "u_grid", list), "u_grid")
    k2_n, k2_w = _gl_grid(_require(cfg, "k2_grid", list), "k2_grid")
    k3_n, k3_w = _gl_grid(_require(cfg, "k3_grid", list), "k3_grid")
    if np.any(u_n >= 0):
        raise ConfigError("u_grid must be strictly negative for mass-oscillation runs")
    uu, kk2, kk3 = np.meshgrid(u_n, k2_n, k3_n, indexing="ij")
    qw = np.einsum("i,j,k->ijk", u_w, k2_w, k3_w).ravel()
    u, k2, k3 = uu.ravel(), kk2.ravel(), kk3.ravel()
    chi0 = _random_pi_minus(rng, u.size)
    eta = smooth_bump(masses, eta_support[0], eta_support[1])
    packets = [
        WavePacket(m=float(m), u=u, k2=k2, k3=k3, chi0=chi0,
                   weights=np.ones(u.size, dtype=complex), quad_weights=qw)
        for m in masses
    ]
    family = MassFamily(interval=interval, masses=masses, eta=eta,
                        mass_quad_weights=mass_w, packets=packets)
    return family, eta


def run_mass_oscillation(cfg, outdir: Path, workers: int):
    pot = _potential(cfg)
    epsilons = _require(cfg, "epsilons", list)
    if not epsilons or not all(_is_number(e) and 0 < e < np.inf for e in epsilons):
        raise ConfigError("epsilons must be a nonempty list of positive numbers")
    epsilons = [float(e) for e in epsilons]
    if len(set(epsilons)) != len(epsilons):
        raise ConfigError("epsilons must be distinct")
    tol = _require(cfg, "tolerance", float)
    rng = np.random.default_rng(_require(cfg, "seed", int))
    fam, _ = _grid_family(cfg, _mass_interval(cfg), rng)
    result = mass_oscillation_check(fam, fam, pot, epsilons=epsilons)
    checks = [_leq("relative_gap", result.relative_gap, tol)]

    rows = [("diagonal", e, v.real, v.imag) for e, v in
            zip(result.epsilons, result.lhs_by_epsilon)]
    rows.append(("diagonal_extrapolated", 0.0, result.lhs.real, result.lhs.imag))
    rows.append(("diagonal_rhs", 0.0, result.rhs.real, result.rhs.imag))

    if cfg.get("disjoint_null_check", False):
        null_tol = _require(cfg, "null_tolerance", float)
        lo_sup = [float(x) for x in _require(cfg, "disjoint_support_low", list)]
        hi_sup = [float(x) for x in _require(cfg, "disjoint_support_high", list)]
        rng_null = np.random.default_rng(_require(cfg, "seed", int))
        fam_lo, _ = _grid_family(cfg, tuple(lo_sup), rng_null)
        rng_null = np.random.default_rng(_require(cfg, "seed", int))
        fam_hi, _ = _grid_family(cfg, tuple(hi_sup), rng_null)
        null = mass_oscillation_check(fam_lo, fam_hi, pot, epsilons=epsilons)
        scale = max(abs(result.lhs), 1e-300)
        checks.append(_leq("null_lhs_over_diagonal", abs(null.lhs) / scale, null_tol))
        checks.append(_leq("null_rhs_over_diagonal", abs(null.rhs) / scale, null_tol))
        rows.extend(("disjoint", e, v.real, v.imag) for e, v in
                    zip(null.epsilons, null.lhs_by_epsilon))
        rows.append(("disjoint_extrapolated", 0.0, null.lhs.real, null.lhs.imag))
        rows.append(("disjoint_rhs", 0.0, null.rhs.real, null.rhs.imag))

    chash = _config_hash(cfg)
    csv_path = outdir / "mass_oscillation.csv"
    _write_csv(csv_path, ["case", "epsilon", "re_value", "im_value"],
               [(c, e, r, i) for c, e, r, i in rows], chash)
    return checks, [csv_path.name]


def run_decay_scan(cfg, outdir: Path, workers: int):
    pot = _potential(cfg)
    u_bounds = _require(cfg, "u_grid", list)
    if len(u_bounds) != 3:
        raise ConfigError("u_grid must be [lo, hi, n]")
    u = np.linspace(float(u_bounds[0]), float(u_bounds[1]), int(u_bounds[2]))
    if np.any(u == 0):
        raise ConfigError("u grid must avoid u = 0")
    weight_cfg = _require(cfg, "weight", dict)
    center = _require(weight_cfg, "center", float, "weight")
    sigma = _require(weight_cfg, "sigma", float, "weight")
    k2 = _require(cfg, "k2", float)
    k3 = _require(cfg, "k3", float)
    m = _require(cfg, "m", float)
    l_bounds = _require(cfg, "l_range", list)
    n_l = _require(cfg, "n_l", int)
    s_values = [float(s) for s in _require(cfg, "s_values", list)]
    order_min = _require(cfg, "order_min", float)
    rng = np.random.default_rng(_require(cfg, "seed", int))

    n = u.size
    chi0 = np.tile(_random_pi_minus(rng)[0], (n, 1))
    weights = np.exp(-np.square((u - center) / sigma) / 2.0).astype(complex)
    du = abs(u[1] - u[0]) if n > 1 else 1.0
    packet = WavePacket(m=m, u=u, k2=np.full(n, k2), k3=np.full(n, k3),
                        chi0=chi0, weights=weights, quad_weights=np.full(n, du))
    l_grid = np.geomspace(float(l_bounds[0]), float(l_bounds[1]), n_l)
    l_both = np.concatenate([l_grid, -l_grid])
    report = null_decay_scan(packet, pot, s_values, l_both)

    single = WavePacket(m=m, u=np.array([u[n // 2]]), k2=np.array([k2]),
                        k3=np.array([k3]), chi0=chi0[:1],
                        weights=np.array([1.0 + 0j]), quad_weights=np.array([1.0]))
    single_report = null_decay_scan(single, pot, s_values[:1], l_both)

    rows = []
    for s in s_values:
        mags = np.linalg.norm(packet_pi_minus_field(packet, pot, s, l_both), axis=1)
        for l, mag in zip(l_both, mags):
            rows.append((s, l, mag))
    chash = _config_hash(cfg)
    csv_path = outdir / "decay_scan.csv"
    _write_csv(csv_path, ["s", "l", "pi_minus_norm"], rows, chash)

    checks = [
        _geq("min_fitted_decay_order", report.min_order, order_min),
        Check("single_mode_flagged_non_decaying",
              single_report.min_order, report.threshold, single_report.non_decaying),
    ]
    return checks, [csv_path.name]


def run_fp_kernel_export(cfg, outdir: Path, workers: int):
    pot = _potential(cfg)
    u_vals = [float(x) for x in _require(cfg, "u_values", list)]
    if any(x >= 0 for x in u_vals):
        raise ConfigError("u_values must be negative for projector kernels")
    k2_vals = [float(x) for x in _require(cfg, "k2_values", list)]
    k3_vals = [float(x) for x in _require(cfg, "k3_values", list)]
    m = _require(cfg, "m", float)
    s_vals = [float(x) for x in _require(cfg, "s_values", list)]
    st_vals = [float(x) for x in _require(cfg, "s_tilde_values", list)]
    tol = _require(cfg, "tolerance", float)

    samples = []
    sym_gaps, consistency_gaps, coincidence_gaps = [], [], []
    for u in u_vals:
        for k2 in k2_vals:
            for k3 in k3_vals:
                mode = ModeParams(k2, k3, u, m)
                scale = 1.0 / (2.0 * np.pi) ** 4
                for s in s_vals:
                    coin = abs(complex(fp_scalar_a(mode, pot, s, s)) - scale) / scale
                    coincidence_gaps.append(coin)
                    for st in st_vals:
                        kernel = fp_kernel_momentum(mode, pot, s, st)
                        samples.append(KernelSample(mode, s, st, kernel))
                        mirrored = fp_kernel_momentum(mode, pot, st, s)
                        sym = np.max(np.abs(spin_adjoint(kernel) - mirrored))
                        causal = causal_fundamental_momentum(mode, pot, s, st)
                        cons = np.max(np.abs(kernel - (-signature_sign(u)) * causal))
                        norm = max(np.max(np.abs(kernel)), 1e-300)
                        sym_gaps.append(sym / norm)
                        consistency_gaps.append(cons / norm)
    chash = _config_hash(cfg)
    csv_path = outdir / "fp_kernel.csv"
    write_kernel_csv(csv_path, samples, comment=f"config_sha256={chash}")
    checks = [
        _leq("spin_adjoint_symmetry", _worst(sym_gaps), tol),
        _leq("projector_vs_causal_consistency", _worst(consistency_gaps), tol),
        _leq("coincidence_scalar", _worst(coincidence_gaps), tol),
    ]
    return checks, [csv_path.name]


def run_sidebands(cfg, outdir: Path, workers: int):
    lam = _require(cfg, "amplitude", float)
    omega = _require(cfg, "frequency", float)
    k2, k3 = _require(cfg, "k2", float), _require(cfg, "k3", float)
    u, m = _require(cfg, "u", float), _require(cfg, "m", float)
    n_max = _require(cfg, "n_max", int)
    n_compare = _require(cfg, "n_compare", int)
    periods = _require(cfg, "periods", int)
    per = _require(cfg, "samples_per_period", int)
    amp_tol = _require(cfg, "amplitude_tolerance", float)
    sum_tol = _require(cfg, "sum_sq_tolerance", float)

    from .potential import HarmonicPotential

    try:
        mode = ModeParams(k2, k3, u, m)
        pot = HarmonicPotential(lam, omega)
    except ValueError as exc:
        raise ConfigError(f"bad sidebands mode or wave: {exc}") from exc
    v0 = harmonic_carrier(mode, lam, omega)
    lines_an = harmonic_sidebands_analytic(mode, lam, omega, n_max)
    total_sq = sum(abs(l.amplitude) ** 2 for l in lines_an)

    ds = (2.0 * np.pi / abs(omega)) / per
    n_samp = periods * per
    s_grid = ds * np.arange(n_samp)
    zeta = transverse_phase(pot, mode.k2, mode.k3, 0.0, s_grid) + mode.m ** 2 * s_grid
    values = np.exp(-1j * zeta / (4.0 * mode.u))
    span = s_grid[-1] - s_grid[0]
    window = GaussianWindow(center=0.5 * span, width=span / 14.0)
    lines_fft = spectrum_fft(s_grid, values, window, omega, v0, n_compare)

    an_by_n = {l.n: l for l in lines_an}
    bin_width = 2.0 * np.pi / span
    amp_gaps = [abs(lf.amplitude - an_by_n[lf.n].amplitude) / abs(an_by_n[lf.n].amplitude)
                for lf in lines_fft]
    pos_offsets = [abs(lf.v - an_by_n[lf.n].v) / bin_width for lf in lines_fft]

    # amplitude off: spectrum collapses to the single dispersion line
    lines_zero = harmonic_sidebands_analytic(mode, 0.0, omega, n_max)
    zero_carrier = [l for l in lines_zero if l.n == 0][0]
    v_disp = (mode.k2 ** 2 + mode.k3 ** 2 + mode.m ** 2) / (4.0 * mode.u)
    collapse_err = _worst(
        [abs(zero_carrier.amplitude - 1.0), abs(zero_carrier.v - v_disp)]
        + [abs(l.amplitude) for l in lines_zero if l.n != 0]
    )

    chash = _config_hash(cfg)
    an_path = outdir / "sidebands_analytic.csv"
    fft_path = outdir / "sidebands_fft.csv"
    write_lines_csv(an_path, lines_an, comment=f"config_sha256={chash}")
    write_lines_csv(fft_path, lines_fft, comment=f"config_sha256={chash}")
    checks = [
        _leq("max_amplitude_relative_gap", _worst(amp_gaps), amp_tol),
        _leq("max_position_offset_bins", _worst(pos_offsets), 1.0),
        _leq("sum_sq_deficit", abs(1.0 - total_sq), sum_tol),
        _leq("zero_amplitude_collapse", collapse_err, 1e-12),
    ]
    return checks, [an_path.name, fft_path.name]


def run_wavefront_probe(cfg, outdir: Path, workers: int):
    pot = _potential(cfg)
    mode = ModeParams(_require(cfg, "k2", float), _require(cfg, "k3", float),
                      _require(cfg, "u", float), _require(cfg, "m", float))
    window = window_from_descriptor(_require(cfg, "window", dict))
    fit_bounds = _require(cfg, "v_fit", list)
    v_lo, v_hi, n_fit = float(fit_bounds[0]), float(fit_bounds[1]), int(fit_bounds[2])
    order_min = _require(cfg, "order_min", float)
    pl_cfg = _require(cfg, "plancherel", dict)
    v_max = _require(pl_cfg, "v_max", float, "plancherel")
    dv = _require(pl_cfg, "dv", float, "plancherel")
    pl_tol = _require(pl_cfg, "tolerance", float, "plancherel")

    v_fit = np.geomspace(v_lo, v_hi, n_fit)
    f_fit = windowed_phase_transform(mode, pot, window, v_fit)
    order, resid = decay_order_fit(v_fit, np.abs(f_fit))

    v_dense = np.arange(-v_max, v_max + 0.5 * dv, dv)
    f_dense = windowed_phase_transform(mode, pot, window, v_dense)
    l2 = transform_l2(v_dense, f_dense)
    ref = plancherel_reference(window)
    pl_err = abs(l2 - ref) / ref

    asym_cfg = cfg.get("asymmetry_report")
    asym = None
    if asym_cfg:
        asym_mode = ModeParams(
            float(asym_cfg.get("k2", mode.k2)), float(asym_cfg.get("k3", mode.k3)),
            float(asym_cfg.get("u", mode.u)), float(asym_cfg.get("m", mode.m)))
        asym_pot = (potential_from_descriptor(asym_cfg["potential"])
                    if "potential" in asym_cfg else pot)
        asym_window = (window_from_descriptor(asym_cfg["window"])
                       if "window" in asym_cfg else window)
        asym = tail_decay_orders(asym_mode, asym_pot, asym_window, v_lo, v_hi)

    chash = _config_hash(cfg)
    fit_path = outdir / "wavefront_fit.csv"
    dense_path = outdir / "wavefront_dense.csv"
    write_transform_csv(fit_path, v_fit, f_fit, comment=f"config_sha256={chash}")
    write_transform_csv(dense_path, v_dense, f_dense, comment=f"config_sha256={chash}")
    checks = [
        _geq("positive_tail_decay_order", order, order_min),
        _leq("plancherel_relative_error", pl_err, pl_tol),
    ]
    extra = {"fit_residual": resid}
    if asym is not None:
        extra["asymmetry_report"] = asym
    return checks, [fit_path.name, dense_path.name], extra


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
    runner, identity = _SCENARIOS[scenario]
    outdir.mkdir(parents=True, exist_ok=True)
    result = runner(cfg, outdir, workers)
    if len(result) == 2:
        checks, artifacts = result
        extra = {}
    else:
        checks, artifacts, extra = result
    summary = {
        "scenario": scenario,
        "identity": identity,
        "config_sha256": _config_hash(cfg),
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
        "artifacts": artifacts,
    }
    summary.update(extra)
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
    parser.add_argument(
        "--workers", type=int,
        default=int(os.environ.get("VOLKOV_FP_WORKERS", "1")),
        help="worker processes (default from VOLKOV_FP_WORKERS, else 1)",
    )
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config, args.scenario)
        summary = run_scenario(args.scenario, cfg, Path(args.out), args.workers)
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
