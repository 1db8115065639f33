"""Scenario runner: exit codes, artifacts, determinism across worker counts."""

import importlib.util
import json
import multiprocessing.pool
import multiprocessing.process
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volkovfp import cli
from volkovfp.potential import (HarmonicPotential, PulsePotential, TabulatedPotential,
                                ZeroPotential)
from volkovfp.spectral import GaussianWindow, HannWindow


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sidebands_config(**overrides):
    cfg = {
        "schema_version": 1,
        "scenario": "sidebands",
        "amplitude": 0.2,
        "frequency": 1.0,
        "k2": 0.3,
        "k3": 0.0,
        "u": -0.5,
        "m": 1.0,
        "n_max": 8,
        "n_compare": 3,
        "periods": 60,
        "samples_per_period": 32,
        "amplitude_tolerance": 1e-4,
        "sum_sq_tolerance": 1e-10,
    }
    cfg.update(overrides)
    return cfg


def test_sidebands_scenario_passes(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config())
    out = tmp_path / "out"
    code = cli.main(["sidebands", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_PASS
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["identity"]
    assert (out / "sidebands_analytic.csv").exists()
    first_line = (out / "sidebands_analytic.csv").read_text().splitlines()[0]
    assert first_line.startswith("# config_sha256=")


def test_missing_key_is_config_error(tmp_path):
    cfg = sidebands_config()
    del cfg["frequency"]
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["sidebands", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    # no partial outputs on config errors
    assert not (out / "summary.json").exists()
    assert not (out / "sidebands_analytic.csv").exists()


@pytest.mark.parametrize("content", [None, b"{", b"\xff\xfe{}", b"[1]"],
                         ids=["directory", "truncated", "not-utf8", "not-an-object"])
def test_unreadable_config_is_config_error(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    if content is None:
        cfg_path.mkdir()
    else:
        cfg_path.write_bytes(content)
    out = tmp_path / "o"
    assert cli.main(["sidebands", "--config", str(cfg_path), "--out", str(out)]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_wrong_schema_version_rejected(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config(schema_version=2))
    assert cli.main(["sidebands", "--config", cfg_path, "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG


def test_scenario_mismatch_rejected(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config(scenario="mass-pairing"))
    assert cli.main(["sidebands", "--config", cfg_path, "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG


@pytest.mark.parametrize("override", [
    {"u": 0.0}, {"m": -1.0}, {"frequency": 0.0}, {"amplitude": float("nan")},
    {"periods": 0}, {"samples_per_period": 0},
    {"n_max": -1}, {"n_max": 0}, {"n_compare": 20}, {"n_compare": -1},
    {"tolerence": 1e-4}, {"n_max": True}, {"periods": 1, "samples_per_period": 1},
], ids=["zero-u", "negative-m", "zero-frequency", "nan-amplitude", "zero-periods",
        "zero-samples-per-period", "negative-n-max", "n-max-below-n-compare",
        "n-compare-above-n-max", "negative-n-compare", "unknown-key", "boolean-n-max",
        "one-sample-grid"])
def test_bad_sidebands_mode_or_wave_rejected(tmp_path, capsys, override):
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config(**override))
    out = tmp_path / "o"
    assert cli.main(["sidebands", "--config", cfg_path, "--out", str(out)]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("override", [{"k2": 0.0, "k3": 0.0}, {"amplitude": 0.0}],
                         ids=["on-axis-mode", "zero-amplitude"])
def test_sidebands_with_vanishing_lines_pass(tmp_path, override):
    """J_n(0) = 0 makes some analytic lines exactly 0: those lines are held
    to an absolute amplitude gap and have no position to compare."""
    cfg_path = write_config(tmp_path, "cfg.json", sidebands_config(**override))
    out = tmp_path / "out"
    assert cli.main(["sidebands", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_PASS
    checks = {c["name"]: c for c in json.loads((out / "summary.json").read_text())["checks"]}
    assert checks["max_amplitude_relative_gap"]["measured"] <= 1e-4
    assert checks["max_position_offset_bins"]["measured"] <= 1.0


def test_assertion_failure_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json",
                            sidebands_config(amplitude_tolerance=1e-17))
    out = tmp_path / "out"
    code = cli.main(["sidebands", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_ASSERTION
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False


def test_domain_error_exit_code(tmp_path):
    # tabulated profile too narrow for the sampled evaluation points
    s = np.linspace(-0.5, 0.5, 9)
    cfg = {
        "schema_version": 1,
        "scenario": "dirac-residual",
        "seed": 5,
        "n_modes": 5,
        "tolerance": 1e-8,
        "potential": {"kind": "tabulated", "s": s.tolist(),
                      "a2": (0.1 * np.cos(s)).tolist(), "a3": np.zeros(9).tolist()},
    }
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    code = cli.main(["dirac-residual", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DOMAIN


def test_nyquist_violation_is_domain_error(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json",
                            sidebands_config(samples_per_period=2))
    code = cli.main(["sidebands", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DOMAIN


def small_configs():
    """One fast config per scenario, for determinism sweeps."""
    harmonic = {"kind": "harmonic", "amplitude": 0.2, "frequency": 1.0}
    return {
        "dirac-residual": {
            "schema_version": 1, "seed": 11, "potential": harmonic,
            "n_modes": 70, "tolerance": 1e-10,
        },
        "null-product-invariance": {
            "schema_version": 1, "seed": 12, "potential": harmonic,
            "n_packets": 4, "nodes_per_packet": 8,
            "s_values": [-5.0, 0.0, 5.0], "tolerance": 1e-10,
        },
        "mass-pairing": {
            "schema_version": 1, "seed": 13, "potential": harmonic,
            "n_draws": 40, "tolerance": 1e-10,
        },
        "mass-oscillation": {
            "schema_version": 1, "seed": 14, "potential": harmonic,
            "mass_interval": [0.8, 1.2], "n_masses": 9,
            "u_grid": [-0.1, -0.05, 3], "k2_grid": [-0.2, 0.2, 2],
            "k3_grid": [-0.2, 0.2, 2], "epsilons": [0.1, 0.05, 0.025],
            "tolerance": 5e-2,
        },
        "decay-scan": {
            "schema_version": 1, "seed": 15, "potential": harmonic,
            "u_grid": [-2.0, -0.2, 80], "weight": {"center": -1.1, "sigma": 0.04},
            "k2": 0.3, "k3": 0.0, "m": 1.0,
            "l_range": [20.0, 200.0], "n_l": 12, "s_values": [0.0],
            "order_min": 4.0,
        },
        "fp-kernel-export": {
            "schema_version": 1, "seed": 16, "potential": harmonic,
            "u_values": [-0.5, -1.0], "k2_values": [0.3], "k3_values": [0.0],
            "m": 1.0, "s_values": [0.0, 1.1], "s_tilde_values": [-0.7, 0.4],
            "tolerance": 1e-12,
        },
        "sidebands": sidebands_config(),
        "wavefront-probe": {
            "schema_version": 1, "seed": 18, "potential": harmonic,
            "k2": 0.3, "k3": 0.0, "u": -0.5, "m": 1.0,
            "window": {"kind": "gaussian", "center": 0.0, "width": 0.155},
            "v_fit": [5.0, 50.0, 12], "order_min": 6.0,
            "plancherel": {"v_max": 60.0, "dv": 0.2, "tolerance": 1e-6},
        },
    }


def _csv_bytes(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


@pytest.mark.parametrize("scenario", sorted(small_configs()))
def test_scenario_passes_and_is_deterministic(tmp_path, scenario):
    cfg = small_configs()[scenario]
    cfg["scenario"] = scenario
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out1 = tmp_path / "run1"
    out8 = tmp_path / "run8"
    code1 = cli.main([scenario, "--config", cfg_path, "--out", str(out1),
                      "--workers", "1"])
    code8 = cli.main([scenario, "--config", cfg_path, "--out", str(out8),
                      "--workers", "8"])
    assert code1 == cli.EXIT_PASS
    assert code8 == cli.EXIT_PASS
    bytes1 = _csv_bytes(out1)
    bytes8 = _csv_bytes(out8)
    assert bytes1.keys() == bytes8.keys() and len(bytes1) >= 1
    for name in bytes1:
        assert bytes1[name] == bytes8[name], f"{scenario}:{name} differs across workers"


def test_summaries_name_the_identity_under_test(tmp_path):
    for scenario, (_, identity) in cli._SCENARIOS.items():
        assert identity.strip()


def test_mass_oscillation_with_disjoint_null(tmp_path):
    cfg = small_configs()["mass-oscillation"]
    cfg.update({
        "scenario": "mass-oscillation",
        "n_masses": 21,
        "tolerance": 1e-2,
        "disjoint_null_check": True,
        "null_tolerance": 1e-3,
        "disjoint_support_low": [0.8, 0.88],
        "disjoint_support_high": [1.12, 1.2],
    })
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["mass-oscillation", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_PASS
    summary = json.loads((out / "summary.json").read_text())
    names = {c["name"] for c in summary["checks"]}
    assert {"relative_gap", "null_lhs_over_diagonal", "null_rhs_over_diagonal"} <= names


DISJOINT_NULL = {"null_tolerance": 1e-3, "disjoint_support_low": [0.8, 0.88],
                 "disjoint_support_high": [1.12, 1.2]}


@pytest.mark.parametrize("override", [
    {"n_masses": 1},
    {"epsilons": [0.1, 0.1, 0.05]},
    {"epsilons": []},
    {"epsilons": [0.1, 0.0]},
    {"epsilons": [0.1, -0.05]},
    {"mass_interval": [1.2, 0.8]},
    {"disjoint_null_check": True, "null_tolerance": 1e-3,
     "disjoint_support_low": [0.8], "disjoint_support_high": [1.12, 1.2]},
    {"disjoint_null_chek": True, **DISJOINT_NULL},
    {"disjoint_null_check": "no", **DISJOINT_NULL},
    {"disjoint_null_check": True},
    {"epsilons": [1e-300, 2e-300]},
    {"disjoint_null_check": True, **DISJOINT_NULL, "disjoint_support_low": [0.7, 0.9]},
], ids=["one-mass", "repeated-epsilon", "no-epsilons", "zero-epsilon",
        "negative-epsilon", "reversed-interval", "one-number-disjoint-support",
        "misspelled-null-check", "text-null-check", "null-check-without-supports",
        "vanishing-epsilons", "disjoint-support-past-interval"])
def test_bad_mass_oscillation_config_is_config_error(tmp_path, capsys, override):
    cfg = small_configs()["mass-oscillation"]
    cfg.update(override)
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["mass-oscillation", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_subnormal_epsilon_is_config_error_without_warning(tmp_path, capsys):
    cfg = small_configs()["mass-oscillation"]
    cfg["epsilons"] = [5e-324, 1e-300]
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["mass-oscillation", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("scenario, key", [
    ("dirac-residual", "n_modes"),
    ("null-product-invariance", "n_packets"),
    ("null-product-invariance", "nodes_per_packet"),
    ("mass-pairing", "n_draws"),
])
def test_zero_draws_is_config_error(tmp_path, scenario, key):
    cfg = small_configs()[scenario]
    cfg[key] = 0
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    code = cli.main([scenario, "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("scenario, override", [
    ("decay-scan", {"k2": float("nan")}),
    ("decay-scan", {"m": 0.0}),
    ("decay-scan", {"u_grid": [-2.0, -0.2, 2.5]}),
    ("decay-scan", {"u_grid": [-2.0, -0.2, "x"]}),
    ("decay-scan", {"l_range": [0.0, 10.0]}),
    ("decay-scan", {"l_range": [5.0]}),
    ("decay-scan", {"n_l": 7}),
    ("decay-scan", {"weight": {"center": -1.1, "sigma": 0.0}}),
    ("fp-kernel-export", {"m": 0.0}),
    ("fp-kernel-export", {"k2_values": [float("nan")]}),
    ("fp-kernel-export", {"s_tilde_values": ["a"]}),
    ("fp-kernel-export", {"s_values": [10 ** 400]}),
    ("null-product-invariance", {"s_values": [float("nan")]}),
    ("fp-kernel-export", {"tolerance": 10 ** 400}),
    ("dirac-residual", {"seed": -1}),
    ("mass-pairing", {"seed": -1}),
    ("null-product-invariance", {"seed": -1}),
    ("decay-scan", {"seed": -1}),
    ("mass-oscillation", {"seed": -1}),
    ("decay-scan", {"weight": {"center": -1.1, "sigma": 0.04, "sigmaa": 0.04}}),
    ("dirac-residual", {"potential": {"kind": "harmonic", "amplitude": 0.2,
                                      "frequency": 1.0, "width": 3.0}}),
    ("mass-pairing", {"potential": {"kind": "harmonic", "amplitude": "0.2",
                                    "frequency": 1.0}}),
    ("null-product-invariance", {"potential": {"kind": "harmonic", "amplitude": True,
                                               "frequency": 1.0}}),
    ("fp-kernel-export", {"schema_version": True}),
], ids=["decay-nan-k2", "decay-zero-m", "decay-fractional-u-count", "decay-text-u-count",
        "decay-zero-l", "decay-one-number-l-range", "decay-few-l", "decay-zero-sigma",
        "kernel-zero-m", "kernel-nan-k2", "kernel-text-s-tilde", "kernel-huge-s",
        "null-product-nan-s", "kernel-huge-tolerance", "dirac-negative-seed",
        "pairing-negative-seed", "null-product-negative-seed", "decay-negative-seed",
        "oscillation-negative-seed", "decay-unknown-weight-key", "dirac-stray-potential-width",
        "pairing-text-amplitude", "null-product-boolean-amplitude",
        "kernel-boolean-schema-version"])
def test_bad_grid_or_mode_is_config_error(tmp_path, capsys, scenario, override):
    cfg = small_configs()[scenario]
    cfg.update(override)
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main([scenario, "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("scenario", ["null-product-invariance", "mass-pairing"])
def test_nan_amplitude_is_config_error(tmp_path, scenario):
    cfg = small_configs()[scenario]
    cfg["potential"] = {"kind": "harmonic", "amplitude": float("nan"), "frequency": 1.0}
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    code = cli.main([scenario, "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_measurement_fails_with_strict_json_summary(tmp_path):
    # u this close to 0 overflows the kernel phase: every kernel entry is NaN
    cfg = small_configs()["fp-kernel-export"]
    cfg["u_values"] = [-1e-320]
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["fp-kernel-export", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_ASSERTION
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    checks = {c["name"]: c for c in summary["checks"]}
    assert checks["spin_adjoint_symmetry"]["measured"] is None
    assert checks["spin_adjoint_symmetry"]["passed"] is False
    assert summary["passed"] is False


def test_checks_fail_on_non_finite_measurements():
    for bad in (float("nan"), float("inf"), float("-inf")):
        assert not cli._leq("x", bad, 1.0).passed
        assert not cli._geq("x", bad, -1.0).passed
    assert np.isnan(cli._worst([1.0, float("nan"), 2.0]))
    assert cli._worst([]) == 0.0


@pytest.mark.parametrize("override", [
    {"v_fit": [5.0, 50.0]},
    {"v_fit": [5.0, 50.0, 4]},
    {"v_fit": [-5.0, 50.0, 25]},
    {"v_fit": [50.0, 5.0, 25]},
    {"v_fit": [5.0, 50.0, 12.5]},
    {"plancherel": {"v_max": 60.0, "dv": 0.0, "tolerance": 1e-6}},
    {"plancherel": {"v_max": 60.0, "dv": 80.0, "tolerance": 1e-6}},
    {"plancherel": {"v_max": -1.0, "dv": 0.2, "tolerance": 1e-6}},
    {"u": 0.0},
    {"window": {"kind": "boxcar"}},
    {"window": {"kind": "gaussian", "center": 0.0, "width": float("nan")}},
    {"window": {"kind": "hann", "lo": 1.0, "hi": -1.0}},
    {"asymmetry_report": {"u": 0.0}},
    {"k2": float("nan")},
    {"asymmetry_report": {"u": True}},
    {"asymmetry_report": [1]},
    {"plancherel": {"v_max": 60.0, "dv": 0.2, "tolerance": 1e-6, "dV": 0.2}},
    {"potential": {"kind": "pulse", "amplitude": 0.5, "frequency": 1.0}},
    {"potential": {"kind": "harmonic", "amplitude": 10 ** 400, "frequency": 1.0}},
    {"potential": {"kind": "tabulated", "s": [0.0, 1.0, 2.0, 3.0], "a2": ["0", 0, 0, 0]}},
    {"potential": {"kind": "tabulated", "s": [0.0, 1.0, 2.0, 3.0], "a2": [0] * 4, "a3": True}},
    {"potential": ["harmonic", 0.2, 1.0]},
    {"window": {"kind": "hann", "lo": -4.0, "hi": float("inf")}},
    {"window": {"kind": "gaussian", "center": 0.0, "width": 0.155, "lo": 1.0}},
], ids=["two-element-v-fit", "too-few-fit-points", "negative-v-fit", "reversed-v-fit",
        "fractional-fit-count", "zero-dv", "dv-above-v-max", "negative-v-max", "zero-u",
        "unknown-window", "nan-gaussian-width", "empty-hann-support", "zero-u-asymmetry",
        "nan-k2", "boolean-u-asymmetry", "list-asymmetry-report", "unknown-plancherel-key",
        "pulse-without-width", "huge-amplitude", "text-sample", "boolean-a3",
        "list-potential", "infinite-hann-end", "gaussian-with-hann-field"])
def test_bad_wavefront_probe_config_is_config_error(tmp_path, capsys, override):
    cfg = small_configs()["wavefront-probe"]
    cfg.update(override)
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code = cli.main(["wavefront-probe", "--config", cfg_path, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_wavefront_probe_summary_reports_its_quadrature(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", small_configs()["wavefront-probe"])
    out = tmp_path / "out"
    assert cli.main(["wavefront-probe", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_PASS
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["transform_error_estimate"] <= 1e-12
    assert set(summary["s_nodes"]) == {"fit", "plancherel"}
    assert all(n > 0 and n % 32 == 0 for n in summary["s_nodes"].values())
    header = (out / "wavefront_dense.csv").read_text().splitlines()[1]
    assert header == "v,re_F,im_F"


def _refuse_process(*args, **kwargs):
    raise AssertionError("a worker process was started")


@pytest.mark.parametrize("requested", [64, 2, 1])
def test_worker_count_starts_no_process(tmp_path, monkeypatch, requested):
    """--workers is validated but starts nothing: no pool, no child
    process, and the CSV bytes of the default single-worker run."""
    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", _refuse_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_process)
    monkeypatch.setattr(os, "fork", _refuse_process)
    monkeypatch.delenv("VOLKOV_FP_WORKERS", raising=False)
    cfg_path = write_config(tmp_path, "cfg.json", small_configs()["dirac-residual"])
    runs = {}
    for name, extra in (("default", []), ("requested", ["--workers", str(requested)])):
        assert cli.main(["dirac-residual", "--config", cfg_path,
                         "--out", str(tmp_path / name), *extra]) == cli.EXIT_PASS
        runs[name] = _csv_bytes(tmp_path / name)
    assert runs["requested"] == runs["default"] and runs["default"]


@pytest.mark.parametrize("argv_workers, env", [
    (["--workers", "0"], None),
    (["--workers", "-3"], None),
    ([], "two"),
    ([], "0"),
])
def test_bad_worker_count_is_config_error(tmp_path, monkeypatch, capsys, argv_workers, env):
    if env is None:
        monkeypatch.delenv("VOLKOV_FP_WORKERS", raising=False)
    else:
        monkeypatch.setenv("VOLKOV_FP_WORKERS", env)
    cfg_path = write_config(tmp_path, "cfg.json", small_configs()["dirac-residual"])
    code = cli.main(["dirac-residual", "--config", cfg_path, "--out", str(tmp_path / "o"),
                     *argv_workers])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


TOLERANCE_KEYS = {"tolerance", "amplitude_tolerance", "sum_sq_tolerance", "null_tolerance"}
ROOT = Path(__file__).resolve().parent.parent


def _paths(value, prefix=()):
    """Path to every value inside a config: object keys and list elements."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """A small config with one key dropped, misspelled or added, or one value
    retyped or overwritten.  No mutation enlarges a count or grid extent:
    numbers become NaN, +-Infinity, 0 or -1, and 1e308 goes only into
    tolerances, so every run stays small."""
    scenario = draw(st.sampled_from(sorted(small_configs())))
    cfg = small_configs()[scenario]
    *parents, last = draw(st.sampled_from(list(_paths(cfg))))
    holder = cfg
    for key in parents:
        holder = holder[key]
    value = holder[last]
    edits = ["text", True, None, [value], {"value": value}]
    if isinstance(last, str):
        edits += ["drop", "misspell", "add"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        edits += [float("nan"), float("inf"), float("-inf"), 0, -1]
        edits += [1e308] if last in TOLERANCE_KEYS else []
    edit = draw(st.sampled_from(edits))
    if edit == "drop":
        del holder[last]
    elif edit == "misspell":
        holder[last[:-1] + "_"] = holder.pop(last)
    elif edit == "add":
        holder["unexpected_key"] = 1.0
    else:
        holder[last] = str(value) if edit == "text" else edit
    return scenario, cfg


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_mutated_config_never_raises(case):
    """Any one-key mutation of a valid config ends in exit 0-3 without a
    traceback, and exit 1 only with the checks that ran in summary.json."""
    scenario, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_config(Path(tmp), "cfg.json", cfg)
        out = Path(tmp) / "out"
        code = cli.main([scenario, "--config", cfg_path, "--out", str(out)])
        assert code in (cli.EXIT_PASS, cli.EXIT_ASSERTION, cli.EXIT_CONFIG, cli.EXIT_DOMAIN)
        if code in (cli.EXIT_PASS, cli.EXIT_ASSERTION):
            summary = json.loads((out / "summary.json").read_text())
            assert summary["checks"] and summary["passed"] == (code == cli.EXIT_PASS)
        else:
            assert not (out / "summary.json").exists()


def _workload_configs():
    """(label, scenario, config) of every perfbench workload item that is a
    scenario config, at both sizes; perfbench/workloads.py is standard
    library only and is loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for item in workloads.generate(workload, seed=1, size=size):
                if item["kind"] == "scenario":
                    yield f"{workload}/{size}/{item['label']}", item["scenario"], item["config"]


def test_shipped_and_benchmark_configs_validate():
    """The schema accepts every shipped config and every benchmark workload
    config, so a stricter table cannot fail the benchmark's runs."""
    shipped = [(p.name, json.loads(p.read_text())) for p in sorted((ROOT / "configs").glob("*.json"))]
    cases = [(name, cfg["scenario"], cfg) for name, cfg in shipped] + list(_workload_configs())
    assert len(shipped) == len(cli.CONFIG_TABLES) == 8
    for label, scenario, cfg in cases:
        valid = cli.validate_config(scenario, cfg)
        assert valid["scenario"] == scenario, label


@pytest.mark.parametrize("key, value", [
    ("potential", ZeroPotential()),
    ("potential", HarmonicPotential(0.2, 1.0)),
    ("potential", PulsePotential(0.5, 1.0, 3.0)),
    ("potential", TabulatedPotential(np.linspace(-2.0, 2.0, 9), np.linspace(0.0, 0.8, 9),
                                     np.full(9, 0.1))),
    ("window", GaussianWindow(0.0, 0.155)),
    ("window", HannWindow(-4.0, 4.0)),
], ids=["zero", "harmonic", "pulse", "tabulated", "gaussian", "hann"])
def test_library_descriptors_are_config_descriptors(key, value):
    """The key tables accept what descriptor() writes and rebuild the same object."""
    cfg = small_configs()["wavefront-probe"]
    cfg[key] = value.descriptor()
    assert cli.validate_config("wavefront-probe", cfg)[key].descriptor() == value.descriptor()


# Run in a fresh interpreter: this process has already imported scipy.
_LAZY_SCIPY_PROBE = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from volkovfp import cli
with tempfile.TemporaryDirectory() as tmp:
    for path in sys.argv[2:]:
        cfg = json.loads(Path(path).read_text())
        cli.run_scenario(cfg["scenario"], cfg, Path(tmp) / Path(path).stem, 1)
print(json.dumps(sorted(sys.modules)))
"""


def test_runs_without_sidebands_import_no_scipy_submodule():
    """Only sidebands and pulse/tabulated profiles need scipy; every other
    shipped config runs through the CLI on numpy alone."""
    configs = [str(p) for p in sorted((ROOT / "configs").glob("*.json"))
               if p.name != "sidebands.json"]
    assert len(configs) == 7
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _LAZY_SCIPY_PROBE, src, *configs],
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "volkovfp.cli" in loaded
    heavy = ("scipy.special", "scipy.interpolate", "scipy.integrate")
    assert [m for m in loaded if m.startswith(heavy)] == []


def _fmt_cell(x) -> str:
    """Per-cell CSV formatting that _write_csv's row format must reproduce."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def test_csv_row_format_matches_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, 1e-310, 1e308, 0.1, float("nan"), float("inf"), float("-inf")]
    rows = [("case", i, np.int64(-i), bool(i % 2), x, np.float64(-x))
            for i, x in enumerate([*specials, *rng.normal(size=20) * 10.0 ** rng.integers(-9, 9, 20)])]
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["a", "b", "c", "d", "e", "f"], rows, "c")
    expected = ["# c", "a,b,c,d,e,f", *(",".join(map(_fmt_cell, row)) for row in rows)]
    assert path.read_text() == "\n".join(expected) + "\n"
    cli._write_csv(path, ["a"], [], "c")
    assert path.read_text() == "# c\na\n"


def test_batched_pi_minus_projection_matches_rows():
    raw = cli._random_spinors(np.random.default_rng(3), 50)
    batched = cli._pi_minus_rows(raw)
    for row, out in zip(raw, batched):
        assert np.array_equal(cli._pi_minus_rows(row[None, :])[0], out)
