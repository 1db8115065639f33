"""Seeded workload generator for the volkovfp benchmark.

A workload is a fixed list of items.  Most items are one `volkov-fp`
scenario config, run through `volkovfp.cli.run_scenario`; the
spectral-probe workload also makes one `projector.fp_pair_smeared` call.
Sizes and profile shapes are fixed per workload, so the cost of a pass
does not depend on the seed; the seed drives only the config `seed`
fields and the random spinors of the smeared-pairing profile.

This module is pure standard library: the generator process never
imports the program under test.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

WHY = {
    "mass-oscillation":
        "Shipped shape: 21 masses, 9x5x5 grid, 3 epsilons, disjoint null on. The "
        "projector einsum is ~95% of it and the phase is closed form, so it isolates projector.",
    "spectral-probe":
        "Gaussian and Hann wavefront-probe, sidebands, one fp_pair_smeared call: loads the "
        "spectral GL-panel transforms, where a panel rule that helps one window may cost the other.",
    "modes-closed-form":
        "Five per-mode scenarios on a harmonic profile: thousands of small calls load the "
        "Python self time of modes, projector, clifford and cli; every phase is closed form.",
    "modes-quadrature":
        "Same five scenarios on pulse and tabulated profiles: adaptive quad in potential is over "
        "90%. A phase change shows here and holds modes-closed-form flat; a modes change the reverse.",
}

WORKLOADS = tuple(WHY)
SIZES = ("full", "smoke")

# Checks each scenario reports (cli.py); a scenario that raises fails all of them.
EXPECTED_CHECKS = {
    "dirac-residual": 1,
    "null-product-invariance": 1,
    "mass-pairing": 1,
    "mass-oscillation": 3,  # with the disjoint-null check on
    "decay-scan": 2,
    "fp-kernel-export": 3,
    "sidebands": 4,
    "wavefront-probe": 2,
    "fp-pair-smeared": 1,
}

HARMONIC = {"kind": "harmonic", "amplitude": 0.2, "frequency": 1.0}
PULSE = {"kind": "pulse", "amplitude": 0.5, "frequency": 1.0, "width": 3.0}
# Tabulated profile sampled from PULSE; the range covers every s the
# scenarios query (dirac draws |s| <= 3, mass-pairing draws |s| <= 5).
TAB_RANGE = (-12.0, 12.0)
TAB_SAMPLES = 241


def _pulse_a2(s: float) -> float:
    amp, freq, width = PULSE["amplitude"], PULSE["frequency"], PULSE["width"]
    return amp * math.exp(-s * s / (2.0 * width * width)) * math.cos(freq * s)


def _tabulated_pulse() -> dict:
    lo, hi = TAB_RANGE
    step = (hi - lo) / (TAB_SAMPLES - 1)
    s = [lo + i * step for i in range(TAB_SAMPLES)]
    return {"kind": "tabulated", "s": s, "a2": [_pulse_a2(x) for x in s]}


# ---------------------------------------------------------------------------
# scenario configs; `smoke` picks the tiny instance used by the self-tests


def _mass_oscillation(smoke: bool) -> dict:
    return {
        "scenario": "mass-oscillation",
        "potential": HARMONIC,
        "mass_interval": [0.8, 1.2],
        "n_masses": 21,
        "u_grid": [-0.1, -0.05, 3 if smoke else 9],
        "k2_grid": [-0.4, 0.4, 2 if smoke else 5],
        "k3_grid": [-0.4, 0.4, 2 if smoke else 5],
        "epsilons": [0.1, 0.05, 0.025],
        "tolerance": 1e-2,
        "disjoint_null_check": True,
        "null_tolerance": 1e-3,
        "disjoint_support_low": [0.8, 0.88],
        "disjoint_support_high": [1.12, 1.2],
    }


def _wavefront_gaussian(smoke: bool) -> dict:
    return {
        "scenario": "wavefront-probe",
        "potential": HARMONIC,
        "k2": 0.3, "k3": 0.0, "u": -0.5, "m": 1.0,
        "window": {"kind": "gaussian", "center": 0.0, "width": 0.155},
        "v_fit": [5.0, 50.0, 25],
        "order_min": 6.0,
        "plancherel": {"v_max": 60.0, "dv": 0.5 if smoke else 0.05, "tolerance": 1e-6},
        "asymmetry_report": {
            "k2": 1.0, "u": -0.1,
            "potential": {"kind": "harmonic", "amplitude": 1.5, "frequency": 1.0},
            "window": {"kind": "gaussian", "center": 0.0, "width": 0.5},
        },
    }


def _wavefront_hann(smoke: bool) -> dict:
    # A Hann window has a jump in its second derivative, so |F(v)| falls
    # like v^-3: order_min 2 separates that from a kink's v^-2 tail.  The
    # v grid is dense enough for the trapezoid Plancherel sum to be exact
    # (dv below 2 pi / 16, the inverse autocorrelation support).
    return {
        "scenario": "wavefront-probe",
        "potential": HARMONIC,
        "k2": 0.3, "k3": 0.0, "u": -0.5, "m": 1.0,
        "window": {"kind": "hann", "lo": -4.0, "hi": 4.0},
        "v_fit": [5.0, 50.0, 25],
        "order_min": 2.0,
        "plancherel": {"v_max": 80.0, "dv": 0.2 if smoke else 0.02, "tolerance": 1e-6},
    }


SIDEBANDS = {
    "scenario": "sidebands",
    "amplitude": 0.2, "frequency": 1.0,
    "k2": 0.3, "k3": 0.0, "u": -0.5, "m": 1.0,
    "n_max": 12, "n_compare": 3,
    "periods": 200, "samples_per_period": 64,
    "amplitude_tolerance": 1e-4, "sum_sq_tolerance": 1e-10,
}


def _modes_five(pot: dict, sizes: dict) -> list[dict]:
    """dirac-residual, null-product-invariance, mass-pairing, decay-scan,
    fp-kernel-export on one profile, with the given size knobs."""
    def axis(lo, hi, n):
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)] if n > 1 else [lo]

    return [
        {"scenario": "dirac-residual", "potential": pot,
         "n_modes": sizes["n_modes"], "tolerance": 1e-10 if pot["kind"] == "harmonic" else 1e-8},
        {"scenario": "null-product-invariance", "potential": pot,
         "n_packets": sizes["n_packets"], "nodes_per_packet": sizes["nodes_per_packet"],
         "s_values": axis(*sizes["product_s"]),
         "tolerance": 1e-10},
        {"scenario": "mass-pairing", "potential": pot,
         "n_draws": sizes["n_draws"], "tolerance": 1e-10},
        {"scenario": "decay-scan", "potential": pot,
         "u_grid": [-1.4, -0.8, sizes["n_u"]],
         "weight": {"center": -1.1, "sigma": 0.06},
         "k2": 0.3, "k3": 0.0, "m": 1.0,
         "l_range": [20.0, 200.0], "n_l": 40,
         "s_values": axis(*sizes["scan_s"]),
         "order_min": 4.0},
        {"scenario": "fp-kernel-export", "potential": pot,
         "u_values": axis(-2.0, -0.25, sizes["n_ku"]),
         "k2_values": axis(-0.3, 0.3, sizes["n_kk"]),
         "k3_values": axis(0.0, 0.2, sizes["n_kk"]),
         "m": 1.0,
         "s_values": axis(-2.0, 1.3, sizes["n_ks"]),
         "s_tilde_values": axis(-0.7, 2.1, sizes["n_ks"]),
         "tolerance": 1e-12},
    ]


# Size knobs per profile.  (lo, hi, n) triples are s axes; a tabulated
# phase costs 10-150 ms per point, growing with |s|, so its axes are short.
CLOSED_FORM_SIZES = {
    "full": dict(n_modes=4000, n_packets=150, nodes_per_packet=10, product_s=(-10.0, 10.0, 9),
                 n_draws=1500, n_u=600, scan_s=(-2.0, 2.0, 9), n_ku=6, n_kk=4, n_ks=5),
    "smoke": dict(n_modes=40, n_packets=3, nodes_per_packet=4, product_s=(-10.0, 10.0, 3),
                  n_draws=20, n_u=40, scan_s=(-2.0, 2.0, 2), n_ku=1, n_kk=1, n_ks=2),
}
PULSE_SIZES = {
    "full": dict(n_modes=800, n_packets=24, nodes_per_packet=6, product_s=(-10.0, 10.0, 5),
                 n_draws=480, n_u=40, scan_s=(-2.0, 2.0, 5), n_ku=3, n_kk=3, n_ks=3),
    "smoke": dict(n_modes=4, n_packets=1, nodes_per_packet=2, product_s=(-10.0, 10.0, 2),
                  n_draws=3, n_u=40, scan_s=(-2.0, 2.0, 2), n_ku=1, n_kk=1, n_ks=2),
}
TABULATED_SIZES = {
    "full": dict(n_modes=6, n_packets=1, nodes_per_packet=3, product_s=(-2.0, 2.0, 3),
                 n_draws=4, n_u=40, scan_s=(-0.5, 0.5, 2), n_ku=1, n_kk=1, n_ks=2),
    "smoke": dict(n_modes=1, n_packets=1, nodes_per_packet=2, product_s=(-1.0, 1.0, 2),
                  n_draws=1, n_u=40, scan_s=(-0.25, 0.25, 2), n_ku=1, n_kk=1, n_ks=2),
}


def _pair_spec(rng: random.Random, smoke: bool) -> dict:
    """Small u < 0 grid for one projector.fp_pair_smeared self-pairing."""
    u = [-0.5, -0.8] if smoke else [-0.5, -0.8, -1.2]
    n = len(u)
    return {
        "m": 1.0,
        "u": u,
        "k2": [0.3 - 0.2 * i for i in range(n)],
        "k3": [0.1 * i for i in range(n)],
        "quad_weights": [1.0 / n] * n,
        "spinors_re": [[rng.gauss(0.0, 1.0) for _ in range(4)] for _ in range(n)],
        "spinors_im": [[rng.gauss(0.0, 1.0) for _ in range(4)] for _ in range(n)],
        "envelopes": [{"center": 0.2, "width": 1.3}] * n,
        "s_support": [-14.0, 14.0],
        "potential": HARMONIC,
        "tolerance": 1e-12,
    }


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    """Items of one workload: dicts with label, kind, scenario, config."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    smoke = size == "smoke"
    rng = random.Random(seed)
    items = []

    def add(label, cfg):
        cfg = copy.deepcopy(cfg)
        cfg["schema_version"] = 1
        if cfg["scenario"] != "sidebands":  # sidebands has no random draws
            cfg["seed"] = rng.randrange(2 ** 31)
        items.append({"label": label, "kind": "scenario", "scenario": cfg["scenario"],
                      "config": cfg})

    if workload == "mass-oscillation":
        add("mass-oscillation", _mass_oscillation(smoke))
    elif workload == "spectral-probe":
        add("wavefront-probe-gaussian", _wavefront_gaussian(smoke))
        add("wavefront-probe-hann", _wavefront_hann(smoke))
        add("sidebands", SIDEBANDS)
        items.append({"label": "fp-pair-smeared", "kind": "pair", "scenario": "fp-pair-smeared",
                      "config": _pair_spec(rng, smoke)})
    elif workload == "modes-closed-form":
        for cfg in _modes_five(HARMONIC, CLOSED_FORM_SIZES[size]):
            add(f"{cfg['scenario']}-harmonic", cfg)
    else:
        for kind, pot, sizes in (("pulse", PULSE, PULSE_SIZES),
                                 ("tabulated", _tabulated_pulse(), TABULATED_SIZES)):
            for cfg in _modes_five(pot, sizes[size]):
                add(f"{cfg['scenario']}-{kind}", cfg)
    for item in items:
        item["expected_checks"] = EXPECTED_CHECKS[item["scenario"]]
    return items


def write_plan(items: list[dict], directory: Path) -> Path:
    """Write one JSON config per item plus plan.json naming them; the
    program under test sees only these files."""
    directory.mkdir(parents=True, exist_ok=True)
    plan = []
    for item in items:
        path = directory / f"{item['label']}.json"
        path.write_text(json.dumps(item["config"], indent=1, sort_keys=True) + "\n")
        plan.append({k: item[k] for k in ("label", "kind", "scenario", "expected_checks")}
                    | {"config": path.name})
    plan_path = directory / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1) + "\n")
    return plan_path
