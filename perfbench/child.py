"""One workload run in a fresh process.

    python3 perfbench/child.py --plan <plan.json> --result <out.json>
        [--seconds S] [--trace 0|1] [--setup-only]

Set-up is importing volkovfp and loading the generated configs; the
result records the monotonic clock when set-up ends, so the parent can
time it from the moment it spawned this process.  With --setup-only the
process stops there.

Otherwise it runs passes over the plan's items (each item one
`cli.run_scenario` call or the `projector.fp_pair_smeared` call) until
--seconds are used, at least two passes.  With --trace 1 an untraced
warm-up pass is followed by traced and untraced passes in turn.  Each
pass records its wall and CPU time, each item its checks (read back from
summary.json) and a digest of the bytes it wrote.  All of it goes to
--result as JSON; gating and metrics are computed by the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_items(plan_path: Path):
    import numpy as np
    from volkovfp.potential import potential_from_descriptor
    from volkovfp.projector import SmearedProfile

    items = []
    for entry in json.loads(plan_path.read_text()):
        cfg = json.loads((plan_path.parent / entry["config"]).read_text())
        if entry["kind"] == "pair":
            envelopes = [
                (lambda s, c=env["center"], w=env["width"]:
                 np.exp(-np.square((np.asarray(s) - c) / w) / 2.0))
                for env in cfg["envelopes"]
            ]
            spinors = np.asarray(cfg["spinors_re"]) + 1j * np.asarray(cfg["spinors_im"])
            profile = SmearedProfile(cfg["m"], np.asarray(cfg["u"]), np.asarray(cfg["k2"]),
                                     np.asarray(cfg["k3"]), np.asarray(cfg["quad_weights"]),
                                     spinors, envelopes, tuple(cfg["s_support"]))
            cfg = {"profile": profile, "potential": potential_from_descriptor(cfg["potential"]),
                   "tolerance": cfg["tolerance"]}
        items.append(dict(entry, config=cfg))
    return items


def _run_item(item, outdir: Path):
    from volkovfp import cli, projector

    if item["kind"] == "pair":
        cfg = item["config"]
        return projector.fp_pair_smeared(cfg["profile"], cfg["profile"], cfg["potential"])
    return cli.run_scenario(item["scenario"], item["config"], outdir, 1)


def _digest(outdir: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), total


def _collect(item, value, outdir: Path) -> dict:
    """Checks and output digest of one item, read after the timed pass."""
    out = {"label": item["label"], "error": None, "checks": [], "digest": None, "bytes": 0}
    if isinstance(value, Exception):
        out["error"] = f"{type(value).__name__}: {value}"
        return out
    if item["kind"] == "pair":
        tol = item["config"]["tolerance"]
        ratio = abs(value.imag) / max(abs(value), 1e-300)
        # A self-pairing <phi | P phi> is real because P is spin-adjoint symmetric.
        out["checks"] = [{"name": "self_pairing_imag_ratio", "measured": ratio,
                          "tolerance": tol, "passed": ratio <= tol}]
        out["digest"] = hashlib.sha256(repr(value).encode()).hexdigest()
        return out
    # summary.json may hold bare NaN; json.loads accepts it.
    out["checks"] = json.loads((outdir / "summary.json").read_text())["checks"]
    out["digest"], out["bytes"] = _digest(outdir)
    return out


def _run_pass(items, outroot: Path, tracer, pass_index: int) -> dict:
    outdirs = [outroot / item["label"] for item in items]
    for d in outdirs:
        shutil.rmtree(d, ignore_errors=True)
    values, stamps = [], []
    c0 = _cpu_s()
    t0 = time.perf_counter()
    for i, (item, outdir) in enumerate(zip(items, outdirs)):
        if tracer is not None:
            tracer.current_run = 1000 * pass_index + i
        try:
            values.append(_run_item(item, outdir))
        except Exception as exc:  # a raising scenario fails its checks; keep going
            values.append(exc)
        stamps.append(time.perf_counter())
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - c0
    collected = [_collect(item, v, d) for item, v, d in zip(items, values, outdirs)]
    for entry, begin, end in zip(collected, [t0] + stamps, stamps):
        entry["wall_s"] = end - begin
    return {"wall_s": wall, "cpu_s": cpu, "traced": tracer is not None, "items": collected}


def _cpu_s() -> float:
    """CPU time of this process and its reaped children, microsecond resolution."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _library_record() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        pass
    import volkovfp

    return {
        "volkovfp": volkovfp.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": _threads(),
    }


def _traced_loop(items, outroot: Path, seconds: float, run_dir: Path) -> tuple[list, dict]:
    """After one untraced warm-up pass, alternate traced and untraced
    passes; summarise each traced pass."""
    from tracer import Tracer, summarise

    tracer = Tracer()
    passes, layer_runs, harness = [], [], []
    start = time.perf_counter()
    passes.append(_run_pass(items, outroot, None, 0))
    while True:
        first = tracer.span_count()
        tracer.install()
        try:
            traced = _run_pass(items, outroot, tracer, len(passes))
        finally:
            tracer.restore()
        passes.append(traced)
        layers = summarise(tracer.names, tracer.span_arrays(first))
        layers["cli.artifact_bytes"] = (float(sum(it["bytes"] for it in traced["items"])), "B")
        layers["trace.wall_s"] = (traced["wall_s"], "s")
        layer_runs.append(layers)
        harness.append({"name": "self_time_within_traced_wall",
                        "passed": layers["trace.self_sum_s"][0] <= traced["wall_s"],
                        "detail": [layers["trace.self_sum_s"][0], traced["wall_s"]]})

        wrapped = tracer.leftovers()
        recorded = tracer.span_count()
        passes.append(_run_pass(items, outroot, None, len(passes)))
        if tracer.span_count() != recorded:
            wrapped.append("spans recorded during an untraced pass")
        harness.append({"name": "tracer_restored_originals", "passed": not wrapped,
                        "detail": wrapped})
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["wall_s"] + passes[-2]["wall_s"] > seconds:
            break
    tracer.write(run_dir / "spans.npz")

    untraced = statistics.median(p["wall_s"] for p in passes[1:] if not p["traced"])
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    metrics = {}
    for name in layer_runs[0]:
        metrics[name] = (statistics.median(run[name][0] for run in layer_runs),
                         layer_runs[0][name][1])
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    return passes, {"layers": metrics, "harness_checks": harness}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import volkovfp.cli  # noqa: F401  (set-up: the whole package, as the CLI loads it)

    plan_path = Path(args.plan)
    items = _load_items(plan_path)
    ready = time.perf_counter()
    result = {"ready": ready}
    if not args.setup_only:
        run_dir = plan_path.parent.parent
        outroot = run_dir / "out"
        if args.trace:
            passes, traced = _traced_loop(items, outroot, args.seconds, run_dir)
            result.update(traced)
        else:
            passes = []
            start = time.perf_counter()
            while len(passes) < 2 or (time.perf_counter() - start + passes[-1]["wall_s"]
                                      <= args.seconds):
                passes.append(_run_pass(items, outroot, None, len(passes)))
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["libraries"] = _library_record()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
