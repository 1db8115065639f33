"""Outside-in span tracer for volkovfp.

The program is never edited.  `Tracer.install` replaces every public
function of the traced modules with a recording wrapper wherever a
volkovfp module bound it by name (so `modes.transverse_phase`, bound by
`from .potential import transverse_phase`, is wrapped as well as
`potential.transverse_phase`), plus the profile methods of the potential
classes and `WavePacket.__post_init__`.  `Tracer.restore` puts every
original back.

Spans (name, start, end, parent, run id, work) are kept in flat arrays
in memory and written once, when the run ends.  Work counts come from
call arguments only (array sizes, node counts); counts that live inside
a call are recovered from its child spans when the spans are summarised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from array import array

import numpy as np

PACKAGE = "volkovfp"
MODULES = ("potential", "modes", "projector", "spectral", "clifford", "cli")
PROFILE_CLASSES = ("ZeroPotential", "HarmonicPotential", "PulsePotential", "TabulatedPotential")
PROFILE_METHODS = ("a2", "a3", "da2", "da3")
PROFILE_KIND = {"ZeroPotential": "zero", "HarmonicPotential": "harmonic",
                "PulsePotential": "pulse", "TabulatedPotential": "tabulated"}
WRAPPED_FLAG = "__perfbench_wrapped__"


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    """Span store plus the patch table of one install/restore cycle."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.aux = array("q")
        self.current_run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, name, work=None):
        """Wrapper recording one span per call.

        `name` is a span name or a function of the call arguments that
        returns one; `work(args, kwargs)` returns the (work, aux) counts.
        """
        fixed_id = self._intern(name) if isinstance(name, str) else None
        stack, clock, end = self._stack, time.perf_counter, self.end
        put_name, put_parent, put_run = self.name_id.append, self.parent.append, self.run_id.append
        put_work, put_aux, put_end, put_start = (self.work.append, self.aux.append, end.append,
                                                 self.start.append)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else self._intern(name(args, kwargs))
            w, a = work(args, kwargs) if work is not None else (0, 0)
            idx = len(end)
            put_name(nid)
            put_parent(stack[-1] if stack else -1)
            put_run(self.current_run)
            put_work(w)
            put_aux(a)
            put_end(0.0)
            stack.append(idx)
            put_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        setattr(wrapper, WRAPPED_FLAG, True)
        return wrapper

    # -- install / restore ----------------------------------------------

    def _modules(self):
        return [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]

    def _special(self):
        """Names and work counters of the functions whose spans carry counts."""
        potential = importlib.import_module(f"{PACKAGE}.potential")
        projector = importlib.import_module(f"{PACKAGE}.projector")
        spectral = importlib.import_module(f"{PACKAGE}.spectral")
        modes = importlib.import_module(f"{PACKAGE}.modes")
        eps_default = inspect.signature(projector.mass_oscillation_check) \
            .parameters["epsilons"].default

        def phase_name(args, kwargs):
            pot = _arg(args, kwargs, 0, "pot")
            return "potential.transverse_phase." + PROFILE_KIND.get(type(pot).__name__, "other")

        def phase_work(args, kwargs):
            return _size(_arg(args, kwargs, 4, "s_to")), 0

        def mosc_work(args, kwargs):
            fam = _arg(args, kwargs, 0, "fam_psi")
            eps = _arg(args, kwargs, 3, "epsilons", eps_default)
            return fam.node_packet.n_nodes, len(eps) * fam.masses.shape[0] ** 2

        return {
            potential.transverse_phase: (phase_name, phase_work),
            projector.mass_oscillation_check: ("projector.mass_oscillation_check", mosc_work),
            spectral.windowed_phase_transform: (
                "spectral.windowed_phase_transform",
                lambda a, k: (_size(_arg(a, k, 3, "v_grid")), 0)),
            modes.packet_pi_minus: (
                "modes.packet_pi_minus",
                lambda a, k: (_arg(a, k, 0, "packet").n_nodes, 0)),
        }

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        originals = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[obj] = f"{short}.{name}"
        special = self._special()
        wrappers = {}
        for fn, qualname in originals.items():
            name, work = special.get(fn, (qualname, None))
            wrappers[fn] = self._wrap(fn, name, work)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])

        potential = importlib.import_module(f"{PACKAGE}.potential")
        for cls_name in PROFILE_CLASSES:
            cls = getattr(potential, cls_name)
            for meth in PROFILE_METHODS:
                if meth in vars(cls):
                    self._patch(cls, meth, self._wrap(vars(cls)[meth], "potential.profile_eval"))
        packet_cls = importlib.import_module(f"{PACKAGE}.modes").WavePacket
        self._patch(packet_cls, "__post_init__",
                    self._wrap(vars(packet_cls)["__post_init__"], "modes.WavePacket.validate"))

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def leftovers(self) -> list[str]:
        """Names still bound to a wrapper anywhere in the traced surface."""
        found = []
        potential = importlib.import_module(f"{PACKAGE}.potential")
        owners = list(self._modules())
        owners += [getattr(potential, c) for c in PROFILE_CLASSES]
        owners.append(importlib.import_module(f"{PACKAGE}.modes").WavePacket)
        for owner in owners:
            for name, obj in vars(owner).items():
                if getattr(obj, WRAPPED_FLAG, False):
                    found.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return found

    # -- output ---------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def span_arrays(self, first: int = 0, last: int | None = None) -> dict:
        """Copies of spans [first, last); parents re-based to `first`."""
        last = len(self.start) if last is None else last

        def cut(arr, dtype):
            return np.array(arr[first:last], dtype=dtype)

        return {
            "name_id": cut(self.name_id, np.int32),
            "parent": cut(self.parent, np.int32) - first,
            "run_id": cut(self.run_id, np.int32),
            "start": cut(self.start, np.float64),
            "end": cut(self.end, np.float64),
            "work": cut(self.work, np.int64),
            "aux": cut(self.aux, np.int64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.span_arrays())


# ---------------------------------------------------------------------------
# per-layer summary


LAYER_FUNCS = {
    "spectral": ("spectrum_fft", "harmonic_sidebands_analytic", "tail_decay_orders",
                 "decay_order_fit"),
    "modes": ("dirac_residual", "mode_wavefunction", "null_scalar_product",
              "mass_pairing_identity", "null_decay_scan"),
    "projector": ("fp_kernel_momentum", "causal_fundamental_momentum", "fp_scalar_a"),
    "clifford": ("transverse_slash",),
}
PHASE_KINDS = ("harmonic", "pulse", "tabulated")


def summarise(names: list[str], spans: dict) -> dict:
    """Per-layer metrics of one traced pass: {metric: (value, unit)}.

    Span parents are indices into the same arrays, with -1 for roots.
    A span's self time is its duration minus that of its direct children.
    Phase points under a span are the `work` of its direct
    transverse_phase children (the s grid it asked a phase for).
    """
    nid = spans["name_id"]
    parent = spans["parent"]
    work = spans["work"].astype(float)
    aux = spans["aux"].astype(float)
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=len(dur))
    phase_ids = [i for i, n in enumerate(names) if n.startswith("potential.transverse_phase.")]
    is_phase = np.isin(nid, phase_ids)
    child_points = np.bincount(parent[is_phase & has_parent],
                               weights=work[is_phase & has_parent], minlength=len(dur))
    ids = {name: i for i, name in enumerate(names)}

    def by_name(values):
        totals = np.bincount(nid, weights=values, minlength=len(names))
        return lambda name: float(totals[ids[name]]) if name in ids else 0.0

    calls = by_name(np.ones_like(dur))
    total = by_name(dur)
    self_s = by_name(self_time)
    work_of = by_name(work)
    points_under = by_name(child_points)
    aux_points = by_name(aux * child_points)
    work_points = by_name(work * child_points)

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def timed(name):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.self_s", self_s(name), "s")

    for kind in PHASE_KINDS:
        base = f"potential.transverse_phase.{kind}"
        timed(base)
        put(f"{base}.points", work_of(base), "count")
        put(f"{base}.total_s", total(base), "s")  # with the profile calls under it
    prof = "potential.profile_eval"
    timed(prof)
    prof_in_phase = np.count_nonzero((nid == ids.get(prof, -1)) & np.isin(parent_nid, phase_ids))
    phase_points = float(work[is_phase].sum())
    put(f"{prof}.per_phase_point", prof_in_phase / phase_points if phase_points else 0.0,
        "calls/point")

    mosc = "projector.mass_oscillation_check"
    timed(mosc)
    put(f"{mosc}.nodes", work_of(mosc), "count")
    put(f"{mosc}.s_points", points_under(mosc), "count")
    put(f"{mosc}.contraction_elems", aux_points(mosc), "count")  # n_eps n_m^2 n_s

    wpt = "spectral.windowed_phase_transform"
    timed(wpt)
    put(f"{wpt}.v_points", work_of(wpt), "count")
    put(f"{wpt}.s_nodes", points_under(wpt), "count")
    put(f"{wpt}.kernel_elems", work_points(wpt), "count")  # v x s per call
    put(f"{wpt}.kernel_bytes", 16.0 * work_points(wpt), "B")  # complex128

    pair = "projector.fp_pair_smeared"
    timed(pair)
    put(f"{pair}.s_nodes", points_under(pair), "count")

    for layer, funcs in LAYER_FUNCS.items():
        for fn in funcs:
            timed(f"{layer}.{fn}")
    ppm = "modes.packet_pi_minus"
    timed(ppm)
    put(f"{ppm}.nodes", work_of(ppm), "count")
    timed("modes.WavePacket.validate")
    timed("cli.run_scenario")

    for layer in MODULES:
        put(f"layer.{layer}.self_s",
            sum(self_s(n) for n in names if n.startswith(layer + ".")), "s")
    put("trace.span_count", len(dur), "count")
    put("trace.self_sum_s", self_time.sum(), "s")
    return out
