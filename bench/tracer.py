"""Outside-in tracer for the benchmark's traced runs.

``tot`` modules bind each other's functions with ``from .grid import
deriv_values`` and similar imports, so wrapping a function in its home
module alone would miss most calls.  ``install`` therefore replaces every
binding of each traced function: in its home module (calls made inside
it, such as the fallback ``solve_linearized`` inside the small-t solver),
in every caller module (``continuation._solve_with_coefficients``) and in
the package namespace.  Methods are wrapped on their class, and numpy's
``fft``, ``ifft``, ``rfft2`` and ``irfft2`` on ``numpy.fft``, which is how
``tot`` calls them (numpy's own internal calls are not counted).

Each span records its name, start, end, parent span, instance id, a
failure flag and one integer value (iterations, accepted steps, bytes
written or transform points).  Spans stay in flat in-memory arrays until
the run ends; ``layer_metrics`` derives every per-layer metric from them.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

# (module, attribute): functions and methods of tot wrapped in a traced run
TARGETS = (
    ("grid", "deriv_values"),
    ("grid", "antideriv_values"),
    ("trig", "TrigPoly1D.__call__"),
    ("trig", "TrigPoly1D.antiderivative"),
    ("trig", "TrigPoly2D.__call__"),
    ("densities", "make_density_pair"),
    ("transport1d", "monotone_circle_map"),
    ("transport1d", "invert_lifted_cdf"),
    ("knothe", "knothe_solution"),
    ("knothe", "fiber_pushforward_error"),
    ("knothe", "l2_map_distance"),
    ("monge_ampere", "residual_state"),
    ("monge_ampere", "split_residual_values"),
    ("monge_ampere", "check_admissible"),
    ("monge_ampere", "pushforward_residual"),
    ("monge_ampere", "transport_map"),
    ("linearized", "_Kernels.grad"),
    ("linearized", "_solve_with_coefficients"),
    ("linearized", "solve_linearized"),
    ("linearized", "solve_linearized_small_t"),
    ("linearized", "solve_linearized_t0"),
    ("linearized", "split_coefficients"),
    ("continuation", "run"),
    ("continuation", "init_from_knothe"),
    ("continuation", "newton_correct"),
    ("continuation", "newton_correct_split"),
    ("continuation", "velocity"),
    ("continuation", "_velocity_split"),
    ("fieldio", "write_field_csv"),
    ("fieldio", "write_field_binary"),
    ("config", "load_config"),
    ("cli", "main"),
)
FFT_FUNCTIONS = ("fft", "ifft", "rfft2", "irfft2")
LAYERS = ("trig", "grid", "fft", "densities", "transport1d", "knothe",
          "monge_ampere", "linearized", "continuation", "fieldio", "config",
          "cli")


def _iterations(args, kwargs, result):
    return result.iterations


def _failed_iterations(exc):
    return getattr(exc, "iterations", None) or 0


def _pcg_iterations(args, kwargs, result):
    return result[1]


def _accepted_steps(args, kwargs, result):
    return len(result.records) - 1       # the first record is the t0 state


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[1])


def _fft_points(args, kwargs, result):
    # length of the real-space side of the transform
    return max(np.size(args[0]), result.size)


VALUES = {
    "linearized._solve_with_coefficients": _pcg_iterations,
    "continuation.newton_correct": _iterations,
    "continuation.newton_correct_split": _iterations,
    "continuation.run": _accepted_steps,
    "fieldio.write_field_csv": _bytes_written,
    "fieldio.write_field_binary": _bytes_written,
}
FAILURE_VALUES = {
    "continuation.newton_correct": _failed_iterations,
    "continuation.newton_correct_split": _failed_iterations,
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.value = array("q")
        self.failed = array("b")
        self._stack = [-1]
        self.current_instance = -1
        self._undo = []

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name, fn, value_of=None, failure_value_of=None):
        nid = self.name_id(name)
        clock = time.perf_counter
        start, end, names, parent = self.start, self.end, self.name, self.parent
        instance, value, failed, stack = (self.instance, self.value,
                                          self.failed, self._stack)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parent.append(stack[-1])
            instance.append(tracer.current_instance)
            value.append(0)
            failed.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                stack.pop()
                failed[sid] = 1
                if failure_value_of is not None:
                    value[sid] = failure_value_of(exc)
                raise
            end[sid] = clock()
            stack.pop()
            if value_of is not None:
                value[sid] = value_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, tot):
        """Wrap every binding of the targets in tot's modules and numpy.fft."""
        modules = [tot] + [getattr(tot, m) for m in LAYERS if m != "fft"]
        replacements = {}
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            home = getattr(tot, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            replacements[id(original)] = (original, self.wrap(
                name, original, VALUES.get(name), FAILURE_VALUES.get(name)))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, obj))
        for attr in FFT_FUNCTIONS:
            original = getattr(np.fft, attr)
            setattr(np.fft, attr, self.wrap(f"fft.{attr}", original, _fft_points))
            self._undo.append((np.fft, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self):
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "instance": np.frombuffer(self.instance, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer, n_instances):
    """Per-layer metrics from the recorded spans, per traced instance.

    ``.s`` is inclusive wall time, ``<layer>.self_s`` the layer's self
    time: its spans' durations minus the time their child spans cover.
    """
    a = tracer.arrays()
    names = tracer.names
    dur = a["end"] - a["start"]
    parent = a["parent"]
    nid = a["name"]
    value = a["value"]
    failed = a["failed"].astype(bool)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    own = dur - child
    parent_name = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

    def mask(name):
        return nid == tracer.ids.get(name, -2)

    def under(name, parent_of):
        return mask(name) & (parent_name == tracer.ids.get(parent_of, -2))

    per = float(max(n_instances, 1))
    out = {}

    def put(key, val, unit, scale=True):
        out[key] = (float(val) / per if scale else float(val), unit)

    def calls_and_time(name):
        m = mask(name)
        put(f"{name}.calls", m.sum(), "count")
        put(f"{name}.s", dur[m].sum(), "s")
        return m

    fft = np.isin(nid, [tracer.ids.get(f"fft.{f}", -2) for f in FFT_FUNCTIONS])
    put("fft.calls", fft.sum(), "count")
    put("fft.s", dur[fft].sum(), "s")
    put("fft.points", value[fft].sum(), "count")
    calls_and_time("grid.deriv_values")
    calls_and_time("grid.antideriv_values")

    pcg = mask("linearized._solve_with_coefficients")
    put("linearized.pcg.solves", pcg.sum(), "count")
    put("linearized.pcg.iters", value[pcg].sum(), "count")
    put("linearized.pcg.s", dur[pcg].sum(), "s")
    put("linearized.operator_applies", mask("linearized._Kernels.grad").sum(),
        "count")
    calls_and_time("monge_ampere.residual_state")

    small = calls_and_time("linearized.solve_linearized_small_t")
    fallbacks = under("linearized.solve_linearized",
                      "linearized.solve_linearized_small_t").sum()
    put("linearized.small_t_fallbacks", fallbacks, "count")
    put("linearized.small_t_useful_frac",
        (small.sum() - fallbacks) / small.sum() if small.sum() else 0.0,
        "ratio", scale=False)
    calls_and_time("linearized.solve_linearized_t0")
    calls_and_time("linearized.split_coefficients")
    calls_and_time("monge_ampere.split_residual_values")
    calls_and_time("monge_ampere.check_admissible")
    for solver in ("continuation.newton_correct_split",
                   "continuation.newton_correct"):
        m = calls_and_time(solver)
        put(f"{solver}.iters", value[m].sum(), "count")
        put(f"{solver}.failures", (m & failed).sum(), "count")

    maps = calls_and_time("transport1d.monotone_circle_map")
    calls_and_time("transport1d.invert_lifted_cdf")
    in_maps = under("transport1d.invert_lifted_cdf",
                    "transport1d.monotone_circle_map").sum()
    put("transport1d.cdf_inversions_per_map",
        in_maps / maps.sum() if maps.sum() else 0.0, "ratio", scale=False)
    calls_and_time("trig.TrigPoly1D.__call__")
    calls_and_time("trig.TrigPoly1D.antiderivative")
    calls_and_time("trig.TrigPoly2D.__call__")
    for name in ("knothe.knothe_solution", "knothe.fiber_pushforward_error",
                 "densities.make_density_pair", "continuation.run",
                 "continuation.init_from_knothe", "config.load_config",
                 "cli.main"):
        put(f"{name}.s", dur[mask(name)].sum(), "s")
    calls_and_time("monge_ampere.pushforward_residual")
    calls_and_time("monge_ampere.transport_map")
    calls_and_time("knothe.l2_map_distance")

    # velocity evaluations: velocity() and _velocity_split() not nested in it
    vel = mask("continuation.velocity") | (
        mask("continuation._velocity_split")
        & ~under("continuation._velocity_split", "continuation.velocity"))
    put("continuation.velocity.calls", vel.sum(), "count")
    put("continuation.velocity.s", dur[vel].sum(), "s")

    run = mask("continuation.run")
    accepted = value[run].sum()
    put("continuation.accepted_steps", accepted, "count")
    # a step is rejected when its corrector or its predictor's velocity
    # raised inside run (init_from_knothe's halvings are not steps)
    rejected = ((under("continuation.newton_correct", "continuation.run")
                 | under("continuation.newton_correct_split", "continuation.run")
                 | under("continuation.velocity", "continuation.run")
                 | under("continuation._velocity_split", "continuation.run"))
                & failed).sum()
    put("continuation.rejected_steps", rejected, "count")
    # every residual evaluation after a Newton call's first is a trial point
    trials = (under("monge_ampere.residual_state", "continuation.newton_correct").sum()
              - mask("continuation.newton_correct").sum()
              + under("monge_ampere.check_admissible",
                      "continuation.newton_correct_split").sum()
              - mask("continuation.newton_correct_split").sum())
    put("continuation.linesearch_trials", trials, "count")
    cold = mask("continuation.newton_correct") & (
        parent_name != tracer.ids.get("continuation.run", -2))
    step_cost = 0.0
    if accepted and cold.sum():
        step_cost = (dur[run].sum() / accepted) / (dur[cold].sum() / cold.sum())
    put("continuation.step_cost_vs_cold", step_cost, "s/s", scale=False)

    for name in ("fieldio.write_field_csv", "fieldio.write_field_binary"):
        m = calls_and_time(name)
        put(f"{name}.bytes", value[m].sum(), "B")

    layer_of = np.array([n.split(".", 1)[0] for n in names] or [""])
    span_layer = layer_of[nid] if len(nid) else np.array([], dtype=str)
    for layer in LAYERS:
        put(f"{layer}.self_s", own[span_layer == layer].sum(), "s")
    return out
