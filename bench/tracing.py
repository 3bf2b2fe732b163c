"""Spans around the calls into each rydgauge layer, and the metrics they give.

The traced round wraps every public function of the layers below in every
rydgauge namespace that binds it: ``gauge``, ``analysis``, ``dynamics`` and
``validate`` import names such as ``labeled_spectrum`` and
``field_profile`` directly, so patching only the defining module would
miss their calls.  Spans (name, start, end, parent, points, extra) are
kept in memory and written out when the round ends; ``layer_metrics``
turns them into calls, points and self time per layer, where self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("spectrum", "gauge", "analysis", "dynamics", "tables", "validate", "regimes",
          "com_frame", "cli")

# Functions that take one separation (or one (u, w) point) per call.
_ONE_POINT = {
    "spectrum": ("bare_state_vector", "eigenvalues_analytic", "eigensystem"),
    "gauge": ("vector_potential", "magnetic_field", "scalar_potential", "gauge_sample",
              "berry_connection_fd", "scalar_potential_fd"),
}
_PROFILES = ("connection_profile", "field_profile", "scalar_profile")

# Called once per printed number (1e6 times per bulk scan): a span per call
# would cost more than the call, so its time stays in its caller's self time.
_UNTRACED = ("tables.format_float",)

# Per-layer metrics, with their units and better direction (BENCHMARK.json).
PER_LAYER = (
    ("spectrum.calls", "count", "lower"),
    ("spectrum.points", "count", "lower"),
    ("spectrum.self_s", "s", "lower"),
    ("spectrum.us_per_point", "us", "lower"),
    ("spectrum.deflated_points", "count", "lower"),
    ("gauge.calls", "count", "lower"),
    ("gauge.points", "count", "lower"),
    ("gauge.self_s", "s", "lower"),
    ("analysis.calls", "count", "lower"),
    ("analysis.field_evals", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("dynamics.spectrum_calls", "count", "lower"),
    ("dynamics.adiabaticity_calls", "count", "lower"),
    ("dynamics.adiabaticity_s", "s", "lower"),
    ("dynamics.self_s", "s", "lower"),
    ("tables.bytes", "bytes", "lower"),
    ("tables.self_s", "s", "lower"),
    ("validate.checks", "count", "higher"),
    ("validate.self_s", "s", "lower"),
    ("regimes.self_s", "s", "lower"),
    ("com_frame.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records one span per call into a wrapped rydgauge function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name_id, start, end, parent, points, extra]
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def install(self) -> None:
        """Wrap the layers' public functions in every loaded rydgauge module."""
        deflate_at = importlib.import_module("rydgauge.spectrum").DEFLATE_AT
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rydgauge.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and f"{layer}.{name}" not in _UNTRACED):
                    measure = _measure(layer, name, deflate_at)
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj, measure)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "rydgauge" or mod_name.startswith("rydgauge."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patched.append((module, attr, obj))
                        setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, measure):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points, extra = measure(args, kwargs) if measure else (0, 0)
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, points, extra]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "validate.run_checks":
                span[5] = len(result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _measure(layer: str, name: str, deflate_at: float):
    """Return a function (args, kwargs) -> (points, extra) for one wrapped function."""
    if layer == "spectrum" and name == "labeled_spectrum":
        def spectrum_points(args, kwargs):
            u = np.asarray(_arg(args, kwargs, 0, "shift_ratio"), dtype=float)
            w = np.asarray(_arg(args, kwargs, 1, "detuning_ratio"), dtype=float)
            u = np.broadcast_to(u, np.broadcast_shapes(u.shape, w.shape))
            return u.size, int(np.count_nonzero(np.abs(u) > deflate_at))
        return spectrum_points
    if layer == "gauge" and name in _PROFILES:
        return lambda args, kwargs: (np.size(_arg(args, kwargs, 0, "x_over_rc")), 0)
    if layer == "gauge" and name == "field_map":
        return lambda args, kwargs: (
            np.size(_arg(args, kwargs, 3, "x_grid")) * np.size(_arg(args, kwargs, 4, "z_grid")), 0)
    if name in _ONE_POINT.get(layer, ()):
        return lambda args, kwargs: (1, 0)
    if layer == "tables" and name == "write_text":
        return lambda args, kwargs: (0, len(_arg(args, kwargs, 1, "text").encode("utf-8")))
    return None


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics from a dumped trace.

    ``calls`` and ``points`` count the calls entering a layer from outside
    it; self time sums over all of the layer's spans; deflated points are
    counted on every ``labeled_spectrum`` call, nested ones included,
    since each one solves its points again.
    """
    names = doc["names"]
    spans = doc["spans"]
    layer_of = [name.split(".")[0] for name in names]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {f"{layer}.{key}": 0 for layer in LAYERS for key in ("calls", "points")}
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    out.update({"spectrum.deflated_points": 0, "analysis.field_evals": 0,
                "dynamics.spectrum_calls": 0, "dynamics.adiabaticity_calls": 0,
                "dynamics.adiabaticity_s": 0.0, "tables.bytes": 0, "validate.checks": 0})
    for i, (name_id, start, end, parent, points, extra) in enumerate(spans):
        layer = layer_of[name_id]
        name = names[name_id]
        parent_name = names[spans[parent][0]] if parent >= 0 else ""
        out[f"{layer}.self_s"] += (end - start) - child_time[i]
        if not parent_name.startswith(layer + "."):
            out[f"{layer}.calls"] += 1
            out[f"{layer}.points"] += points
            if layer == "spectrum" and parent_name == "dynamics.integrate":
                out["dynamics.spectrum_calls"] += 1
        if name == "spectrum.labeled_spectrum":
            out["spectrum.deflated_points"] += extra
        if name == "gauge.field_profile" and parent_name == "analysis.find_peak":
            out["analysis.field_evals"] += 1
        if name == "dynamics.adiabaticity":
            out["dynamics.adiabaticity_calls"] += 1
            out["dynamics.adiabaticity_s"] += end - start
        if name == "tables.write_text":
            out["tables.bytes"] += extra
        if name == "validate.run_checks":
            out["validate.checks"] += extra
    points = out["spectrum.points"]
    out["spectrum.us_per_point"] = out["spectrum.self_s"] / points * 1e6 if points else 0.0
    return out
