"""Every layer and function the benchmark's tracer names still exists.

``bench/tracing.py`` wraps the public functions of ``rydgauge.<layer>`` for
each name in its ``LAYERS``; a module deleted or renamed under it would
only break the benchmark's traced round.  Some per-layer metrics also
match single functions by their dotted name, and read their arguments by
position or keyword: a rename silently zeroes such a metric instead of
failing.  So this test pins those names and argument names.  ``LAYERS``
is read with ``ast`` and the matched names as text, so this test imports
nothing from ``bench``.  The benchmark's reference integrator also reads
each preset drive's ``wavevector_direction``, pinned here for the same
reason.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from rydgauge.model import PRESETS, get_preset

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# dotted names the tracer matches, with the leading arguments it reads
TRACED = {
    # ``tables.bytes`` is the length of ``text`` summed over calls.  Every byte
    # of table output passes this one-line wrapper, so it stays a function
    # instead of a bare ``out.write`` in the CLI.
    "tables.write_text": ("out", "text"),
    "dynamics.integrate": (),  # parent of ``dynamics.spectrum_calls``
    "dynamics.adiabaticity": (),  # ``dynamics.adiabaticity_calls`` and ``_s``
    # ``spectrum.points`` and ``spectrum.deflated_points``
    "spectrum.labeled_spectrum": ("shift_ratio", "detuning_ratio"),
    "validate.run_checks": (),  # ``validate.checks``, the length of its result
}


def _layers() -> tuple:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACING}")


def test_every_traced_layer_imports():
    layers = _layers()
    assert layers
    for layer in layers:
        importlib.import_module(f"rydgauge.{layer}")


@pytest.mark.parametrize("dotted, arguments", TRACED.items(), ids=list(TRACED))
def test_every_name_the_tracer_matches_exists(dotted, arguments):
    assert f'"{dotted}"' in TRACING.read_text(encoding="utf-8")
    layer, name = dotted.split(".")
    assert layer in _layers()
    module = importlib.import_module(f"rydgauge.{layer}")
    function = getattr(module, name)
    assert inspect.isfunction(function) and function.__module__ == module.__name__
    parameters = list(inspect.signature(function).parameters)
    assert parameters[: len(arguments)] == list(arguments)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_drive_has_the_beam_along_z(name):
    assert get_preset(name).drive.wavevector_direction == (0.0, 0.0, 1.0)
