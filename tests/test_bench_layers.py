"""Every layer the benchmark's tracer wraps is an importable module.

``bench/tracing.py`` wraps the public functions of ``rydgauge.<layer>`` for
each name in its ``LAYERS``; a module deleted or renamed under it would
only break the benchmark's traced round.  ``LAYERS`` is read with ``ast``,
so this test imports nothing from ``bench``.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
