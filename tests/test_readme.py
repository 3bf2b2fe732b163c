"""README's `rydgauge` commands run, and print what README shows; its
Python API sketch gives the values its comments show; the API names its
prose quotes exist.

A ``sh`` block holds one command and, on the lines after it, its output;
a block with the command alone takes its output from a plain block right
after it.  A shown line stands for the real one, with ``...`` for any
text inside the line; a line of just ``...`` stands for the real lines
before the ones shown.  ``--output`` files go to a temporary directory.
"""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import rydgauge
from rydgauge.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```\n", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")  # inline code, which may wrap a line
_DOTTED = re.compile(r"\b(\w+)\.(\w+)")  # module.name, digits included (scan_1d)
_SKETCH = re.compile(r"^## Python API sketch\n\n```python\n(.*?)^```\n", re.M | re.S)
# a comment line up to its note's first letter: "array(" and exponents are the
# only letters of a shown value
_SHOWN = re.compile(r"(?:array\(|\d[eE][+-]?\d|[^A-Za-z])*")


def _examples():
    text = README.read_text(encoding="utf-8")
    blocks = list(_FENCE.finditer(text))
    examples = []
    for i, block in enumerate(blocks):
        lines = block.group(2).splitlines()
        if block.group(1) != "sh" or not lines[0].startswith("rydgauge "):
            continue
        shown = lines[1:]
        following = blocks[i + 1] if i + 1 < len(blocks) else None
        if not shown and following and following.group(1) == "" and \
                not text[block.end():following.start()].strip():
            shown = following.group(2).splitlines()
        examples.append(pytest.param(lines[0], shown, id=lines[0]))
    return examples


def _line_matches(shown: str, real: str) -> bool:
    pattern = ".*".join(re.escape(piece) for piece in shown.split("..."))
    return re.fullmatch(pattern, real) is not None


def test_readme_has_examples():
    commands = [param.values[0].split()[1] for param in _examples()]
    assert {"scan", "map", "peaks", "scaling", "trajectory", "validate", "presets"} <= set(commands)


@pytest.mark.parametrize("command, shown", _examples())
def test_readme_command(command, shown, tmp_path, capsys):
    argv = shlex.split(command)[1:]
    if "--output" in argv:
        at = argv.index("--output") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0
    real = capsys.readouterr().out.splitlines()
    if shown[:1] == ["..."]:
        shown = shown[1:]
        real = real[len(real) - len(shown):]
    assert len(real) >= len(shown)
    for shown_line, real_line in zip(shown, real):
        assert _line_matches(shown_line, real_line), (shown_line, real_line)


def test_readme_names_resolve():
    """Every backticked ``module.name`` of a rydgauge submodule in README's
    prose is an attribute of that module, so API prose cannot outlive a
    deletion."""
    submodules = {m.name for m in pkgutil.iter_modules(rydgauge.__path__)} - {"__main__"}
    prose = _FENCE.sub("", README.read_text(encoding="utf-8"))
    quoted = {match.groups() for span in _SPAN.findall(prose)
              for match in _DOTTED.finditer(span) if match.group(1) in submodules}
    assert len(quoted) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(quoted)
               if not hasattr(importlib.import_module(f"rydgauge.{module}"), name)]
    assert missing == []


def _shown_value(comments: list) -> str:
    """The value that comment lines show.  Each line is cut at its note's
    first letter, and what the note left before that letter after a gap of
    three or more spaces (the "(" of "(x, z)") goes too."""
    parts = [re.sub(r"\s{3,}\S*$", "", _SHOWN.match(line).group()) for line in comments]
    return " ".join(part.strip() for part in parts)


def test_readme_python_sketch_gives_the_values_it_shows():
    """Each expression of the sketch equals the value in the comment under
    it: an 8-decimal array to 5e-9, a tuple exactly, a float in all its
    digits."""
    source = _SKETCH.search(README.read_text(encoding="utf-8")).group(1)
    lines, namespace, kinds = source.splitlines(), {}, []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comments = []
        for line in lines[node.end_lineno:]:
            if not line.startswith("# "):
                break
            comments.append(line[2:])
        shown = _shown_value(comments)
        if shown.startswith("array("):
            expected = np.array(ast.literal_eval(shown[len("array"):]))
            assert value.shape == expected.shape and np.abs(value - expected).max() <= 5e-9, shown
            kinds.append("array")
        elif shown.startswith("("):
            assert value == ast.literal_eval(shown)
            kinds.append("tuple")
        else:
            assert repr(float(value)) == shown
            kinds.append("float")
    assert kinds == ["array"] * 4 + ["tuple", "float"]
