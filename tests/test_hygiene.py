"""Source hygiene of the package: no import left unused, no private name left unread.

The checks read the syntax trees of ``src/rydgauge``; a deletion that
leaves an import, a ``_private`` helper or a field of a ``_Private``
dataclass behind fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rydgauge"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def _loaded(tree: ast.AST) -> set:
    """Every name read in ``tree``: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _imported(tree: ast.Module) -> set:
    """The names the module's imports bind, ``from __future__`` excepted."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _private_definitions(tree: ast.Module) -> set:
    """Module-level ``_private`` functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _private_dataclass_fields(tree: ast.Module) -> dict:
    """Annotated fields of each module-level ``_Private`` dataclass, by class name."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(target, ast.Name) and target.id == "dataclass"

    return {
        node.name: [field.target.id for field in node.body
                    if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)]
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name.startswith("_")
        and any(is_dataclass(d) for d in node.decorator_list)
    }


@pytest.mark.parametrize("name", [path.name for path in MODULES if path.name != "__init__.py"])
def test_every_import_is_used(name):
    tree = TREES[name]
    assert sorted(_imported(tree) - _loaded(tree)) == []


def test_every_private_definition_is_read():
    loaded = set().union(*(_loaded(tree) for tree in TREES.values()))
    unread = {name: sorted(_private_definitions(tree) - loaded) for name, tree in TREES.items()}
    assert {name: defs for name, defs in unread.items() if defs} == {}


def test_every_private_dataclass_field_is_read():
    attributes = {node.attr for tree in TREES.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = {(name, cls): fields for name, tree in TREES.items()
              for cls, fields in _private_dataclass_fields(tree).items()}
    assert set(fields) >= {("dynamics.py", "_Engine"), ("gauge.py", "_RadialSpectrum")}
    unread = {key: sorted(set(names) - attributes) for key, names in fields.items()}
    assert {key: names for key, names in unread.items() if names} == {}
