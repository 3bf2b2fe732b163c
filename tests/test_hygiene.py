"""Source hygiene of the package: no import left unused, no private name left
unread, no public function without a caller, one oracle mechanism that
cannot read the closed forms, no random numbers.

The checks read the syntax trees of ``src/rydgauge``; a deletion that
leaves an import, a ``_private`` helper, a public function, a field of a
``_Private`` dataclass or a field of a ``model.py`` dataclass unread
fails here, and so does a finite-difference oracle, a diagonalization
outside ``dense`` (in the package or in the tests' reductions of it), an
import of ``dense`` beyond ``validate``, an import in ``dense`` beyond
numpy and ``model``, or any use of ``numpy.random`` in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rydgauge"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = Path(__file__).resolve().parent
# the tests' reductions of the dense oracle, by the test module that reads each
DENSE_REDUCTIONS = {"test_gauge.py": "_dense_connection", "test_dynamics.py": "_dense_adiabaticity"}
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


def _definitions(tree: ast.Module) -> set:
    """Module-level functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _private_definitions(tree: ast.Module) -> set:
    """Module-level ``_private`` functions, classes and constants."""
    return {name for name in _definitions(tree)
            if name.startswith("_") and not name.startswith("__")}


def _dataclass_fields(tree: ast.Module) -> dict:
    """Annotated fields of each module-level dataclass, by class name;
    ``ClassVar`` annotations are class constants, not fields."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(target, ast.Name) and target.id == "dataclass"

    def is_classvar(annotation):
        target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        return isinstance(target, ast.Name) and target.id == "ClassVar"

    return {
        node.name: [field.target.id for field in node.body
                    if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                    and not is_classvar(field.annotation)]
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(is_dataclass(d) for d in node.decorator_list)
    }


def _read_attributes() -> set:
    """Every attribute name read anywhere in the package."""
    return {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("name", [path.name for path in MODULES if path.name != "__init__.py"])
def test_every_import_is_used(name):
    tree = TREES[name]
    assert sorted(_imported(tree) - _loaded(tree)) == []


def test_every_private_definition_is_read():
    loaded = set().union(*(_loaded(tree) for tree in TREES.values()))
    unread = {name: sorted(_private_definitions(tree) - loaded) for name, tree in TREES.items()}
    assert {name: defs for name, defs in unread.items() if defs} == {}


def test_every_public_function_has_a_caller():
    """Each public module-level function is read somewhere in the package
    outside its own body; an ``__init__`` re-export is not a reader, so an
    API that only the tests run fails here."""
    public = {(name, node.name) for name, tree in TREES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")}
    read = set().union(*(_loaded(node) - {getattr(node, "name", None)}
                         for name, tree in TREES.items() if name != "__init__.py"
                         for node in tree.body))
    assert sorted(f"{name}:{function}" for name, function in public if function not in read) == []


def test_every_private_dataclass_field_is_read():
    attributes = _read_attributes()
    fields = {(name, cls): fields for name, tree in TREES.items()
              for cls, fields in _dataclass_fields(tree).items() if cls.startswith("_")}
    assert set(fields) >= {("dynamics.py", "_Engine"), ("gauge.py", "_RadialSpectrum")}
    unread = {key: sorted(set(names) - attributes) for key, names in fields.items()}
    assert {key: names for key, names in unread.items() if names} == {}


def test_every_model_field_is_read():
    """A field of a ``model.py`` dataclass that no code in the package reads
    as an attribute is a setting with no effect; presets would carry it
    for nothing."""
    attributes = _read_attributes()
    fields = _dataclass_fields(TREES["model.py"])
    assert {"DriveParams", "ExperimentPreset"} <= set(fields)
    unread = {cls: sorted(set(names) - attributes) for cls, names in fields.items()}
    assert {cls: names for cls, names in unread.items() if names} == {}


def test_every_oracle_in_the_package_is_read_by_validate():
    """One oracle mechanism: no finite-difference oracle or step is left in
    the package, and each of the tests' reductions of the dense oracle reads
    ``dense``'s eigensystem and couplings instead of diagonalizing on its own."""
    defined = set().union(*(_definitions(tree) for tree in TREES.values()))
    stencils = [name for name in defined if name.endswith("_fd") or name.startswith("FD_")]
    assert sorted(stencils) == []
    for module, function in DENSE_REDUCTIONS.items():
        tree = ast.parse((TESTS / module).read_text(encoding="utf-8"))
        [reduction] = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == function]
        assert "eigh" not in _loaded(reduction), module
        assert {"eigensystem", "couplings"} <= _loaded(reduction), module


def _relative_imports(tree: ast.Module) -> set:
    """The package modules a module imports: ``from .m import ...`` gives m,
    ``from . import m`` gives m."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                modules.add(node.module)
            else:
                modules.update(alias.name for alias in node.names)
    return modules


def test_the_dense_oracle_imports_only_numpy_and_the_model():
    """``dense`` cannot reach ``labeled_spectrum`` or anything built on it: it
    imports numpy, ``constants`` and ``model``, nothing else."""
    tree = TREES["dense.py"]
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert absolute - {"__future__"} <= {"numpy"}
    assert _relative_imports(tree) <= {"constants", "model"}


def test_only_validate_imports_the_dense_oracle():
    """The closed forms never call the oracle that checks them; ``__init__``
    re-exports ``dense_hamiltonian`` but reads nothing."""
    importers = {name for name, tree in TREES.items() if "dense" in _relative_imports(tree)}
    assert importers == {"__init__.py", "validate.py"}


def test_only_the_dense_oracle_diagonalizes():
    """``eigh`` and ``eigvalsh`` are called in ``dense`` alone; any other
    module reaches them through ``dense``."""
    calls = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            via_dense = (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                         and func.value.id == "dense")
            if called in ("eigh", "eigvalsh") and not via_dense:
                calls.append((name, called))
    assert sorted(set(calls)) == [("dense.py", "eigh"), ("dense.py", "eigvalsh")]


def test_no_module_uses_numpy_random():
    """The package draws nothing at random: ``validate``'s draws are a fixed
    design, and numpy.random's first use would load its extension modules
    and OpenSSL's hashing into every run that reaches it."""
    uses = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "random":
                target = node.value.id if isinstance(node.value, ast.Name) else None
                if target in ("np", "numpy"):
                    uses.append((name, node.lineno))
            elif isinstance(node, ast.Import):
                uses += [(name, node.lineno) for alias in node.names
                         if alias.name.startswith("numpy.random")]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("numpy.random") or (
                        node.module == "numpy" and any(a.name == "random" for a in node.names)):
                    uses.append((name, node.lineno))
    assert uses == []


def _masked_divides(tree: ast.Module) -> list:
    """(enclosing function, line) of each ``divide`` call given a ``where=``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "divide"
                    and any(keyword.arg == "where" for keyword in child.keywords)):
                found.append((function, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(tree, None)
    return found


def test_the_solve_masks_a_divide_in_one_helper_only():
    """In ``spectrum`` and ``gauge`` a masked divide sits only in
    ``spectrum._divide_where``, whose count guard gives a batch wholly on one
    side of the mask the plain divide or the fill alone.  ``dense`` is
    exempt: the oracle shares no code with what it checks."""
    found = [(name, function) for name in ("spectrum.py", "gauge.py")
             for function, _ in _masked_divides(TREES[name])]
    assert found == [("spectrum.py", "_divide_where")]
