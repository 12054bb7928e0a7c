"""Every name a module of the package imports at top level is used in that
module, listed in its __all__, or on ALLOWED with the reason it stays.  A
refactor that moves the last use of a name elsewhere leaves the import
behind; this finds it."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "permzk"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# (module, name) -> why the module imports a name it never reads
ALLOWED = {
    ("element", "run_composed"): "bench/workloads.py calls it as element.run_composed",
}


def unused_imports(tree: ast.Module) -> set:
    """The names bound by the module's top-level imports (less __future__
    features) that no Name node reads and __all__ does not list."""
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return imported - read - exported


def test_the_scan_sees_every_module():
    assert {"conjugacy", "engine", "element", "__init__"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_top_level_import_is_used(module):
    found = unused_imports(ast.parse((PACKAGE / f"{module}.py").read_text()))
    assert found == {name for where, name in ALLOWED if where == module}


def test_the_scan_finds_an_unused_import():
    tree = ast.parse(
        "from functools import reduce, wraps\nfrom operator import and_\nimport random\n"
        "__all__ = ['wraps']\nrandom.random()\n"
    )
    assert unused_imports(tree) == {"reduce", "and_"}
