"""Every definition in the package is named somewhere outside its own body.
The definitions are the top-level functions and classes of src/permzk and
the methods of its top-level classes, dunders excepted.  A name counts when
a Name or Attribute node reads it, or a string constant is exactly it, in
any module of src, tests or bench (bench/tracer.py names its targets by
string).  A refactor that moves the last caller of a helper elsewhere
leaves the helper behind; this finds it."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "permzk"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def definitions(tree: ast.Module) -> set:
    """The names of the module's top-level functions and classes and of
    its top-level classes' methods, less dunders."""
    names = set()
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body if isinstance(item, FUNCTIONS))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def references(tree: ast.AST, inside: frozenset = frozenset()) -> set:
    """The names read as a Name, an Attribute or a whole string constant,
    each left out where it is read inside a definition of that name."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
        found |= references(node, inside | {node.name} if isinstance(node, DEFINITIONS) else inside)
    return found - inside


def unreferenced(defining: list, reading: list) -> set:
    """The names that the trees in defining define and no tree in reading
    references."""
    defined = set().union(*map(definitions, defining))
    return defined - set().union(*map(references, reading))


def test_the_scan_sees_the_package_tests_and_bench():
    names = {path.name for path in SOURCES}
    assert {"engine.py", "test_engine.py", "tracer.py"} <= names


def test_every_definition_is_referenced():
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    package = [tree for tree, path in zip(trees, SOURCES) if path.parent == PACKAGE]
    assert unreferenced(package, trees) == set()


def test_the_scan_finds_an_unreferenced_definition():
    tree = ast.parse(
        "class Chain:\n"
        "    def __init__(self):\n        self.n = 1\n"
        "    def order(self):\n        return self._product()\n"
        "    def _product(self):\n        return self.n\n"
        "    def _unused(self):\n        return self._unused()\n"
        "def helper():\n    return helper()\n"
        "def named():\n    pass\n"
        "TARGETS = [(Chain, 'named')]\n"
    )
    assert unreferenced([tree], [tree]) == {"order", "_unused", "helper"}
