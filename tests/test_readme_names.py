"""Every `module.name` that README.md writes in backticks, for a module of
the package (optionally as `permzk.module.name`), is an attribute of that
module; `module.py` names a file and is not read.  Every ctx.X, chain.X,
replays.X and tape.X in README.md or in a docstring of the package is an
attribute of an InstanceContext, its side chain, a Replays and a RandomTape.
A refactor that deletes or renames a definition leaves the docs naming it;
this finds it."""

import ast
import importlib
import pathlib
import re

from permzk.conjugacy import InstanceContext
from permzk.framework import RandomTape, Replays
from permzk.instances import load_instance

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(path.stem for path in (ROOT / "src" / "permzk").glob("*.py") if path.stem != "__init__")
NAME = re.compile(rf"(?:permzk\.)?({'|'.join(MODULES)})\.(?!py\b)(\w+)")
ATTRIBUTE = re.compile(r"\b(ctx|chain|replays|tape)\.(\w+)")


def named_in(text: str) -> list:
    """The (module, name) pairs that open a backticked span of text."""
    return [match.groups() for span in re.findall(r"`([^`\n]+)`", text) if (match := NAME.match(span))]


def missing(pairs) -> list:
    return [(module, name) for module, name in pairs if not hasattr(importlib.import_module(f"permzk.{module}"), name)]


def docstrings() -> str:
    """Every module, class and function docstring of the package."""
    texts = []
    for path in sorted((ROOT / "src" / "permzk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                texts.append(ast.get_docstring(node, clean=False) or "")
    return "\n".join(texts)


def unresolved(pairs) -> list:
    """The (object, attribute) pairs that the object the name stands for
    lacks: ctx is an InstanceContext on q2_groups, chain its side chain 0."""
    ctx = InstanceContext(load_instance(ROOT / "fixtures" / "q2_groups.txt"))
    objects = {"ctx": ctx, "chain": ctx.side_chain(0), "replays": Replays(0), "tape": RandomTape(0)}
    return [(obj, name) for obj, name in pairs if not hasattr(objects[obj], name)]


def test_the_scan_sees_every_module_and_the_readme_names():
    assert len(MODULES) == 9 and {"engine", "framework", "cli"} <= set(MODULES)
    assert len(named_in((ROOT / "README.md").read_text())) >= 10


def test_every_name_the_readme_gives_exists():
    assert missing(named_in((ROOT / "README.md").read_text())) == []


def test_the_scan_finds_a_missing_name():
    text = "`framework.Replays(seed)`, `permzk.engine.build_chain` and `framework.NoSuchThing`; `engine.py`, `x.y`"
    pairs = named_in(text)
    assert pairs == [("framework", "Replays"), ("engine", "build_chain"), ("framework", "NoSuchThing")]
    assert missing(pairs) == [("framework", "NoSuchThing")]


def test_every_attribute_the_docs_give_exists():
    pairs = ATTRIBUTE.findall((ROOT / "README.md").read_text() + "\n" + docstrings())
    assert len(pairs) >= 40
    assert unresolved(pairs) == []


def test_the_attribute_scan_finds_a_missing_name():
    text = "ctx.side_chain(1), chain_u.order, ctx.no_such_chain, chain.gens and tape.bit(); replays.challenge, tape.nothing"
    pairs = ATTRIBUTE.findall(text)
    assert pairs == [("ctx", "side_chain"), ("ctx", "no_such_chain"), ("chain", "gens"), ("tape", "bit"),
                     ("replays", "challenge"), ("tape", "nothing")]
    assert unresolved(pairs) == [("ctx", "no_such_chain"), ("tape", "nothing")]
