"""Every `module.name` that README.md writes in backticks, for a module of
the package (optionally as `permzk.module.name`), is an attribute of that
module; `module.py` names a file and is not read.  A refactor that deletes
or renames a definition leaves the README naming it; this finds it."""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(path.stem for path in (ROOT / "src" / "permzk").glob("*.py") if path.stem != "__init__")
NAME = re.compile(rf"(?:permzk\.)?({'|'.join(MODULES)})\.(?!py\b)(\w+)")


def named_in(text: str) -> list:
    """The (module, name) pairs that open a backticked span of text."""
    return [match.groups() for span in re.findall(r"`([^`\n]+)`", text) if (match := NAME.match(span))]


def missing(pairs) -> list:
    return [(module, name) for module, name in pairs if not hasattr(importlib.import_module(f"permzk.{module}"), name)]


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
