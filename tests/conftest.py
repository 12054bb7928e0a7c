import os
import pathlib
import sys

import pytest

from permzk import engine

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _run_from_repo_root():
    # fixture files are referenced by paths relative to the repo root
    os.chdir(pathlib.Path(__file__).resolve().parent.parent)


@pytest.fixture
def build_chain_calls(monkeypatch) -> list:
    """Route build_chain through a counter in every permzk module that binds
    it (the modules import it by name); the list of generating sets it was
    called on, in call order."""
    calls = []
    original = engine.build_chain

    def counted(gset):
        calls.append(gset)
        return original(gset)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "permzk" and getattr(module, "build_chain", None) is original:
            monkeypatch.setattr(module, "build_chain", counted)
    return calls


@pytest.fixture
def child_env() -> dict:
    """Environment for a child `python -m permzk.cli`: pytest's pythonpath
    setting reaches only this process, so src goes first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env
