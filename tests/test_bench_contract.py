"""The benchmark's traced run (bench/tracer.py) patches package attributes
by name, and its workloads (bench/workloads.py) call them by name.  A
refactor that moves one of them breaks the benchmark; these checks find
that in a second instead of in the benchmark's own suite."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "name,owner,attr",
    tracer.SPANNED + tracer.COUNTED,
    ids=[f"{name}:{getattr(owner, '__name__', owner)}.{attr}" for name, owner, attr in tracer.SPANNED + tracer.COUNTED],
)
def test_traced_attribute_is_defined_on_its_owner(name, owner, attr):
    assert attr in owner.__dict__


def workload_attributes() -> list:
    """Every `<module>.<attr>` in bench/workloads.py whose module is one it
    imports from permzk, as sorted (module name, attr) pairs."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name: f"permzk.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "permzk"
        for alias in node.names
    }
    return sorted(
        {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        }
    )


def test_workloads_call_the_package():
    # an import form that the parse above misses would leave nothing to check
    assert len(workload_attributes()) > 10


@pytest.mark.parametrize("module,attr", workload_attributes(), ids=[f"{m}.{a}" for m, a in workload_attributes()])
def test_workload_attribute_is_defined(module, attr):
    assert hasattr(importlib.import_module(module), attr)
