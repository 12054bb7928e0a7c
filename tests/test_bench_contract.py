"""The benchmark's traced run (bench/tracer.py) patches package attributes
by name.  A refactor that moves one of them breaks the traced run; this
check finds that in a second instead of in the benchmark's own suite."""

import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
