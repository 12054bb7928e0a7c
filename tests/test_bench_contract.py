"""The benchmark's traced run (bench/tracer.py) patches package attributes
by name, and its workloads (bench/workloads.py) call them by name.  A
refactor that moves one of them, or changes a return shape the tracer's
observers read, breaks the benchmark; these checks find that in a second
instead of in the benchmark's own suite."""

import ast
import importlib
import importlib.util
import pathlib
import random

import pytest

from permzk import conjugacy, element, framework, instances, nonconjugacy, simulator

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


def patched_attributes() -> dict:
    """What the tracer patches, as it is bound now: (owner, attr) -> value,
    for each traced method on its class and each traced function in every
    module that binds it."""
    out = {}
    for _, owner, attr in tracer.SPANNED + tracer.COUNTED:
        for where in (owner,) if isinstance(owner, type) else tracer.MODULES:
            if attr in where.__dict__:
                out[where, attr] = where.__dict__[attr]
    stats = importlib.import_module("scipy.stats")
    out[stats, "chi2_contingency"] = stats.chi2_contingency
    return out


def test_tracer_observes_a_session_of_each_protocol_and_both_checks():
    # the observers read the return shapes of random_generating_tuple and
    # simulate, so a change to either would break a traced benchmark run
    group = conjugacy.InstanceContext(instances.load_instance("fixtures/tiny_cyclic.txt"))
    elem = element.ElementContext(instances.load_instance("fixtures/ec_yes_m3.txt"))
    no = conjugacy.InstanceContext(instances.load_instance("fixtures/no_m3.txt"))
    honest = framework.honest_verifier()
    before = patched_attributes()
    t = tracer.Tracer()
    with t.installed():
        assert patched_attributes() != before
        rng = random.Random(0)
        params = conjugacy.ProtocolParams.for_instance(group.instance)
        assert conjugacy.run_composed(group, params, conjugacy.HonestProver(group, params), honest, rng).accepted
        params = element.params_for(elem.instance)
        assert element.run_composed(elem, params, conjugacy.HonestProver(elem, params), honest, rng).accepted
        params = nonconjugacy.params_for(no.instance, t=1)
        nonconjugacy.run_composed(no, params, nonconjugacy.brute_force_responder(), rng)
        stat = simulator.compare_view_distributions(group, honest, tape_seed=1, k=2, samples=5, rng=rng)
        exact = simulator.compare_view_distributions(group, honest, tape_seed=1, k=2, exact=True)
    assert patched_attributes() == before
    assert stat["mode"] == "stat" and exact["laws_equal"]
    attempts, simulated = t.samples["tuple_attempts"], t.samples["simulate"]
    assert attempts and all(isinstance(a, int) and a >= 1 for a in attempts)
    assert len(simulated) == 5 and all(r >= 1 and a >= 1 for r, a in simulated)
    calls = t.totals()["calls"]
    for name in (
        "framework.run_sequential",
        "framework.run_parallel",
        "conjugacy.verify",
        "nonconjugacy.matched_sides",
        "simulator.simulate",
        "simulator.exact_real_law",
        "simulator.chi2",
    ):
        assert calls[name] > 0, name
