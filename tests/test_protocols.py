"""What the protocols share: reading wire payloads and the session record."""

import random
import sys

import pytest

from permzk import conjugacy, engine, nonconjugacy
from permzk.conjugacy import HonestProver, InstanceContext, ProtocolParams, _coerce_perm
from permzk.element import ElementContext, HonestElemProver, params_for
from permzk.framework import RandomTape, honest_verifier, run_session
from permzk.instances import load_instance
from permzk.perm import Permutation

TINY = "fixtures/tiny_cyclic.txt"
Q2_GROUPS = "fixtures/q2_groups.txt"
EC_YES = "fixtures/ec_yes_m3.txt"
NO_M4 = "fixtures/no_m4.txt"


def group_ctx():
    return InstanceContext(load_instance(TINY))


def element_ctx():
    return ElementContext(load_instance(EC_YES))


def count_build_chain(monkeypatch) -> list:
    """Route build_chain through a counter in every permzk module that binds
    it (the modules import it by name); returns the list of calls."""
    calls = []
    original = engine.build_chain

    def counted(gset):
        calls.append(gset)
        return original(gset)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "permzk" and getattr(module, "build_chain", None) is original:
            monkeypatch.setattr(module, "build_chain", counted)
    return calls


@pytest.mark.parametrize("path", [Q2_GROUPS, TINY])
def test_witness_search_runs_on_cached_chains(path, monkeypatch):
    ctx = InstanceContext(load_instance(path))
    assert all(chain.order() for chain in (ctx.chain_u, ctx.chain_a0, ctx.chain_a1))
    calls = count_build_chain(monkeypatch)
    assert ctx.is_yes()
    assert calls == []


def test_element_witness_search_runs_on_cached_chain(monkeypatch):
    ctx = element_ctx()
    assert ctx.chain_u.order()
    calls = count_build_chain(monkeypatch)
    assert ctx.is_yes()
    assert calls == []


def test_build_chain_counter_sees_calls(monkeypatch):
    calls = count_build_chain(monkeypatch)
    assert InstanceContext(load_instance(TINY)).chain_u.order() == 3
    assert len(calls) == 1


def test_coerce_perm_rejects_bools():
    # True == 1, so without the check (2, True) reads as the transposition
    assert _coerce_perm((2, True), 2) is None
    assert _coerce_perm([True, 2], 2) is None
    assert _coerce_perm((2, 1), 2) == Permutation([2, 1])


# (context, k, readable commitment, the same with one image as a bool):
# each bool stands where a 1 was, so read as an integer it would pass.
WIRE = {
    "group": (group_ctx, 2, [(3, 1, 2), (3, 1, 2)], [(3, True, 2), (3, 1, 2)]),
    "element": (element_ctx, 1, (3, 2, 1), (3, 2, True)),
}


@pytest.mark.parametrize("name", sorted(WIRE))
def test_bool_bearing_payloads_are_rejected(name):
    make_ctx, k, payload, bool_payload = WIRE[name]
    ctx = make_ctx()
    commit = ctx.read_commit(payload, k)
    assert commit is not None
    assert ctx.read_commit(bool_payload, k) is None
    # the commitment is side 1 unmasked, so the identity answers challenge 1
    assert ctx.accepts(commit, b"1", (1, 2, 3))
    assert not ctx.accepts(commit, b"1", (True, 2, 3))


class IllTypedProver:
    """Commits to a payload that neither commitment reader accepts."""

    def commit(self, rng):
        return (None, 0), "garbage payload"

    def respond(self, state, challenge):  # pragma: no cover - never reached
        raise AssertionError("respond called after ill-typed commit")


def group_session(prover=None):
    ctx = group_ctx()
    params = ProtocolParams.for_instance(ctx.instance)
    prover = prover or HonestProver(ctx, params)
    return conjugacy.session(ctx, params, prover, honest_verifier(), random.Random(0), RandomTape(1))


def element_session(prover=None):
    ctx = element_ctx()
    prover = prover or HonestElemProver(ctx)
    return conjugacy.session(ctx, params_for(ctx.instance), prover, honest_verifier(), random.Random(0), RandomTape(1))


def non_conj_session():
    ctx = InstanceContext(load_instance(NO_M4))
    params = nonconjugacy.params_for(ctx.instance)
    responder = nonconjugacy.brute_force_responder()
    return nonconjugacy.session(ctx, params, responder, random.Random(0), RandomTape(1))


SESSIONS = {
    "group": group_session,
    "group-ill-typed": lambda: group_session(IllTypedProver()),
    "element": element_session,
    "element-ill-typed": lambda: element_session(IllTypedProver()),
    "non-conj": non_conj_session,
}


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_record_times_every_message_and_the_verdict(name):
    out = run_session(SESSIONS[name]())
    assert len(out.counters["round_ns"]) == len(out.view.messages) + 1
    if name.endswith("ill-typed"):
        assert not out.accepted and len(out.view.messages) == 1
    else:
        assert out.accepted
    if name == "element":
        assert out.counters["tuple_attempts"] == 1
