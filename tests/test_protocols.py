"""What the protocols share: the context's witness check and chain cache,
reading wire payloads, the runner's record of a session, and golden
session digests."""

import hashlib
import random

import pytest

from permzk import conjugacy, element, nonconjugacy
from permzk.conjugacy import GroupConjInstance, GuessingProver, HonestProver, InstanceContext, ProtocolParams, _coerce_perm
from permzk.element import ElemConjInstance, ElementContext, HonestElemProver, params_for
from permzk.engine import GeneratingSet
from permzk.framework import honest_verifier
from permzk.instances import load_instance
from permzk.perm import Permutation, parse_perm

from helpers import run_session

TINY = "fixtures/tiny_cyclic.txt"
Q2_GROUPS = "fixtures/q2_groups.txt"
EC_YES = "fixtures/ec_yes_m3.txt"
NO_M4 = "fixtures/no_m4.txt"
NO_M6 = "fixtures/no_m6.txt"
S4_PAIR = "fixtures/s4_pair.txt"


def group_ctx():
    return InstanceContext(load_instance(TINY))


def element_ctx():
    return ElementContext(load_instance(EC_YES))


@pytest.mark.parametrize("path", [Q2_GROUPS, TINY])
def test_witness_search_runs_on_cached_chains(path, build_chain_calls):
    ctx = InstanceContext(load_instance(path))
    assert all(chain.order() for chain in (ctx.chain_u, ctx.side_chain(0), ctx.side_chain(1)))
    build_chain_calls.clear()
    assert ctx.is_yes()
    assert build_chain_calls == []


def test_element_witness_search_runs_on_cached_chain(build_chain_calls):
    ctx = element_ctx()
    assert ctx.chain_u.order()
    build_chain_calls.clear()
    assert ctx.is_yes()
    assert build_chain_calls == []


def test_build_chain_counter_sees_calls(build_chain_calls):
    assert InstanceContext(load_instance(TINY)).chain_u.order() == 3
    assert len(build_chain_calls) == 1


def test_declared_witness_costs_one_chain_per_group(build_chain_calls):
    # the context checks the witness on the chains it keeps: loading,
    # checking and one honest run build each instance chain once; every
    # other call is on a commitment tuple
    inst = load_instance(S4_PAIR)
    assert inst.witness is not None
    ctx = InstanceContext(inst)
    params = ProtocolParams.for_instance(inst)
    assert conjugacy.run_composed(ctx, params, HonestProver(ctx, params), honest_verifier(), random.Random(0)).accepted
    for gset in (inst.u, inst.a0, inst.a1):
        assert sum(call is gset for call in build_chain_calls) == 1


def test_element_declared_witness_builds_only_u(build_chain_calls):
    u = GeneratingSet(3, (parse_perm("1 3 2"),))
    inst = ElemConjInstance(3, parse_perm("2 1 3"), parse_perm("3 2 1"), u, parse_perm("1 3 2"))
    ctx = ElementContext(inst)
    assert ctx.witness() == inst.witness
    assert len(build_chain_calls) == 1 and build_chain_calls[0] is inst.u


def test_context_refuses_a_wrong_declared_witness_built_in_code():
    # an instance built in code gets the check an instance file gets; the
    # other refusal of each context class is in tests/test_instances.py
    def gset(text):
        return GeneratingSet(3, (parse_perm(text),))

    # (1 2) is in <U> and fixes <(1 2)> rather than mapping it to <(2 3)>
    group = GroupConjInstance(3, gset("2 1 3"), gset("1 3 2"), gset("2 1 3"), parse_perm("2 1 3"))
    with pytest.raises(ValueError, match="witness does not conjugate side 0 onto side 1"):
        InstanceContext(group)
    # (2 3) maps (1 2) to (1 3) but is not in <(1 2 3)>
    element = ElemConjInstance(3, parse_perm("2 1 3"), parse_perm("3 2 1"), gset("2 3 1"), parse_perm("1 3 2"))
    with pytest.raises(ValueError, match="witness is not an element of <U>"):
        ElementContext(element)


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
    return lambda rng_p, tape_v: conjugacy.session(ctx, params, prover, honest_verifier(), rng_p, tape_v)


def element_session(prover=None):
    ctx = element_ctx()
    params = params_for(ctx.instance)
    prover = prover or HonestElemProver(ctx)
    return lambda rng_p, tape_v: conjugacy.session(ctx, params, prover, honest_verifier(), rng_p, tape_v)


def non_conj_session():
    ctx = InstanceContext(load_instance(NO_M4))
    params = nonconjugacy.params_for(ctx.instance)
    responder = nonconjugacy.brute_force_responder()
    return lambda rng_p, tape_v: nonconjugacy.session(ctx, params, responder, rng_p, tape_v)


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


def group_runner(path, prover_class):
    ctx = InstanceContext(load_instance(path))
    params = ProtocolParams.for_instance(ctx.instance)
    prover = prover_class(ctx, params)
    return lambda rng: conjugacy.run_composed(ctx, params, prover, honest_verifier(), rng)


def element_runner():
    ctx = element_ctx()
    return lambda rng: conjugacy.run_composed(ctx, params_for(ctx.instance), HonestElemProver(ctx), honest_verifier(), rng)


def non_conj_runner(path, responder_name):
    ctx = InstanceContext(load_instance(path))
    params = nonconjugacy.params_for(ctx.instance)
    responder = nonconjugacy.STANDARD_RESPONDERS[responder_name]()
    return lambda rng: nonconjugacy.run_composed(ctx, params, responder, rng)


# sha256 over the rendered transcripts of 100 composed runs drawn from one
# seeded rng: any change to a draw, its order or the rendering moves these.
GOLDEN_DIGESTS = [
    ("group-conj-tiny-honest", lambda: group_runner(TINY, HonestProver), 11, "4e200ce345252362baa8b72c6bc3b891007aed9a95d990d0db17ea9cd8aa2192"),
    ("group-conj-tiny-guess", lambda: group_runner(TINY, GuessingProver), 12, "2f51eaa082d2f4d49f329e22d7ecefc17f1c0a0f3eebc112b856b6faaf107c88"),
    ("group-conj-q2-honest", lambda: group_runner(Q2_GROUPS, HonestProver), 13, "203c989b8dd11b27276f9308ffb85085fa62a11ec48d8c488d67819125d6fe7b"),
    ("group-conj-q2-guess", lambda: group_runner(Q2_GROUPS, GuessingProver), 14, "ac6ebb058a5893f25b867c478aa89895da2f69bfd726e0591f4df2e4252b9485"),
    ("elem-conj-ec-yes-honest", element_runner, 15, "0f7ffbd32549f937d6b74e5330c871d304fd550583355df7524c002ca1525cff"),
    ("non-conj-no-m4-brute", lambda: non_conj_runner(NO_M4, "brute"), 16, "778719a0efb26858e1e94559a9f3f0a43cabd23b4fb4923352f870fd3fcf7df4"),
    ("non-conj-no-m6-brute", lambda: non_conj_runner(NO_M6, "brute"), 17, "17c597579b38a8ddcebdbb215337b77954c7f4fb4316b1d41702a9f3893fe906"),
    ("non-conj-no-m4-brute-seed18", lambda: non_conj_runner(NO_M4, "brute"), 18, "23e552e067bd29df0e55715de26e9b52fc91625a6a983fec95d95ad232ec02cf"),
    ("non-conj-no-m6-brute-seed19", lambda: non_conj_runner(NO_M6, "brute"), 19, "f7ac4ab22bd82f1f48838bf35b625da29126a05a876f7f3999a9b5af92b18d83"),
]


@pytest.mark.parametrize("make_runner,seed,digest", [g[1:] for g in GOLDEN_DIGESTS], ids=[g[0] for g in GOLDEN_DIGESTS])
def test_composed_session_digests(make_runner, seed, digest):
    run = make_runner()
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(100):
        h.update(run(rng).transcript().encode("ascii"))
    assert h.hexdigest() == digest


def small_degree_runs(m):
    """Group, element and non-conjugacy runs at degree m = 1 or 2, the
    smallest raw images: the group generated by the reversal, trivial at
    degree 1 and <(1 2)> at degree 2.  The non-conjugacy instance sets that
    group against the trivial one inside it."""
    a = Permutation(range(m, 0, -1))
    gens = GeneratingSet(m, (a,))
    group = InstanceContext(GroupConjInstance(m, gens, gens, gens))
    elem = ElementContext(ElemConjInstance(m, a, a, gens))
    no = InstanceContext(GroupConjInstance(m, gens, GeneratingSet(m), gens))
    group_params = ProtocolParams.for_instance(group.instance, t=2)
    return {
        "group": lambda rng: conjugacy.run_composed(
            group, group_params, HonestProver(group, group_params), honest_verifier(), rng
        ),
        "element": lambda rng: element.run_composed(
            elem, params_for(elem.instance, t=2), HonestElemProver(elem), honest_verifier(), rng
        ),
        "non-conj": lambda rng: nonconjugacy.run_composed(
            no, nonconjugacy.params_for(no.instance), nonconjugacy.brute_force_responder(), rng
        ),
    }, group


# sha256 over the transcripts of 20 runs of each kind, from one seeded rng;
# computed on the Permutation-based engine that the raw-image one replaced
SMALL_DEGREE_DIGESTS = {
    1: "6b9e33286dad745b77db90874a7d85b2c9b87cc062674447e98f41fc10bfdbf3",
    2: "e32b82e3dbb6257ffc185d46ccca9d53fca60db595e89ca1c6e75cd496016e33",
}


@pytest.mark.parametrize("m", [1, 2])
def test_sessions_at_degree_1_and_2(m):
    runs, group = small_degree_runs(m)
    u = group.u_elements()
    assert len(u) == m
    assert list(group.conjugators(0, group.side_chain(1))) == list(u)
    assert group.witness() == Permutation.identity(m)
    rng = random.Random(m)
    h = hashlib.sha256()
    for name in ("group", "element", "non-conj"):
        for _ in range(20):
            out = runs[name](rng)
            # at degree 1 both sides are trivial and the responder's answer 0
            # is right only when every session drew side 0
            if name != "non-conj" or m == 2:
                assert out.accepted, name
            else:
                assert out.accepted == all(o.counters["side"] == 0 for o in out.outcomes)
            h.update(out.transcript().encode("ascii"))
    assert h.hexdigest() == SMALL_DEGREE_DIGESTS[m]
