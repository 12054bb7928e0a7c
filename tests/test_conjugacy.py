"""The three-round conjugacy protocol for generated subgroups."""

import random

import pytest

from permzk.conjugacy import (
    DEFAULT_SEARCH_CAP,
    GroupConjInstance,
    GuessingProver,
    HonestProver,
    InstanceContext,
    ProtocolParams,
    coerce_commit,
    extract_witness,
    replay_verdict,
    response_accepted,
    run_composed,
    session,
)
from permzk.element import ElemConjInstance, ElementContext
from permzk.engine import BudgetExceeded, GeneratingSet, _generates_images, build_chain, group_equal, parse_generating_set
from permzk.framework import (
    STANDARD_VERIFIERS,
    VERIFIER,
    Message,
    RandomTape,
    TapePrefix,
    View,
    bit_payload,
    challenge_bit,
    constant_verifier,
    honest_verifier,
)
from permzk.instances import load_instance
from permzk.perm import Permutation

from helpers import conjugated_set, run_session


def gset(degree, *texts):
    return parse_generating_set(";".join(texts), degree)


def ctx_of(path):
    return InstanceContext(load_instance(path))


def find_witness(a0, a1, u, cap=DEFAULT_SEARCH_CAP):
    return InstanceContext(GroupConjInstance(a0.degree, a0, a1, u), cap).find_witness()


TINY = "fixtures/tiny_cyclic.txt"
Q2_GROUPS = "fixtures/q2_groups.txt"
S4_PAIR = "fixtures/s4_pair.txt"
NO_M4 = "fixtures/no_m4.txt"
EC_YES = "fixtures/ec_yes_m3.txt"


def test_instance_validation():
    a = gset(3, "2 3 1")
    with pytest.raises(ValueError, match="U degree"):
        GroupConjInstance(3, a, a, gset(4, "2 1 3 4"))
    with pytest.raises(ValueError, match="witness degree"):
        GroupConjInstance(3, a, a, a, witness=Permutation([2, 1, 3, 4]))
    inst = GroupConjInstance(3, a, a, a)
    assert inst.side(0) is a and inst.side(1) is a


def test_protocol_params_default_k_is_4m():
    inst = load_instance(TINY)
    assert ProtocolParams.for_instance(inst).k == 12
    assert ProtocolParams.for_instance(inst, k=5, t=3) == ProtocolParams(5, 3)
    with pytest.raises(ValueError):
        ProtocolParams(0)
    with pytest.raises(ValueError):
        ProtocolParams(4, 0)


COUNT_TAKERS = {
    "GeneratingSet.degree": GeneratingSet,
    "ProtocolParams.k": ProtocolParams,
    "ProtocolParams.t": lambda x: ProtocolParams(2, x),
    "Permutation.from_cycles": Permutation.from_cycles,
}


@pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3", None, 0, -1])
@pytest.mark.parametrize("taker", sorted(COUNT_TAKERS))
def test_a_degree_k_or_t_that_is_not_an_int_at_least_1_is_refused(taker, value):
    # a float or a bool used to construct: GeneratingSet(2.5) then failed in
    # build_chain with TypeError, and GeneratingSet(True) made a chain of
    # degree True; GeneratingSet("3") raised TypeError
    with pytest.raises(ValueError):
        COUNT_TAKERS[taker](value)


def test_find_group_conjugator_first_match():
    # <(12)> and <(23)> in S_3 are conjugate by (13) and by (123)... the
    # search must return the first match in enumeration order
    a0 = gset(3, "2 1 3")
    a1 = gset(3, "1 3 2")
    u = gset(3, "2 3 1", "2 1 3")  # S_3
    chain_u = build_chain(u)
    v = find_witness(a0, a1, u)
    assert v is not None
    assert group_equal(conjugated_set(a0, v), a1)
    from permzk.engine import enumerate_elements

    matches = [
        w
        for w in enumerate_elements(chain_u)
        if group_equal(conjugated_set(a0, w), a1)
    ]
    assert v == matches[0]


def test_find_group_conjugator_none_cases():
    # order mismatch short-circuits
    assert find_witness(gset(3, "2 3 1"), gset(3, "2 1 3"), gset(3, "2 3 1", "2 1 3")) is None
    # conjugate in S_4 but not via <U>
    a0 = gset(4, "2 1 3 4")
    a1 = gset(4, "1 2 4 3")
    assert find_witness(a0, a1, gset(4, "")) is None


def test_find_group_conjugator_budget():
    a = gset(5, "2 1 3 4 5")
    u = gset(5, "2 3 4 5 1", "2 1 3 4 5")  # S_5, order 120
    with pytest.raises(BudgetExceeded, match="prover budget"):
        find_witness(a, a, u, cap=100)


def test_context_resolves_witness():
    ctx = ctx_of(TINY)
    assert ctx.is_yes()
    v = ctx.witness()
    assert ctx.chain_u.contains(v)
    assert group_equal(conjugated_set(ctx.instance.a0, v), ctx.instance.a1)

    no = ctx_of(NO_M4)
    assert not no.is_yes()
    with pytest.raises(ValueError, match="not a yes-instance"):
        no.witness()


def test_declared_witness_is_trusted():
    inst = load_instance(S4_PAIR)
    assert inst.witness is not None
    ctx = InstanceContext(inst)
    assert ctx.witness() == inst.witness


def test_coerce_commit_paths():
    ok = (Permutation([2, 1, 3]), Permutation([2, 3, 1]))
    assert coerce_commit(3, 2, ok) == ok
    # raw wire forms are coerced
    assert coerce_commit(3, 2, ["2 1 3", [2, 3, 1]]) == ok
    # wrong count, wrong degree, non-bijection, junk entries, junk payloads
    assert coerce_commit(3, 3, ok) is None
    assert coerce_commit(4, 2, ok) is None
    assert coerce_commit(3, 2, (ok[0], [1, 1, 3])) is None
    assert coerce_commit(3, 2, (ok[0], "not a perm")) is None
    assert coerce_commit(3, 2, (ok[0], None)) is None
    assert coerce_commit(3, 2, b"12") is None
    assert coerce_commit(3, 2, ([1, 2, "3"], ok[1])) is None
    assert coerce_commit(3, 2, ok) is not None
    assert coerce_commit(3, 2, ()) is None


def test_response_accepted_checks_membership_and_generation():
    ctx = ctx_of(TINY)
    v = ctx.witness()
    gens1 = ctx.instance.a1.gens
    commit = gens1 + gens1  # generates <A1> itself, mask = identity
    assert response_accepted(ctx, commit, b"1", Permutation.identity(3))
    # challenge 0 wants the tuple to be <A0>^w; identity works here since
    # <A0> = <A1> as sets for the cyclic fixture... use the witness too
    assert response_accepted(ctx, commit, b"0", v * Permutation.identity(3))
    # response outside <U> (degree mismatch) or non-perm
    assert not response_accepted(ctx, commit, b"1", Permutation([2, 1, 3, 4]))
    assert not response_accepted(ctx, commit, b"1", b"junk")
    # a tuple that fails to generate the challenged group
    small = (Permutation.identity(3),) * 2
    assert not response_accepted(ctx, small, b"1", Permutation.identity(3))
    # a response of the right degree outside <U>: refused under a trivial U,
    # accepted once U holds it.  w conjugates A1's generators back onto
    # generators of <A0>, which challenge 0 names.  The sides of no_m3 have
    # maximal-subgroup masks; two copies of S_5 in S_6, A0 = <(1 2),
    # (1 2 3 4 5)> and A1 = <(2 3), (2 3 4 5 6)>, have none
    no_m3 = load_instance("fixtures/no_m3.txt")
    s5_pair = (gset(6, "2 1 3 4 5 6", "2 3 4 5 1 6"), gset(6, "1 3 2 4 5 6", "1 3 4 5 6 2"))
    for (a0, a1), w, masked in (((no_m3.a0, no_m3.a1), Permutation([1, 3, 2]), True),
                                (s5_pair, Permutation([2, 3, 4, 5, 6, 1]), False)):
        verdicts = []
        for u in (gset(a0.degree, ""), GeneratingSet(a0.degree, (w,))):
            sides = InstanceContext(GroupConjInstance(a0.degree, a0, a1, u))
            assert all(sides.side_chain(side)._maximal_masks is not None for side in (0, 1)) == masked
            verdicts.append(response_accepted(sides, a1.gens, b"0", w))
        assert verdicts == [False, True], masked



def chain_verdict(ctx, commit, challenge, w) -> bool:
    """response_accepted by membership chains alone: w in <U>, each entry
    conjugated back by w in the challenged group G, and the entries
    generating a group of G's order."""
    chain = ctx.side_chain(challenge_bit(challenge))
    back = [x.conjugated_by(w.inverse()) for x in commit]
    return (ctx.chain_u.contains(w) and all(map(chain.contains, back))
            and _generates_images(ctx.degree, [x._img for x in commit], chain.order()))


@pytest.mark.parametrize("path", ["fixtures/embed_s3.txt", S4_PAIR, NO_M4, Q2_GROUPS])
def test_response_accepted_by_masks_agrees_with_membership_chains(path):
    # each side has maximal-subgroup masks; every candidate pair, and pairs
    # with an entry from outside, against every w in <U> and a few others
    ctx = ctx_of(path)
    assert all(ctx.side_chain(side)._maximal_masks is not None for side in (0, 1))
    rng = random.Random(5)
    outside = [Permutation(rng.sample(range(1, ctx.degree + 1), ctx.degree)) for _ in range(4)]
    commits = list(ctx.candidate_commits(2)) + [(x, y) for x in outside for y in ctx.side_members(0)]
    verdicts = set()
    for commit in commits:
        for w in ctx.u_elements() + tuple(outside):
            for challenge in (b"0", b"1"):
                verdict = response_accepted(ctx, commit, challenge, w)
                assert verdict == chain_verdict(ctx, commit, challenge, w), (commit, challenge, w)
                verdicts.add(verdict)
    assert verdicts == {True, False}

def run_once(ctx, params, prover, program, seed):
    return run_session(session(ctx, params, prover, program, random.Random(seed), RandomTape(seed + 1)))


@pytest.mark.parametrize("path", [TINY, Q2_GROUPS, S4_PAIR])
def test_honest_completeness_both_branches(path):
    ctx = ctx_of(path)
    params = ProtocolParams.for_instance(ctx.instance)
    prover = HonestProver(ctx, params)
    for program in (constant_verifier(0), constant_verifier(1), honest_verifier()):
        for seed in range(8):
            out = run_once(ctx, params, prover, program, seed)
            assert out.accepted, f"{path} rejected under {program.name} seed {seed}"


def test_honest_prover_needs_witness():
    ctx = ctx_of(NO_M4)
    with pytest.raises(ValueError):
        HonestProver(ctx, ProtocolParams.for_instance(ctx.instance))


def test_guessing_prover_rate_near_half():
    ctx = ctx_of(NO_M4)
    params = ProtocolParams.for_instance(ctx.instance)
    prover = GuessingProver(ctx, params)
    program = honest_verifier()
    rng = random.Random(2024)
    n = 600
    wins = sum(
        run_composed(ctx, params, prover, program, rng).accepted for _ in range(n)
    )
    assert abs(wins / n - 0.5) < 0.07, f"cheater win rate {wins / n}"


def test_guessing_prover_always_wins_when_groups_equal():
    # <A0> = <A1> means the bare mask convinces both branches
    a = gset(3, "2 3 1")
    ctx = InstanceContext(GroupConjInstance(3, a, gset(3, "3 1 2"), a))
    params = ProtocolParams.for_instance(ctx.instance)
    prover = GuessingProver(ctx, params)
    rng = random.Random(5)
    assert all(
        run_composed(ctx, params, prover, honest_verifier(), rng).accepted
        for _ in range(40)
    )


class BrokenProver:
    def commit(self, rng):
        return (None, 0), "garbage payload"

    def respond(self, state, challenge):  # pragma: no cover - never reached
        raise AssertionError("respond called after ill-typed commit")


def test_ill_typed_commit_rejects_without_raising():
    ctx = ctx_of(TINY)
    params = ProtocolParams.for_instance(ctx.instance)
    out = run_once(ctx, params, BrokenProver(), honest_verifier(), 0)
    assert not out.accepted
    assert len(out.view.messages) == 1


def test_session_counters_and_view_shape():
    ctx = ctx_of(TINY)
    params = ProtocolParams.for_instance(ctx.instance)
    out = run_once(ctx, params, HonestProver(ctx, params), honest_verifier(), 9)
    assert out.accepted
    assert [m.sender for m in out.view.messages] == ["P", "V", "P"]
    assert len(out.counters["round_ns"]) == 4
    assert out.counters["tuple_attempts"] >= 1
    assert out.view.r_prefix.draws == 1


def test_replay_verdict_matches_live_run():
    ctx = ctx_of(Q2_GROUPS)
    params = ProtocolParams.for_instance(ctx.instance)
    prover = HonestProver(ctx, params)
    program = honest_verifier()
    for seed in range(10):
        out = run_once(ctx, params, prover, program, seed)
        assert replay_verdict(ctx, params, program, out.view) == out.accepted
    assert not replay_verdict(ctx, params, program, out.view.__class__(out.view.r_prefix, ()))


@pytest.mark.parametrize("name", sorted(STANDARD_VERIFIERS))
@pytest.mark.parametrize("prover_class", [HonestProver, GuessingProver])
def test_replay_verdict_matches_live_run_under_each_program(name, prover_class):
    # the replay redraws the challenge with the program that ran: an honest
    # redraw under const0, const1 or parity disagreed in about half the runs
    ctx = ctx_of(Q2_GROUPS)
    params = ProtocolParams(2)
    prover = prover_class(ctx, params)
    program = STANDARD_VERIFIERS[name]()
    verdicts = set()
    for seed in range(20):
        out = run_once(ctx, params, prover, program, seed)
        assert replay_verdict(ctx, params, program, out.view) == out.accepted
        verdicts.add(out.accepted)
    assert verdicts == ({True} if prover_class is HonestProver else {True, False})
    assert not replay_verdict(ctx, params, program, out.view.__class__(out.view.r_prefix, ()))


def altered_views(view: View) -> dict:
    """Four alterations of a recorded P, V, P view, none of which the
    verifier program's replay on the recorded tape gives."""
    commit, challenge, response = view.messages
    flipped = Message(VERIFIER, bit_payload(1 - challenge_bit(challenge.payload)))
    return {
        "challenge flipped": View(view.r_prefix, (commit, flipped, response)),
        "99 tape draws": View(TapePrefix(view.r_prefix.seed, 99), view.messages),
        "fourth message": View(view.r_prefix, view.messages + (response,)),
        "third message from V": View(view.r_prefix, (commit, challenge, Message(VERIFIER, response.payload))),
    }


@pytest.mark.parametrize("parallel", [False, True], ids=["seq", "par"])
@pytest.mark.parametrize("path", [Q2_GROUPS, EC_YES])
def test_replay_verdict_refuses_altered_views(path, parallel):
    # a replay re-decides the whole record: an accepted view whose challenge,
    # tape prefix or message senders the replay does not give is refused
    inst = load_instance(path)
    ctx = (ElementContext if isinstance(inst, ElemConjInstance) else InstanceContext)(inst)
    params = ProtocolParams(2, 3)
    prover = HonestProver(ctx, params)
    for name in sorted(STANDARD_VERIFIERS):
        program = STANDARD_VERIFIERS[name]()
        for seed in range(4):
            run = run_composed(ctx, params, prover, program, random.Random(seed), parallel=parallel)
            for out in run.outcomes:
                assert out.accepted and replay_verdict(ctx, params, program, out.view)
                for alteration, view in altered_views(out.view).items():
                    assert not replay_verdict(ctx, params, program, view), (name, seed, alteration)


def test_extract_witness_from_two_responses():
    ctx = ctx_of(Q2_GROUPS)
    params = ProtocolParams.for_instance(ctx.instance)
    prover = HonestProver(ctx, params)
    rng = random.Random(17)
    state, payload = prover.commit(rng)
    r1 = prover.respond(state, b"1")
    r0 = prover.respond(state, b"0")
    v = extract_witness(r0, r1)
    assert group_equal(conjugated_set(ctx.instance.a0, v), ctx.instance.a1)
    assert ctx.chain_u.contains(v)


def test_parallel_matches_sequential():
    ctx = ctx_of(TINY)
    params = ProtocolParams.for_instance(ctx.instance, t=3)
    prover = HonestProver(ctx, params)
    for seed in range(6):
        seq = run_composed(ctx, params, prover, honest_verifier(), random.Random(seed), parallel=False)
        par = run_composed(ctx, params, prover, honest_verifier(), random.Random(seed), parallel=True)
        assert seq.accepted and par.accepted
        assert [(s, r) for s, r, _ in par.events][:3] == [(0, 0), (1, 0), (2, 0)]
        assert sorted(seq.events) == sorted(par.events)


def conjugate_member_sets(masks: dict) -> list:
    """Read a side_conjugates table back as one member set per bit, bit 0
    first; every bit up to the highest must be used."""
    sets: dict = {}
    for x, mask in masks.items():
        for i in range(mask.bit_length()):
            if mask >> i & 1:
                sets.setdefault(i, set()).add(x)
    assert sorted(sets) == list(range(len(sets)))
    return [frozenset(sets[i]) for i in range(len(sets))]


@pytest.mark.parametrize(
    "path",
    ["fixtures/no_m3.txt", "fixtures/no_m4.txt", "fixtures/no_m6.txt", "fixtures/tiny_cyclic.txt",
     "fixtures/q2_groups.txt", "fixtures/s4_pair.txt", "fixtures/trans_pair.txt", EC_YES,
     "fixtures/q2_elements.txt"],
)
def test_side_conjugates_are_the_distinct_u_conjugates(path):
    # oracle: conjugate the side's members by every element of <U>
    inst = load_instance(path)
    ctx = (ElementContext if isinstance(inst, ElemConjInstance) else InstanceContext)(inst)
    for side in (0, 1):
        members = ctx.side_members(side)
        expected = {frozenset(x.conjugated_by(v)._img for x in members) for v in ctx.u_elements()}
        conjugates = conjugate_member_sets(ctx.side_conjugates(side))
        assert conjugates[0] == frozenset(x._img for x in members)
        assert len(set(conjugates)) == len(conjugates) and set(conjugates) == expected
        # orbit-stabilizer: each conjugate is side^u for |U| / len(conjugates) elements u
        assert ctx.chain_u.order() % len(conjugates) == 0
    if path == "fixtures/no_m6.txt":
        assert [len(conjugate_member_sets(ctx.side_conjugates(side))) for side in (0, 1)] == [15, 45]


def test_side_conjugates_are_refused_over_the_cap():
    # no_m6: |<U>| = 720 is over a cap of 100, though each table would be small
    assert InstanceContext(load_instance("fixtures/no_m6.txt"), 100).side_conjugates(0) is None
    # <(1 2)> under <(1 2 3 4)>: four conjugates of two elements, 8 permutations
    inst = GroupConjInstance(4, gset(4, "2 1 3 4"), gset(4, "2 1 3 4"), gset(4, "2 3 4 1"))
    assert InstanceContext(inst, 7).side_conjugates(0) is None
    assert len(conjugate_member_sets(InstanceContext(inst, 8).side_conjugates(0))) == 4
    # the side itself over the cap: S_4 with a cap of 23
    s4 = GroupConjInstance(4, gset(4, "2 1 3 4", "2 3 4 1"), gset(4, "2 1 3 4"), gset(4))
    assert InstanceContext(s4, 23).side_conjugates(0) is None
    (members,) = conjugate_member_sets(InstanceContext(s4, 24).side_conjugates(0))
    assert len(members) == 24
