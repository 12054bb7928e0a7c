"""Two-round non-conjugacy protocol with an honest verifier."""

import random

import pytest

from permzk.conjugacy import GroupConjInstance, InstanceContext
from permzk.engine import BudgetExceeded, StabilizerChain, build_chain, enumerate_elements, group_equal, GeneratingSet
from permzk.framework import RandomTape, bit_payload
from permzk.instances import load_instance, parse_instance_text
from permzk.nonconjugacy import (
    NonConjChallenge,
    STANDARD_RESPONDERS,
    brute_force_responder,
    challenge_matched,
    constant_responder,
    draw_challenge,
    matched_sides,
    params_for,
    run_composed,
    scan_matched_sides,
    session,
)
from permzk.perm import Permutation

from helpers import conjugated_set, run_session

TINY = "fixtures/tiny_cyclic.txt"
NO_M3 = "fixtures/no_m3.txt"
NO_M4 = "fixtures/no_m4.txt"
NO_M6 = "fixtures/no_m6.txt"
S5_SHIFT = "S_5 on 1..5 and on 2..6, cap 100"
KLEIN = "<(1 2), (3 4)> and the normal Klein four-group, U = S_4"
KLEIN_PAYLOAD = (Permutation.from_cycles(4, (1, 2), (3, 4)), Permutation.from_cycles(4, (1, 3), (2, 4)))


def s5_shift_ctx():
    """S_5 on 1..5 against S_5 on 2..6, conjugate by U = <(1 6)>, with a
    search cap of 100: each side has 120 elements, so neither gets a table
    of conjugates and the provers scan <U>."""
    a0 = GeneratingSet(6, (Permutation.from_cycles(6, (1, 2)), Permutation.from_cycles(6, (1, 2, 3, 4, 5))))
    a1 = GeneratingSet(6, (Permutation.from_cycles(6, (2, 3)), Permutation.from_cycles(6, (2, 3, 4, 5, 6))))
    u = GeneratingSet(6, (Permutation.from_cycles(6, (1, 6)),))
    return InstanceContext(GroupConjInstance(6, a0, a1, u), search_cap=100)


def klein_ctx():
    """<(1 2), (3 4)> against V = <(1 2)(3 4), (1 3)(2 4)>, the normal Klein
    four-group, with U = S_4: two groups of order 4 that are not conjugate.
    V's generators lie in two different U-conjugates of side 0, so on the
    payload V only the AND of their masks rules side 0 out."""
    a0 = GeneratingSet(4, (Permutation.from_cycles(4, (1, 2)), Permutation.from_cycles(4, (3, 4))))
    u = GeneratingSet(4, (Permutation.from_cycles(4, (1, 2)), Permutation.from_cycles(4, (1, 2, 3, 4))))
    return InstanceContext(GroupConjInstance(4, a0, GeneratingSet(4, KLEIN_PAYLOAD), u))


def ctx_of(path):
    if path == S5_SHIFT:
        return s5_shift_ctx()
    if path == KLEIN:
        return klein_ctx()
    return InstanceContext(load_instance(path))


def test_params_default_k_is_8m_t_is_2():
    inst = load_instance(NO_M4)
    params = params_for(inst)
    assert (params.k, params.t) == (32, 2)
    assert params_for(inst, k=5, t=7).k == 5


def test_draw_challenge_is_deterministic_and_well_formed():
    ctx = ctx_of(NO_M4)
    a = draw_challenge(ctx, 6, RandomTape(31))
    b = draw_challenge(ctx, 6, RandomTape(31))
    assert a == b
    assert a.side in (0, 1)
    assert ctx.chain_u.contains(a.mask)
    assert len(a.payload) == 6
    # every batch element lives in the masked side group
    side_elems = {
        x.conjugated_by(a.mask) for x in enumerate_elements(ctx.side_chain(a.side))
    }
    assert all(p in side_elems for p in a.payload)


def test_draw_challenge_builds_no_chain(monkeypatch):
    # the batch comes from the side chain's own sampling table, conjugated
    # by the mask, not from a chain of the masked group
    ctx = ctx_of(NO_M4)
    ctx.chain_u, ctx.side_chain(0), ctx.side_chain(1)  # the context's own chains, built before the count
    made = []
    init = StabilizerChain.__init__
    monkeypatch.setattr(StabilizerChain, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    for seed in range(20):
        draw_challenge(ctx, 16, RandomTape(seed))
    assert made == []


def test_draw_challenge_batch_is_iid_not_generating():
    # with k large the batch almost surely generates, but nothing enforces
    # it: a k=1 batch from a 2-element group is the identity half the time
    ctx = ctx_of(NO_M4)
    draws = [draw_challenge(ctx, 1, RandomTape(seed)) for seed in range(200)]
    identity_batches = sum(1 for d in draws if d.payload[0] == Permutation.identity(ctx.degree))
    assert 50 < identity_batches < 150


def test_challenge_matched_requires_bytes():
    assert challenge_matched(1, b"1")
    assert challenge_matched(0, b"0")
    assert challenge_matched(0, b"junk")  # junk decodes to 0 by convention
    assert not challenge_matched(1, b"0")
    assert not challenge_matched(0, 1)
    assert not challenge_matched(0, None)


def test_matched_sides_identifies_generating_batches():
    ctx = ctx_of(NO_M4)
    for seed in range(40):
        ch = draw_challenge(ctx, ctx.degree * 8, RandomTape(seed))
        chain_p = build_chain(GeneratingSet(ctx.degree, ch.payload))
        sides = matched_sides(ctx, ch.payload)
        if chain_p.order() == ctx.side_chain(ch.side).order():
            # batch generates the masked group: on this instance the sides
            # are not conjugate in <U>, so the side is pinned down uniquely
            assert sides == (ch.side,)


def test_matched_sides_tie_on_conjugate_groups():
    # tiny fixture: <A0> and <A1> are literally the same cyclic group, so
    # every generating batch matches both sides and the brute responder
    # falls back to 0
    ctx = ctx_of(TINY)
    ch = draw_challenge(ctx, 24, RandomTape(5))
    assert matched_sides(ctx, ch.payload) == (0, 1)
    assert brute_force_responder()(ctx, ch.payload) == b"0"


def test_matched_sides_neither_on_small_batch():
    # identity-only batch generates the trivial group, matching no side
    ctx = ctx_of(NO_M4)
    payload = (Permutation.identity(4),) * 3
    assert matched_sides(ctx, payload) == ()
    assert brute_force_responder()(ctx, payload) == b"0"


AGREEMENT_FIXTURES = ["no_m3", "no_m4", "no_m6", "tiny_cyclic", "q2_groups", "trans_pair", "s4_pair"]


def test_matched_sides_agrees_with_direct_definition():
    # oracle: conjugate the payload group by every v and compare group
    # equality on the nose, the slow symmetric formulation; the fixtures
    # and KLEIN take the table path, S5_SHIFT the scan.  The drawn batches
    # never spread over two U-conjugates of a side of their order, so
    # KLEIN's hand-built payload is the case where the AND decides
    for path in [f"fixtures/{name}.txt" for name in AGREEMENT_FIXTURES] + [S5_SHIFT, KLEIN]:
        ctx = ctx_of(path)
        if path == KLEIN:
            payloads = [KLEIN_PAYLOAD]
        else:
            payloads = [draw_challenge(ctx, k, RandomTape(seed)).payload for k in (1, 2, 8 * ctx.degree) for seed in range(4)]
        for payload in payloads:
            gset_p = GeneratingSet(ctx.degree, payload)
            slow = tuple(
                side
                for side in (0, 1)
                if any(
                    group_equal(conjugated_set(gset_p, v.inverse()), ctx.instance.side(side))
                    for v in ctx.u_elements()
                )
            )
            assert matched_sides(ctx, payload) == scan_matched_sides(ctx, payload) == slow
        has_tables = [ctx.side_conjugates(side) is not None for side in (0, 1)]
        assert has_tables == ([False, False] if path == S5_SHIFT else [True, True])
    assert matched_sides(klein_ctx(), KLEIN_PAYLOAD) == (1,)


def test_candidate_commits_refuse_k_below_1_and_sides_without_tables():
    # S5_SHIFT's sides are over its cap of 100, so neither has a table of
    # U-conjugates for the exact check's candidate walk
    ctx = s5_shift_ctx()
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        ctx.candidate_commits(0)
    with pytest.raises(BudgetExceeded, match="^the sides' U-conjugates exceed cap 100$"):
        ctx.candidate_commits(2)


# StabilizerChain.contains calls that scan_matched_sides makes on the
# challenges draw_challenge(ctx, 8m, RandomTape(seed)) for seeds 0-9, counted
# on the Permutation-based engine that the raw-image one replaced
SCAN_CONTAINS = {
    NO_M4: [4, 10, 1, 1, 6, 4, 10, 1, 3, 3],
    NO_M6: [21, 11, 1, 12, 6, 180, 19, 102, 13, 56],
}


@pytest.mark.parametrize("path", sorted(SCAN_CONTAINS))
def test_matched_sides_makes_the_same_contains_calls(path, monkeypatch):
    ctx = ctx_of(path)
    counts = []
    contains = StabilizerChain.contains

    def counted(self, y):
        counts[-1] += 1
        return contains(self, y)

    challenges = [draw_challenge(ctx, 8 * ctx.degree, RandomTape(seed)) for seed in range(10)]
    monkeypatch.setattr(StabilizerChain, "contains", counted)
    for ch in challenges:
        counts.append(0)
        assert scan_matched_sides(ctx, ch.payload) == (ch.side,)
    assert counts == SCAN_CONTAINS[path]
    # the table path, tables built here included, tests no membership
    counts.append(0)
    for ch in challenges:
        assert matched_sides(ctx, ch.payload) == (ch.side,)
    assert counts[-1] == 0


def test_responder_registry():
    # every registered responder is a plain function (ctx, payload) -> bytes;
    # each answers one composed session on the same challenge
    assert set(STANDARD_RESPONDERS) == {"brute", "const0", "const1"}
    assert constant_responder(1)(None, ()) == b"1"
    ctx = ctx_of(NO_M4)
    params = params_for(ctx.instance, t=1)
    for name, make in STANDARD_RESPONDERS.items():
        out = run_composed(ctx, params, make(), random.Random(0))
        (session_out,) = out.outcomes
        challenge, reply = session_out.view.messages
        side = session_out.counters["side"]
        if name == "brute":
            assert matched_sides(ctx, challenge.payload) == (side,)
            assert reply.payload == bit_payload(side)
        else:
            assert reply.payload == bit_payload(int(name[-1]))
        assert out.accepted == (reply.payload == bit_payload(side))


def test_session_shape_and_counters():
    ctx = ctx_of(NO_M4)
    params = params_for(ctx.instance)
    out = run_session(lambda rng_p, tape_v: session(ctx, params, brute_force_responder(), rng_p, tape_v))
    assert [m.sender for m in out.view.messages] == ["V", "P"]
    assert out.counters["side"] in (0, 1)
    assert len(out.counters["round_ns"]) == 3
    # verifier consumed 1 side bit + mask draws + k element draws
    assert out.view.r_prefix.draws >= 1 + params.k


@pytest.mark.parametrize("path,m", [(NO_M4, 4), (NO_M6, 6)])
def test_brute_responder_completeness(path, m):
    ctx = ctx_of(path)
    params = params_for(ctx.instance, t=1)
    rng = random.Random(2)
    n = 200
    wins = sum(
        run_composed(ctx, params, brute_force_responder(), rng).accepted
        for _ in range(n)
    )
    # error only from non-generating batches; 8m iid draws miss rarely
    assert wins / n >= 1 - 2 ** (-m) - 0.05


def test_soundness_against_all_responders_on_conjugate_groups():
    ctx = ctx_of(TINY)
    params = params_for(ctx.instance, t=1)
    for name, make in STANDARD_RESPONDERS.items():
        rng = random.Random(7)
        n = 400
        wins = sum(
            run_composed(ctx, params, make(), rng).accepted for _ in range(n)
        )
        assert abs(wins / n - 0.5) < 0.08, f"{name} win rate {wins / n}"


def test_two_fold_composition_squares_the_cheat_rate():
    ctx = ctx_of(TINY)
    params = params_for(ctx.instance, t=2)
    rng = random.Random(13)
    n = 400
    wins = sum(
        run_composed(ctx, params, constant_responder(0), rng).accepted
        for _ in range(n)
    )
    assert abs(wins / n - 0.25) < 0.08


def test_parallel_composition_is_round_major():
    ctx = ctx_of(NO_M3)
    params = params_for(ctx.instance, t=3)
    out = run_composed(ctx, params, brute_force_responder(), random.Random(1), parallel=True)
    assert [(s, r) for s, r, _ in out.events] == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1),
    ]
    seq = run_composed(ctx, params, brute_force_responder(), random.Random(1), parallel=False)
    assert seq.accepted == out.accepted


def test_no_m3_brute_wins_despite_trivial_u():
    # U is empty, so the mask is the identity and the batch is naked; the
    # sides differ as literal groups and brute force always names the side
    ctx = ctx_of(NO_M3)
    params = params_for(ctx.instance, t=1)
    rng = random.Random(3)
    wins = sum(
        run_composed(ctx, params, brute_force_responder(), rng).accepted
        for _ in range(100)
    )
    assert wins >= 85


# A_4 on 1..4 against A_4 on 5..8 inside U = S_4 x S_4, the shape of the
# benchmark's non-conjugacy workload
A4_PAIR = """degree: 8
A0: 2 3 1 4 5 6 7 8; 1 3 4 2 5 6 7 8
A1: 1 2 3 4 6 7 5 8; 1 2 3 4 5 7 8 6
U: 2 1 3 4 5 6 7 8; 2 3 4 1 5 6 7 8; 1 2 3 4 6 5 7 8; 1 2 3 4 6 7 8 5
"""


def test_warm_sessions_build_no_generating_set(monkeypatch):
    # the verifier's batch is drawn from a conjugated chain and the prover
    # tests it on raw images, so neither re-checks what the program drew
    ctx = InstanceContext(parse_instance_text(A4_PAIR))
    params = params_for(ctx.instance)
    assert run_composed(ctx, params, brute_force_responder(), random.Random(0)).accepted
    built = []
    post_init = GeneratingSet.__post_init__
    monkeypatch.setattr(GeneratingSet, "__post_init__", lambda self: built.append(self) or post_init(self))
    out = run_composed(ctx, params, brute_force_responder(), random.Random(1))
    assert out.accepted and len(out.outcomes) == 2
    assert built == []
