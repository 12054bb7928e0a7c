"""Tapes, verifier programs, and session composition."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from permzk import framework, nonconjugacy
from permzk.conjugacy import InstanceContext
from permzk.element import ElementContext
from permzk.framework import (
    CompositeOutcome,
    Message,
    RandomTape,
    SessionOutcome,
    STANDARD_VERIFIERS,
    TapePrefix,
    VerifierProgram,
    bit_payload,
    challenge_bit,
    constant_verifier,
    honest_verifier,
    parity_verifier,
    render_payload,
    run_parallel,
    run_sequential,
)
from permzk.instances import load_instance
from permzk.perm import Permutation
from permzk.simulator import compare_view_distributions, verify_view_bijection

from helpers import run_session


def test_challenge_bit_strict_byte_decoding():
    assert challenge_bit(b"1") == 1
    for junk in (b"0", b"", b"01", b"2", b"11", b" 1", "1", 1, None):
        assert challenge_bit(junk) == 0
    assert bit_payload(1) == b"1"
    assert bit_payload(0) == b"0"
    assert challenge_bit(bit_payload(1)) == 1
    assert challenge_bit(bit_payload(0)) == 0


def test_random_tape_determinism_and_counter():
    a = RandomTape(99)
    b = RandomTape(99)
    draws_a = [a.randrange(10), a.bit(), a.getrandbits(16)]
    draws_b = [b.randrange(10), b.bit(), b.getrandbits(16)]
    assert draws_a == draws_b
    assert a.consumed == 3
    assert a.prefix() == TapePrefix(99, 3)
    assert RandomTape(100).randrange(1 << 30) != RandomTape(101).randrange(1 << 30)


TAPE_OPS = st.one_of(
    st.tuples(st.just("randrange"), st.integers(1, 1 << 40)),
    st.tuples(st.just("bit"), st.just(0)),
    st.tuples(st.just("getrandbits"), st.integers(1, 96)),
    st.tuples(st.just("index_draws"), st.integers(0, 5)),
)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 1 << 64), ops=st.lists(TAPE_OPS, max_size=12))
def test_lazy_tape_draws_what_an_eager_stream_draws(seed, ops):
    # the tape seeds its stream on the first draw; the values, the counter
    # and the prefix are those of random.Random(seed) drawn from at once
    tape, eager = RandomTape(seed), random.Random(seed)
    consumed = 0
    for op, n in ops:
        if op == "randrange":
            assert tape.randrange(n) == eager.randrange(n)
            consumed += 1
        elif op == "bit":
            assert tape.bit() == eager.randrange(2)
            consumed += 1
        elif op == "getrandbits":
            assert tape.getrandbits(n) == eager.getrandbits(n)
            consumed += 1
        else:
            getrandbits = tape.index_draws(n)
            assert [getrandbits(7) for _ in range(n)] == [eager.getrandbits(7) for _ in range(n)]
            consumed += n
        assert tape.prefix() == TapePrefix(seed, consumed)
    assert tape.getrandbits(64) == eager.getrandbits(64)


@pytest.fixture
def seedings(monkeypatch):
    """A list that gets one entry per random.Random seeding from now on."""
    seeded = []
    seed = random.Random.seed

    def counted(self, *args, **kwargs):
        seeded.append(args)
        return seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counted)
    return seeded


@pytest.mark.parametrize("fixture", ["tiny_cyclic", "q2_groups", "ec_yes_m3"])
def test_exact_checks_seed_no_tape_for_programs_that_never_draw(fixture, seedings):
    inst = load_instance(f"fixtures/{fixture}.txt")
    ctx = ElementContext(inst) if fixture.startswith("ec_") else InstanceContext(inst)
    k = 1 if fixture.startswith("ec_") else 2
    for name in ("const0", "const1", "parity", "honest"):
        program = STANDARD_VERIFIERS[name]()
        for tape_seed in range(3):
            compare_view_distributions(ctx, program, tape_seed=tape_seed, k=k, exact=True)
            verify_view_bijection(ctx, program, tape_seed, k)
        # the honest program draws a bit, so its tapes are seeded
        assert (len(seedings) > 0) == (name == "honest"), name


def test_warm_stat_check_seeds_one_verifier_stream_per_call(seedings):
    # every simulator attempt and every real view replays the verifier on
    # one tape seed; the call reads one buffer of that seed's words
    ctx = InstanceContext(load_instance("fixtures/q2_groups.txt"))
    program = honest_verifier()
    compare_view_distributions(ctx, program, tape_seed=0, k=24, samples=200, rng=random.Random(0))
    rngs = [random.Random(seed) for seed in range(1, 4)]
    seedings.clear()
    for tape_seed, rng in enumerate(rngs):
        compare_view_distributions(ctx, program, tape_seed=tape_seed, k=24, samples=200, rng=rng)
    assert len(seedings) == len(rngs)


@pytest.mark.parametrize("fixture", ["tiny_cyclic", "q2_groups", "ec_yes_m3"])
def test_honest_exact_checks_seed_one_verifier_stream_per_call(fixture, seedings):
    inst = load_instance(f"fixtures/{fixture}.txt")
    ctx = ElementContext(inst) if fixture.startswith("ec_") else InstanceContext(inst)
    k = 1 if fixture.startswith("ec_") else 2
    program = honest_verifier()
    compare_view_distributions(ctx, program, tape_seed=0, k=k, exact=True)
    seedings.clear()
    for tape_seed in range(3):
        compare_view_distributions(ctx, program, tape_seed=tape_seed, k=k, exact=True)
        verify_view_bijection(ctx, program, tape_seed, k)
    assert len(seedings) == 6


def test_non_conjugacy_run_seeds_only_the_verifier_tapes(seedings):
    # the brute-force responder never reads its prover stream, so a t=2 run
    # seeds the two verifier tapes and nothing else
    ctx = InstanceContext(load_instance("fixtures/no_m4.txt"))
    params = nonconjugacy.params_for(ctx.instance, t=2)
    rng = random.Random(0)
    seedings.clear()
    nonconjugacy.run_composed(ctx, params, nonconjugacy.brute_force_responder(), rng)
    assert len(seedings) == 2


def test_render_payload_forms():
    assert render_payload(Permutation([2, 1, 3])) == "2 1 3"
    assert render_payload(b"1") == "1"
    assert render_payload((Permutation([1, 2]), Permutation([2, 1]))) == "1 2;2 1"
    assert render_payload(7) == "7"


def test_honest_verifier_uses_one_tape_bit():
    program = honest_verifier()
    tape = RandomTape(5)
    expected = bit_payload(RandomTape(5).bit())
    assert program.challenge(None, tape, commit=None) == expected
    assert tape.consumed == 1
    assert program.tape_budget == 1


def test_constant_verifiers_ignore_everything():
    tape = RandomTape(1)
    assert constant_verifier(0).challenge(None, tape, b"x") == b"0"
    assert constant_verifier(1).challenge(None, tape, b"x") == b"1"
    assert tape.consumed == 0
    assert constant_verifier(0).name == "const0"


def test_parity_verifier_counts_fixed_points():
    program = parity_verifier()
    tape = RandomTape(1)
    # 2 1 3 has one fixed point, 1 2 3 has three: parity 0 in total
    commit = (Permutation([2, 1, 3]), Permutation([1, 2, 3]))
    assert program.challenge(None, tape, commit) == b"0"
    assert program.challenge(None, tape, Permutation([1, 2, 3])) == b"1"
    assert program.challenge(None, tape, b"not perms") == b"0"
    assert tape.consumed == 0


def test_standard_verifiers_registry():
    assert set(STANDARD_VERIFIERS) == {"honest", "const0", "const1", "parity"}
    for name, make in STANDARD_VERIFIERS.items():
        assert make().name == name


def test_tape_budget_enforced():
    greedy = VerifierProgram(
        "greedy", lambda inst, tape, commit: bit_payload(tape.bit() ^ tape.bit()), tape_budget=1
    )
    with pytest.raises(RuntimeError, match="over its budget"):
        greedy.challenge(None, RandomTape(0), None)
    unbounded = VerifierProgram(
        "free", lambda inst, tape, commit: bit_payload(tape.bit() ^ tape.bit())
    )
    assert unbounded.challenge(None, RandomTape(0), None) in (b"0", b"1")


def _toy_session(rng_p, tape_v):
    """Two-round echo session: P sends a random byte, V answers a bit; the
    session accepts iff the bit is 0."""
    value = rng_p.randrange(256)
    yield Message("P", bytes([value]))
    bit = tape_v.bit()
    yield Message("V", bit_payload(bit))
    return bit == 0, {"value": value}


def test_run_session_returns_outcome():
    outcome = run_session(_toy_session)
    assert isinstance(outcome, SessionOutcome)
    assert outcome.accepted in (True, False)


def test_sequential_and_parallel_agree():
    for seed in range(30):
        seq = run_sequential(_toy_session, 3, random.Random(seed))
        par = run_parallel(_toy_session, 3, random.Random(seed))
        assert seq.accepted == par.accepted
        assert [o.accepted for o in seq.outcomes] == [o.accepted for o in par.outcomes]
        # round_ns holds wall-clock times, which differ from run to run
        untimed = [[{k: v for k, v in o.counters.items() if k != "round_ns"} for o in run.outcomes] for run in (seq, par)]
        assert untimed[0] == untimed[1]
        # same multiset of events, different interleaving
        assert sorted(seq.events) == sorted(par.events)


def test_event_ordering_session_major_vs_round_major():
    seq = run_sequential(_toy_session, 2, random.Random(1))
    par = run_parallel(_toy_session, 2, random.Random(1))
    assert [(s, r) for s, r, _ in seq.events] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [(s, r) for s, r, _ in par.events] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_composite_accepts_iff_all_accept():
    for seed in range(40):
        out = run_sequential(_toy_session, 4, random.Random(seed))
        assert out.accepted == all(o.accepted for o in out.outcomes)


def test_run_composed_rejects_bad_t():
    with pytest.raises(ValueError):
        run_sequential(_toy_session, 0, random.Random(0))
    with pytest.raises(ValueError):
        run_parallel(_toy_session, 0, random.Random(0))


class Boom(Exception):
    pass


def _counted_sessions(lengths, fail_at=None):
    """A make_session whose i-th session sends lengths[i] messages and
    accepts iff that count is even; with fail_at = (i, r), session i raises
    Boom when asked for message r.  The returned list collects the index of
    each session made, in order."""
    made = []

    def make(rng_p, tape_v):
        index = len(made)
        made.append(index)
        return echo(index, lengths[index], rng_p, tape_v)

    def echo(index, n, rng_p, tape_v):
        for r in range(n):
            if (index, r) == fail_at:
                raise Boom(index)
            yield Message("P", bytes([index, r, rng_p.randrange(256)]))
        return n % 2 == 0, {"rounds": n}

    return make, made


def _state_after_spawns(seed: int, sessions: int):
    """The parent rng's state once `sessions` sessions have drawn their
    prover and verifier seeds from it."""
    rng = random.Random(seed)
    for _ in range(2 * sessions):
        rng.getrandbits(64)
    return rng.getstate()


UNEVEN = (3, 0, 1, 2)


@pytest.mark.parametrize(
    "runner,order",
    [
        (run_sequential, [(0, 0), (0, 1), (0, 2), (2, 0), (3, 0), (3, 1)]),
        (run_parallel, [(0, 0), (2, 0), (3, 0), (0, 1), (3, 1), (0, 2)]),
    ],
)
def test_uneven_session_lengths(runner, order):
    # a session that ends early leaves the lockstep rounds without holding
    # up the others, and outcomes stay in session order
    make, made = _counted_sessions(UNEVEN)
    rng = random.Random(8)
    out = runner(make, len(UNEVEN), rng)
    assert [(s, r) for s, r, _ in out.events] == order
    assert [msg.payload[:2] for _, _, msg in out.events] == [bytes(sr) for sr in order]
    assert [o.counters["rounds"] for o in out.outcomes] == list(UNEVEN)
    # each outcome's view holds its own session's events, in order, and
    # round_ns times each message and the verdict
    for s_idx, o in enumerate(out.outcomes):
        assert o.view.messages == tuple(msg for s, _, msg in out.events if s == s_idx)
        assert len(o.counters["round_ns"]) == len(o.view.messages) + 1
    assert out.accepted is False
    assert made == [0, 1, 2, 3]
    assert rng.getstate() == _state_after_spawns(8, len(UNEVEN))


@pytest.mark.parametrize("runner", [run_sequential, run_parallel])
def test_round_ns_times_each_sessions_own_steps(runner, monkeypatch):
    # a clock that only the sessions advance: each step of a session costs
    # that session's cost, so its round_ns reads that cost per step, however
    # the runner interleaves the sessions' steps
    now = [0]
    monkeypatch.setattr(framework.time, "perf_counter_ns", lambda: now[0])

    def session(cost):
        for r in range(3):
            now[0] += cost
            yield Message("P", bytes([r]))
        now[0] += cost
        return True, {}

    costs = (1, 10, 100)
    spawned = iter(costs)
    out = runner(lambda rng_p, tape_v: session(next(spawned)), len(costs), random.Random(0))
    assert [o.counters["round_ns"] for o in out.outcomes] == [(c, c, c, c) for c in costs]


@pytest.mark.parametrize("runner,spawned", [(run_sequential, 3), (run_parallel, 4)])
def test_session_raising_part_way(runner, spawned):
    # sequential spawns a session only when it starts, so a failure in
    # session 2 leaves session 3 undrawn; parallel spawns all t up front
    make, made = _counted_sessions((2, 2, 2, 2), fail_at=(2, 1))
    rng = random.Random(5)
    with pytest.raises(Boom):
        runner(make, 4, rng)
    assert made == list(range(spawned))
    assert rng.getstate() == _state_after_spawns(5, spawned)


def test_render_transcript_exact():
    events = (
        (0, 0, Message("P", Permutation([2, 1]))),
        (0, 1, Message("V", b"1")),
    )
    assert CompositeOutcome(True, (), events).transcript() == "s1.r1 P 2 1\ns1.r2 V 1\nACCEPT\n"
    assert CompositeOutcome(False, (), ()).transcript() == "REJECT\n"
