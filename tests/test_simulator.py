"""Rewinding simulator and its perfect zero-knowledge guarantees.

The exact-mode checks rely on enumerate_consistent_views, which builds the
consistent-view set from the verifier alone and knows nothing about the
prover or the simulator: ctx.accepted_responses asks ctx.accepts, the live
verifier's predicate, of every response in <U>, so a planted verifier
defect shows in the exact check.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permzk import conjugacy, engine, simulator
from permzk.conjugacy import (
    TUPLE_LENGTH_FACTOR,
    GroupConjInstance,
    GuessingProver,
    HonestProver,
    InstanceContext,
    ProtocolParams,
    session,
)
from permzk.element import ElemConjInstance, ElementContext
from permzk.engine import BudgetExceeded, GeneratingSet
from permzk.framework import (
    STANDARD_VERIFIERS,
    RandomTape,
    Replays,
    TapePrefix,
    VerifierProgram,
    bit_payload,
    challenge_bit,
    constant_verifier,
    honest_verifier,
    parity_verifier,
)
from permzk.instances import load_instance, parse_instance_text
from permzk.perm import Permutation
from permzk.simulator import (
    bucket_of_commit,
    compare_view_distributions,
    enumerate_consistent_views,
    exact_real_law,
    exact_sim_law,
    randomness_of_view,
    real_view,
    simulate,
    simulated_view,
    total_variation,
    verify_view_bijection,
    view_from_randomness,
)

from helpers import (
    DEGREE_300_TEXT,
    IdentityWitnessContext,
    reference_exact_real_law,
    reference_exact_sim_law,
    refusing_the_identity,
    run_session,
    simulated_view_keeping_misses,
    simulated_view_without_restarts,
    view_revealing_the_bare_mask,
)

TINY = "fixtures/tiny_cyclic.txt"
Q2_GROUPS = "fixtures/q2_groups.txt"
NO_M4 = "fixtures/no_m4.txt"


def ctx_of(path):
    return InstanceContext(load_instance(path))


def tape_spy(inner):
    """Wrap a program to log the tape seed, draw count and commitment of
    every call."""
    calls = []

    def choose(inst, tape, commit):
        out = inner.choose(inst, tape, commit)
        calls.append((tape.seed, tape.consumed, commit))
        return out

    return VerifierProgram(inner.name, choose, tape_budget=inner.tape_budget), calls


def side_detector():
    """Defeats the side guess on the no_m4 fixture: the two sides have
    disjoint cycle-type profiles, so the commit betrays the sampled side
    and the challenge always lands on the other one."""

    def choose(inst, tape, commit):
        for p in commit:
            if p != Permutation.identity(p.degree):
                return b"1" if p.cycle_type() == (1, 1, 2) else b"0"
        return b"0"

    return VerifierProgram("sidedetect", choose, tape_budget=0)


class AttemptRecordingContext(InstanceContext):
    """A context that records each simulator attempt: the side guess and
    the mask w of every sample_commit call, with the commitment it drew."""

    def __init__(self, instance):
        super().__init__(instance)
        self.sides, self.masks = [], []

    def sample_commit(self, side, k, rng, w):
        commit, attempts = super().sample_commit(side, k, rng, w)
        self.sides.append(side)
        self.masks.append((w, commit))
        return commit, attempts


def test_simulate_reuses_one_tape_seed_across_restarts():
    ctx = AttemptRecordingContext(load_instance(TINY))
    spy, calls = tape_spy(honest_verifier())
    res = simulate(ctx, spy, random.Random(3), k=TUPLE_LENGTH_FACTOR * ctx.degree, replays=Replays(77))
    assert len(calls) == len(ctx.sides) == len(ctx.masks) == res.restarts
    assert all(seed == 77 for seed, _, _ in calls)
    # each attempt gets a fresh tape, so the draw counter never accumulates
    assert all(consumed == 1 for _, consumed, _ in calls)
    assert res.view.r_prefix == TapePrefix(77, 1)


def test_simulate_is_deterministic_in_rng_and_tape():
    ctx = ctx_of(Q2_GROUPS)
    a = simulate(ctx, honest_verifier(), random.Random(8), k=4, replays=Replays(5))
    b = simulate(ctx, honest_verifier(), random.Random(8), k=4, replays=Replays(5))
    assert a.view == b.view
    assert (a.restarts, a.sample_attempts) == (b.restarts, b.sample_attempts)


def test_simulate_stops_on_matching_side():
    ctx = AttemptRecordingContext(load_instance(TINY))
    program = honest_verifier()
    res = simulate(ctx, program, random.Random(1), k=TUPLE_LENGTH_FACTOR * ctx.degree, replays=Replays(9))
    assert len(ctx.sides) == len(ctx.masks) == res.restarts
    bits = [challenge_bit(program.challenge(ctx.instance, RandomTape(9), commit)) for _, commit in ctx.masks]
    assert bits[-1] == ctx.sides[-1]
    for bit, side in zip(bits[:-1], ctx.sides[:-1]):
        assert bit != side
    last_mask, last_commit = ctx.masks[-1]
    assert res.view.commit == last_commit
    assert res.view.response == last_mask
    assert res.sample_attempts >= res.restarts >= 1


def test_simulated_and_real_views_are_consistent():
    ctx = ctx_of(TINY)
    k = 3
    for program in (honest_verifier(), constant_verifier(0), parity_verifier()):
        consistent = set(enumerate_consistent_views(ctx, program, Replays(11), k))
        rng = random.Random(4)
        for _ in range(10):
            assert simulate(ctx, program, rng, k=k, replays=Replays(11)).view in consistent
            assert real_view(ctx, program, rng, k=k, replays=Replays(11)) in consistent


def test_randomness_round_trip():
    # the constant programs emit each challenge bit, so both of
    # randomness_of_view's branches run, the witness branch included
    ctx = ctx_of(Q2_GROUPS)
    rng = random.Random(6)
    masked = ctx.masked_commits(1, 2)
    bits = set()
    for program in (honest_verifier(), constant_verifier(0), constant_verifier(1)):
        for _ in range(25):
            mask, commit = masked[rng.randrange(len(masked))]
            view = view_from_randomness(ctx, program, Replays(13), commit, mask)
            bits.add(challenge_bit(view.challenge))
            assert randomness_of_view(ctx, view) == (mask, commit)
    assert bits == {0, 1}


# every yes-instance fixture; k = 2 and 3 have generating tuples on all
YES_FIXTURES = (
    "fixtures/tiny_cyclic.txt",
    "fixtures/q2_groups.txt",
    "fixtures/s4_pair.txt",
    "fixtures/trans_pair.txt",
    "fixtures/embed_s3.txt",
    "fixtures/ec_yes_m3.txt",
)
YES_CONTEXTS = {}


def fresh_context(path):
    inst = load_instance(path)
    return (ElementContext if isinstance(inst, ElemConjInstance) else InstanceContext)(inst)


def yes_context(path):
    if path not in YES_CONTEXTS:
        YES_CONTEXTS[path] = fresh_context(path)
    return YES_CONTEXTS[path]


def exact_report(ctx, program, tape_seed, k):
    """The exact comparison's report with the bijection verdict added."""
    return dict(
        compare_view_distributions(ctx, program, tape_seed=tape_seed, k=k, exact=True),
        bijection=verify_view_bijection(ctx, program, tape_seed, k),
    )


@st.composite
def prover_randomness(draw):
    """A yes-instance fixture, a verifier program and tape, and one value of
    the honest prover's randomness: a mask and a commitment for side 1
    masked by it."""
    ctx = yes_context(draw(st.sampled_from(YES_FIXTURES)))
    k = draw(st.integers(2, 3))
    program = STANDARD_VERIFIERS[draw(st.sampled_from(sorted(STANDARD_VERIFIERS)))]()
    mask, commit = draw(st.sampled_from(ctx.masked_commits(1, k)))
    return ctx, program, draw(st.integers(0, 2**32)), mask, commit


@settings(max_examples=150, deadline=None, derandomize=True)
@given(prover_randomness())
def test_randomness_of_view_inverts_view_from_randomness(case):
    ctx, program, tape_seed, mask, commit = case
    view = view_from_randomness(ctx, program, Replays(tape_seed), commit, mask)
    assert randomness_of_view(ctx, view) == (mask, commit)


@st.composite
def simulator_randomness(draw):
    """A yes-instance fixture, a verifier program and tape, and one value of
    the simulator's per-attempt randomness: a side guess, a mask and a
    commitment for that side masked by it."""
    ctx = yes_context(draw(st.sampled_from(YES_FIXTURES)))
    k = draw(st.integers(2, 3))
    program = STANDARD_VERIFIERS[draw(st.sampled_from(sorted(STANDARD_VERIFIERS)))]()
    side = draw(st.integers(0, 1))
    mask, commit = draw(st.sampled_from(ctx.masked_commits(side, k)))
    return ctx, program, draw(st.integers(0, 2**32)), side, mask, commit


@settings(max_examples=150, deadline=None, derandomize=True)
@given(simulator_randomness())
def test_simulated_view_restarts_exactly_when_the_challenge_misses_the_side(case):
    ctx, program, tape_seed, side, mask, commit = case
    view = simulated_view(ctx, program, Replays(tape_seed), side, commit, mask)
    challenge = program.challenge(ctx.instance, RandomTape(tape_seed), commit)
    assert (view is None) == (challenge_bit(challenge) != side)
    if view is not None:
        assert (view.commit, view.challenge, view.response) == (commit, challenge, mask)
        # on side 1 the simulator's map and the honest prover's map agree
        assert side == 0 or view == view_from_randomness(ctx, program, Replays(tape_seed), commit, mask)


@pytest.mark.parametrize("name", sorted(STANDARD_VERIFIERS))
def test_maps_read_a_replays_with_or_without_its_table_alike(name):
    # one Replays kept across every (mask, commit) pair replays the program
    # afresh each time without a table and once per commitment with one;
    # the views must be the same
    ctx = yes_context(Q2_GROUPS)
    program = STANDARD_VERIFIERS[name]()
    for tape_seed in range(3):
        tapes = (Replays(tape_seed), Replays(tape_seed, {}))
        for side in (0, 1):
            for mask, commit in ctx.masked_commits(side, 2):
                views = [simulated_view(ctx, program, tape, side, commit, mask) for tape in tapes]
                assert len(set(views)) == 1, (tape_seed, side)
                if side:
                    views = [view_from_randomness(ctx, program, tape, commit, mask) for tape in tapes]
                    assert len(set(views)) == 1, tape_seed


def test_view_from_randomness_matches_real_protocol():
    # real_view and view_from_randomness are the same map, so replaying a
    # real view's recovered randomness must reproduce it exactly
    ctx = ctx_of(TINY)
    program = parity_verifier()
    rng = random.Random(21)
    for _ in range(10):
        view = real_view(ctx, program, rng, k=3, replays=Replays(2))
        mask, commit = randomness_of_view(ctx, view)
        assert (mask, commit) in ctx.masked_commits(1, 3)
        assert view_from_randomness(ctx, program, Replays(2), commit, mask) == view


@pytest.mark.parametrize("maker", [honest_verifier, lambda: constant_verifier(0), lambda: constant_verifier(1), parity_verifier])
def test_bijection_on_tiny_fixture(maker):
    ctx = ctx_of(TINY)
    for tape_seed in (0, 1, 2):
        assert verify_view_bijection(ctx, maker(), tape_seed, k=3)


def test_bijection_detects_corrupt_witness():
    # with the wrong witness the inverse map still recovers the randomness,
    # but the images on challenge 0 reveal a response the verifier rejects:
    # they leave the consistent set, so the bijection check must fail
    ctx = ctx_of(Q2_GROUPS)
    assert verify_view_bijection(ctx, constant_verifier(0), 0, k=2)
    bad = IdentityWitnessContext(load_instance(Q2_GROUPS))
    assert not verify_view_bijection(bad, constant_verifier(0), 0, k=2)


# (fixture, k) of the consistent-view oracle's tests; the element fixture's
# commitment is one permutation whatever k is
ORACLE_FAMILIES = (
    ("tiny_cyclic", 2),
    ("tiny_cyclic", 3),
    ("q2_groups", 2),
    ("q2_groups", 3),
    ("embed_s3", 2),
    ("ec_yes_m3", 1),
)

# sha256 over repr(enumerate_consistent_views(ctx, program, Replays(seed), k))
# for the programs of STANDARD_VERIFIERS in sorted order, seeds 0-2 each,
# taken from the per-response oracle that called ctx.accepts for every
# (candidate commitment, w in <U>) pair
GOLDEN_VIEW_SETS = {
    ("tiny_cyclic", 2): (288, "7761c7668e0c3abb9a46aa2c457482f4ed2fa3cd7c439b140be0764109416ab2"),
    ("tiny_cyclic", 3): (936, "a6a8fa72ece955f409c04f7ccd9b91fd310d338fa859f88494d008ff55f136e4"),
    ("q2_groups", 2): (192, "9c8dcba739925b918dc34f070e1b6fca5b83729f55fe82dfd65b8912c08e623f"),
    ("q2_groups", 3): (624, "6a129a384ded545e5d9cb0334b4dcc3f37fff9965dec28d6d0eb56d46300648e"),
    ("embed_s3", 2): (1080, "a50ebe7c7c79e967ade2adbb8b531e4f2760e250b13db6bda79cb195c5c1d638"),
    ("ec_yes_m3", 1): (24, "9e207ad458d3f21753376d9af42170f6b7c83c30e0015e12e8600db71ae6a0fc"),
}


@pytest.mark.parametrize("fixture, k", ORACLE_FAMILIES)
def test_accepted_responses_agree_with_accepts(fixture, k):
    ctx = yes_context(f"fixtures/{fixture}.txt")
    accepted = 0
    elems = ctx._conjugates_of_sides()
    for commit in elems if isinstance(ctx, ElementContext) else itertools.product(elems, repeat=k):
        for challenge in (bit_payload(0), bit_payload(1)):
            expected = tuple(w for w in ctx.u_elements() if ctx.accepts(commit, challenge, w))
            assert ctx.accepted_responses(commit, challenge) == expected
            accepted += len(expected)
    assert accepted > 0


@pytest.mark.parametrize("fixture, k", ORACLE_FAMILIES)
def test_candidate_commits_are_the_product_less_empty_masks(fixture, k):
    # oracle over <U>: a candidate is a k-tuple that some u in <U> puts
    # inside side 0 or side 1 conjugated by u, or, for the element
    # protocol, a lone conjugate; listed in itertools.product order over
    # the sorted conjugates of the sides' members
    ctx = yes_context(f"fixtures/{fixture}.txt")
    element = isinstance(ctx, ElementContext)
    conjugates = [sorted(x.conjugated_by(u)._img for x in ctx.side_members(side))
                  for side in (0, 1) for u in ctx.u_elements()]
    length = 1 if element else k
    tuples = list(itertools.product(sorted({x for members in conjugates for x in members}), repeat=length))
    held = {t for members in conjugates for t in itertools.product(members, repeat=length)}

    def as_commit(images):
        perms = tuple(map(Permutation._raw, images))
        return perms[0] if element else perms

    unpruned = list(map(as_commit, tuples))
    expected = [as_commit(t) for t in tuples if t in held]
    assert list(ctx.candidate_commits(k)) == expected
    # every commitment left out has no accepted response on either side
    for commit in set(unpruned) - set(expected):
        assert not ctx.accepted_responses(commit, bit_payload(0))
        assert not ctx.accepted_responses(commit, bit_payload(1))


@pytest.mark.parametrize("fixture, k", ORACLE_FAMILIES)
def test_consistent_view_sets_match_golden_digests(fixture, k):
    ctx = yes_context(f"fixtures/{fixture}.txt")
    digest = hashlib.sha256()
    count = 0
    for name in sorted(STANDARD_VERIFIERS):
        for tape_seed in range(3):
            views = enumerate_consistent_views(ctx, STANDARD_VERIFIERS[name](), Replays(tape_seed), k)
            count += len(views)
            digest.update(repr(views).encode())
    assert (count, digest.hexdigest()) == GOLDEN_VIEW_SETS[fixture, k]


@pytest.mark.parametrize("name", sorted(STANDARD_VERIFIERS))
@pytest.mark.parametrize("fixture, k", [("q2_groups", 3), ("embed_s3", 2)])
def test_exact_checks_replay_each_commitment_once_per_call(fixture, k, name):
    ctx = yes_context(f"fixtures/{fixture}.txt")
    spy, calls = tape_spy(STANDARD_VERIFIERS[name]())
    checks = (
        lambda: compare_view_distributions(ctx, spy, tape_seed=1, k=k, exact=True),
        lambda: verify_view_bijection(ctx, spy, 1, k),
    )
    for check in checks:
        replayed = []
        for _ in range(2):
            calls.clear()
            check()
            commits = [commit for _, _, commit in calls]
            assert len(set(commits)) == len(commits) > 0
            replayed.append(len(commits))
        # the same program on the same context and tape replays as often the
        # second time: no table outlives a call
        assert replayed[0] == replayed[1]


# the benchmark's exact families plus the element fixture
EXACT_REPORT_FAMILIES = (
    ("tiny_cyclic", 2),
    ("q2_groups", 2),
    ("q2_groups", 3),
    ("q2_groups", 4),
    ("embed_s3", 2),
    ("ec_yes_m3", 1),
)
# sha256 over repr(dict(compare_view_distributions(..., exact=True),
# bijection=verify_view_bijection(...))) for those families in order, the
# programs of STANDARD_VERIFIERS in sorted order and tape seeds 0-2 each,
# taken when every law entry and candidate commitment replayed the program
GOLDEN_EXACT_REPORTS = "d8cac271b3f0e7ef2ec10698241d4cd4f2bf67c76f6f6061d7d2117c2b392390"


def test_exact_reports_match_golden_digest():
    digest = hashlib.sha256()
    for fixture, k in EXACT_REPORT_FAMILIES:
        ctx = yes_context(f"fixtures/{fixture}.txt")
        for name in sorted(STANDARD_VERIFIERS):
            for tape_seed in range(3):
                report = exact_report(ctx, STANDARD_VERIFIERS[name](), tape_seed, k)
                digest.update(repr(report).encode())
    assert digest.hexdigest() == GOLDEN_EXACT_REPORTS


# sha256 over repr(exact_report(...)) on IdentityWitnessContext, a wrong
# witness, for q2_groups k=2 then embed_s3 k=2, the programs of
# STANDARD_VERIFIERS in sorted order and tape seeds 0-2 each, taken when the
# exact checks masked and decided every commitment afresh on each call; the
# laws differ on most of these, with TV distances of 1, 1/2 and 1/3
GOLDEN_WRONG_WITNESS_REPORTS = "1f33ef6b975b03c29af3308a0671d716b3f0bfb02cc37cd3459dc61c4370670a"


def test_wrong_witness_reports_match_golden_digest():
    digest = hashlib.sha256()
    tvs = set()
    for fixture, k in (("q2_groups", 2), ("embed_s3", 2)):
        ctx = IdentityWitnessContext(load_instance(f"fixtures/{fixture}.txt"))
        for name in sorted(STANDARD_VERIFIERS):
            for tape_seed in range(3):
                report = exact_report(ctx, STANDARD_VERIFIERS[name](), tape_seed, k)
                tvs.add(report["tv_distance_upper"])
                digest.update(repr(report).encode())
    assert tvs == {0.0, 1.0, 0.5, 1 / 3}
    assert digest.hexdigest() == GOLDEN_WRONG_WITNESS_REPORTS


# the statistical check at small k and at the protocol's default k = 4m
STAT_REPORT_FAMILIES = (
    ("tiny_cyclic", 3),
    ("q2_groups", 2),
    ("q2_groups", 24),
    ("embed_s3", 2),
    ("ec_yes_m3", 1),
)
# sha256 over repr(sorted(report.items())) of compare_view_distributions in
# stat mode (60 samples, rng random.Random(7)) for those families in order,
# the programs of STANDARD_VERIFIERS in sorted order and tape seeds 0-1 each,
# taken when the commitment bucket was a 32-bit polynomial hash mod 8
GOLDEN_STAT_REPORTS = "2f76684cce1dd27418ecb852cd324b45c6c94cc24512b94183216a239b134b97"


def test_stat_reports_match_golden_digest():
    digest = hashlib.sha256()
    for fixture, k in STAT_REPORT_FAMILIES:
        ctx = yes_context(f"fixtures/{fixture}.txt")
        for name in sorted(STANDARD_VERIFIERS):
            for tape_seed in range(2):
                report = compare_view_distributions(
                    ctx, STANDARD_VERIFIERS[name](), tape_seed=tape_seed, k=k, samples=60, rng=random.Random(7)
                )
                digest.update(repr(sorted(report.items())).encode())
    assert digest.hexdigest() == GOLDEN_STAT_REPORTS


@pytest.mark.parametrize("fixture", ["q2_groups", "embed_s3"])
def test_exact_check_catches_a_simulator_that_never_restarts(fixture, monkeypatch):
    # the planted simulator keeps attempts whose challenge misses its side,
    # so its law puts mass on views that the real prover never produces
    monkeypatch.setattr(simulator, "simulated_view", simulated_view_without_restarts)
    ctx = fresh_context(f"fixtures/{fixture}.txt")
    for name in sorted(STANDARD_VERIFIERS):
        for tape_seed in range(3):
            report = compare_view_distributions(ctx, STANDARD_VERIFIERS[name](), tape_seed=tape_seed, k=2, exact=True)
            assert report["laws_equal"] is False, (name, tape_seed)


@pytest.mark.parametrize("fixture", ["q2_groups", "embed_s3"])
def test_exact_check_catches_a_simulator_that_keeps_only_misses(fixture, monkeypatch):
    # the planted simulator keeps an attempt exactly when the challenge
    # misses its side, so each view reveals the mask against the wrong side
    monkeypatch.setattr(simulator, "simulated_view", simulated_view_keeping_misses)
    ctx = fresh_context(f"fixtures/{fixture}.txt")
    for name in sorted(STANDARD_VERIFIERS):
        for tape_seed in range(3):
            report = compare_view_distributions(ctx, STANDARD_VERIFIERS[name](), tape_seed=tape_seed, k=2, exact=True)
            assert report["laws_equal"] is False, (name, tape_seed)


@pytest.mark.parametrize("fixture", ["q2_groups", "embed_s3"])
def test_exact_check_catches_a_prover_that_always_reveals_the_bare_mask(fixture, monkeypatch):
    # the planted prover is the honest one wherever the challenge is 1, so
    # the check must pass it exactly where the program never challenges 0
    # (const1, and the honest program on tape 0) and fail it everywhere else
    monkeypatch.setattr(simulator, "view_from_randomness", view_revealing_the_bare_mask)
    ctx = fresh_context(f"fixtures/{fixture}.txt")
    for name in sorted(STANDARD_VERIFIERS):
        for tape_seed in range(3):
            report = exact_report(ctx, STANDARD_VERIFIERS[name](), tape_seed, 2)
            never_zero = name == "const1" or (name, tape_seed) == ("honest", 0)
            verdicts = (report["laws_equal"], report["uniform_on_consistent"], report["bijection"])
            assert verdicts == (never_zero,) * 3, (name, tape_seed)


@pytest.mark.parametrize("fixture, k", [("tiny_cyclic", 2), ("q2_groups", 2), ("embed_s3", 2), ("ec_yes_m3", 1)])
def test_exact_check_catches_a_verifier_that_refuses_the_identity(fixture, k):
    # the honest prover's law keeps the views revealing the identity; the
    # oracle asks the live verifier, which refuses them, so every program
    # that challenges either bit leaves them outside the consistent views
    inst = load_instance(f"fixtures/{fixture}.txt")
    ctx = refusing_the_identity(ElementContext if isinstance(inst, ElemConjInstance) else InstanceContext)(inst)
    for name in sorted(STANDARD_VERIFIERS):
        report = exact_report(ctx, STANDARD_VERIFIERS[name](), 0, k)
        assert not (report["bijection"] and report["laws_equal"] and report["uniform_on_consistent"]), name


def test_exact_report_on_a_verifier_that_accepts_no_view():
    # the honest program on tape 1 challenges 0 on every q2_groups
    # commitment, and this verifier refuses every response to a 0
    class RefusingChallengeZero(InstanceContext):
        def accepts(self, commit, challenge, response) -> bool:
            return challenge_bit(challenge) == 1 and super().accepts(commit, challenge, response)

    ctx = RefusingChallengeZero(load_instance(Q2_GROUPS))
    report = compare_view_distributions(ctx, honest_verifier(), tape_seed=1, k=2, exact=True)
    assert (report["domain"], report["uniform_on_consistent"], report["laws_equal"]) == (0, False, True)
    assert not verify_view_bijection(ctx, honest_verifier(), 1, 2)


def test_exact_checks_on_a_warm_context_match_a_fresh_context_per_call():
    # one warm context per fixture serves every k, program and tape, so a
    # table that kept anything of one call would show in a later one
    warm = {}
    for fixture, k in ORACLE_FAMILIES:
        path = f"fixtures/{fixture}.txt"
        ctx = warm.setdefault(fixture, fresh_context(path))
        for name in sorted(STANDARD_VERIFIERS):
            for tape_seed in range(3):
                program = STANDARD_VERIFIERS[name]()
                fresh = dict(
                    compare_view_distributions(fresh_context(path), program, tape_seed=tape_seed, k=k, exact=True),
                    bijection=verify_view_bijection(fresh_context(path), program, tape_seed, k),
                )
                assert exact_report(ctx, program, tape_seed, k) == fresh


@pytest.mark.parametrize("fixture, k", ORACLE_FAMILIES)
def test_a_second_exact_check_runs_no_generation_test_and_no_conjugation(fixture, k, monkeypatch):
    # the cold pass builds the context's tables; a warm pass reads the
    # prover's randomness as (mask, commit) and conjugates nothing
    ctx = fresh_context(f"fixtures/{fixture}.txt")
    generated, conjugated = [], []
    real_generates, real_conjugation = engine._generates_images, conjugacy.conjugation
    real_conjugated_by = Permutation.conjugated_by
    monkeypatch.setattr(engine, "_generates_images", lambda *args: generated.append(args) or real_generates(*args))
    monkeypatch.setattr(conjugacy, "conjugation", lambda vi: conjugated.append(vi) or real_conjugation(vi))
    monkeypatch.setattr(Permutation, "conjugated_by", lambda p, v: conjugated.append(v) or real_conjugated_by(p, v))
    passes = []
    for _ in range(2):
        generated.clear()
        conjugated.clear()
        compare_view_distributions(ctx, honest_verifier(), tape_seed=1, k=k, exact=True)
        assert verify_view_bijection(ctx, honest_verifier(), 1, k)
        passes.append((len(generated), len(conjugated)))
    assert passes[0][1] > 0  # the spies see the calls that are made
    assert passes[1] == (0, 0)


@pytest.mark.parametrize("instance", [load_instance(Q2_GROUPS), parse_instance_text(DEGREE_300_TEXT)], ids=["q2_groups", "degree_300"])
def test_live_draws_mask_no_commitment_entry_by_entry(instance, monkeypatch):
    # the provers, simulate and real_view draw each commitment from the
    # masked group's own table; only the exact checks read masked_commits
    ctx = InstanceContext(instance)
    params = ProtocolParams(4)
    # the honest prover's witness search scans <U> with _u_conjugations
    provers = (HonestProver(ctx, params), GuessingProver(ctx, params))
    calls = []
    for name in ("masked_commits", "_u_conjugations"):
        real = getattr(InstanceContext, name)
        monkeypatch.setattr(InstanceContext, name, lambda self, *args, real=real, name=name: calls.append(name) or real(self, *args))
    rng = random.Random(5)
    for prover in provers:
        for _ in range(3):
            _, commit = prover.commit(rng)
            assert len(commit) == params.k and all(p.degree == ctx.degree for p in commit)
    for _ in range(3):
        simulate(ctx, honest_verifier(), rng, k=params.k, replays=Replays(1))
        real_view(ctx, honest_verifier(), rng, k=params.k, replays=Replays(1))
    assert calls == []
    ctx.masked_commits(1, 2)  # the spies see the calls that are made
    assert calls == ["masked_commits", "_u_conjugations"]


def test_stat_checks_and_the_verifier_build_no_generating_set(monkeypatch):
    # the sampled tuples and the coerced commitment were checked where they
    # were made, so neither the sample loops nor the verifier re-check them
    ctx = ctx_of(Q2_GROUPS)
    params = ProtocolParams.for_instance(ctx.instance)
    prover = HonestProver(ctx, params)
    compare_view_distributions(ctx, honest_verifier(), tape_seed=1, k=24, samples=20, rng=random.Random(2))
    built = []
    post_init = GeneratingSet.__post_init__
    monkeypatch.setattr(GeneratingSet, "__post_init__", lambda self: built.append(self) or post_init(self))
    compare_view_distributions(ctx, honest_verifier(), tape_seed=1, k=24, samples=50, rng=random.Random(3))
    assert run_session(lambda rng_p, tape_v: session(ctx, params, prover, honest_verifier(), rng_p, tape_v), 4).accepted
    assert built == []


@pytest.mark.parametrize("fixture, k", [("q2_groups", 2), ("ec_yes_m3", 1)])
def test_exact_checks_refuse_a_program_over_its_tape_budget(fixture, k):
    # over budget on every commitment, so pruning the candidates cannot hide it
    greedy = VerifierProgram(
        "greedy", lambda inst, tape, commit: bit_payload(tape.bit() ^ tape.bit()), tape_budget=1
    )
    ctx = yes_context(f"fixtures/{fixture}.txt")
    with pytest.raises(RuntimeError, match="over its budget"):
        compare_view_distributions(ctx, greedy, tape_seed=0, k=k, exact=True)
    with pytest.raises(RuntimeError, match="over its budget"):
        verify_view_bijection(ctx, greedy, 0, k)


def test_exact_laws_match_and_are_uniform():
    ctx = ctx_of(TINY)
    k = 3
    for program in (honest_verifier(), constant_verifier(1), parity_verifier()):
        law_r = exact_real_law(ctx, program, Replays(7), k)
        law_s = exact_sim_law(ctx, program, Replays(7), k)
        assert law_r == law_s
        assert total_variation(law_r, law_s) == 0
        consistent = enumerate_consistent_views(ctx, program, Replays(7), k)
        uniform = Fraction(1, len(consistent))
        assert set(law_r) == set(consistent)
        assert all(p == uniform for p in law_r.values())
        assert sum(law_r.values()) == 1


def junk_verifier():
    """Answers the junk bytes b"x", which decode to challenge bit 0."""
    return VerifierProgram("junk", lambda inst, tape, commit: b"x", tape_budget=0)


def assert_laws_match_the_fraction_sums(ctx, k, laws):
    # same values and same key order as one Fraction added per masked
    # commitment; the junk verifier puts every view on side 0
    for program in [STANDARD_VERIFIERS[name]() for name in sorted(STANDARD_VERIFIERS)] + [junk_verifier()]:
        for tape_seed in range(3):
            for law, reference in laws:
                got = law(ctx, program, Replays(tape_seed), k)
                assert list(got.items()) == list(reference(ctx, program, tape_seed, k).items())


@pytest.mark.parametrize("fixture, k", ORACLE_FAMILIES)
def test_integer_count_laws_match_the_fraction_sums(fixture, k):
    laws = ((exact_real_law, reference_exact_real_law), (exact_sim_law, reference_exact_sim_law))
    assert_laws_match_the_fraction_sums(yes_context(f"fixtures/{fixture}.txt"), k, laws)


def test_integer_count_sim_law_weights_sides_of_unequal_size():
    # <(1 2)> has 3 generating 2-tuples and <(1 2 3)> has 8, so each side's
    # views must be weighted by the other side's count; the simulator's law
    # needs no witness, so a no-instance serves
    c2, c3 = (GeneratingSet(3, (Permutation(images),)) for images in ([2, 1, 3], [2, 3, 1]))
    ctx = InstanceContext(GroupConjInstance(3, c2, c3, GeneratingSet(3)))
    assert [len(ctx.masked_commits(side, 2)) for side in (0, 1)] == [3, 8]
    assert_laws_match_the_fraction_sums(ctx, 2, ((exact_sim_law, reference_exact_sim_law),))


def test_masked_commits_refuse_a_table_over_the_search_cap():
    # <A1> = <(4 5 6)> has 8 generating 2-tuples and |U| = 2: the table of
    # 16 masked commitments is refused before it is built, as the candidate
    # walk would refuse the check
    ctx = InstanceContext(load_instance(Q2_GROUPS), search_cap=12)
    with pytest.raises(BudgetExceeded, match="^8 generating 2-tuples x 2 masks exceed cap 12$"):
        exact_real_law(ctx, honest_verifier(), Replays(0), 2)


def test_candidate_views_are_refused_without_enumerating_u(monkeypatch):
    # A0 = A1 = U = S_6: 720 members of the sides' one conjugate x |<U>| = 720 is over
    # the default cap, and the refusal must count <U> off its chain
    s6 = parse_instance_text("degree: 6\nA0: 2 1 3 4 5 6; 2 3 4 5 6 1\n"
                             "A1: 2 1 3 4 5 6; 2 3 4 5 6 1\nU: 2 1 3 4 5 6; 2 3 4 5 6 1\n")
    ctx = InstanceContext(s6)

    def refuse(self):
        raise AssertionError("<U> enumerated")

    monkeypatch.setattr(InstanceContext, "u_elements", refuse)
    with pytest.raises(BudgetExceeded, match="^720\\^1 x 720 candidate views exceed cap 10000$"):
        enumerate_consistent_views(ctx, honest_verifier(), Replays(0), k=1)


def test_total_variation_basics():
    p = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    q = {"a": Fraction(1, 2), "c": Fraction(1, 2)}
    assert total_variation(p, p) == 0
    assert total_variation(p, q) == Fraction(1, 2)


def test_simulate_budget_exceeded_under_side_detector():
    ctx = ctx_of(NO_M4)
    with pytest.raises(BudgetExceeded, match="restart cap"):
        rng = random.Random(0)
        simulate(ctx, side_detector(), rng, k=2, replays=Replays(rng.getrandbits(64)))


def test_exact_sim_law_refuses_defeated_tape():
    ctx = ctx_of(NO_M4)
    with pytest.raises(BudgetExceeded, match="defeats every side guess"):
        exact_sim_law(ctx, side_detector(), Replays(0), k=2)


def test_compare_refuses_no_instances():
    ctx = ctx_of(NO_M4)
    with pytest.raises(ValueError, match="yes-instances only"):
        compare_view_distributions(ctx, honest_verifier(), tape_seed=0, k=2)


def test_compare_exact_mode_report():
    ctx = ctx_of(Q2_GROUPS)
    report = compare_view_distributions(ctx, honest_verifier(), tape_seed=3, k=2, exact=True)
    assert report["mode"] == "exact"
    assert report["laws_equal"] is True
    assert report["uniform_on_consistent"] is True
    assert report["tv_distance_upper"] == 0.0
    assert report["domain"] == 16


@pytest.mark.parametrize("samples", [0, -1])
def test_compare_stat_mode_refuses_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        compare_view_distributions(ctx_of(TINY), honest_verifier(), tape_seed=1, k=3, samples=samples)


def test_compare_stat_mode_report():
    ctx = ctx_of(TINY)
    report = compare_view_distributions(
        ctx, honest_verifier(), tape_seed=1, k=3, samples=400, rng=random.Random(12)
    )
    assert report["mode"] == "stat"
    assert report["samples"] == 400
    assert report["cells"] >= 2
    assert 1.0 <= report["restarts_mean"] <= 4.0
    assert report["attempts_per_restart"] >= 1.0
    assert report["chi2_p"] > 1e-3
    assert 0.0 <= report["tv_distance_upper"] <= 1.0
    # without an rng, stat mode draws from random.Random(0)
    ctx = ctx_of(Q2_GROUPS)
    default = compare_view_distributions(ctx, honest_verifier(), tape_seed=1, k=2, samples=30)
    assert default == compare_view_distributions(ctx, honest_verifier(), tape_seed=1, k=2, samples=30, rng=random.Random(0))
    assert default["cells"] == 8


def test_compare_stat_mode_report_on_one_cell():
    # trivial sides and U under a constant challenge: every view falls in
    # one cell, where no chi-square is run and p reads 1
    ctx = InstanceContext(parse_instance_text("degree: 2\nA0:\nA1:\nU:\nwitness: 1 2\n"))
    report = compare_view_distributions(ctx, constant_verifier(0), tape_seed=0, k=2, samples=20, rng=random.Random(0))
    assert (report["cells"], report["chi2_p"]) == (1, 1.0)


def test_bucket_of_commit_stable():
    commit = (Permutation([2, 1, 3]), Permutation([2, 3, 1]))
    assert bucket_of_commit(commit) == bucket_of_commit(tuple(commit))
    # frozen value: reports built on this hash reproduce run to run
    assert bucket_of_commit(commit) == ((((((2 * 1000003 + 1) * 1000003 + 3) * 1000003 + 2) * 1000003 + 3) * 1000003 + 1) & 0xFFFFFFFF) % 8


def one_based_bucket(commit):
    """bucket_of_commit's formula over the 1-based images."""
    h = 0
    for p in commit if isinstance(commit, tuple) else (commit,):
        for i in p.images:
            h = (h * 1000003 + i) & 0xFFFFFFFF
    return h % 8


@given(st.integers(1, 16).flatmap(lambda m: st.lists(st.permutations(range(1, m + 1)), min_size=1, max_size=64)))
def test_bucket_of_commit_is_the_one_based_formula(images):
    commit = tuple(map(Permutation, images))
    assert bucket_of_commit(commit) == one_based_bucket(commit)
    assert bucket_of_commit(commit[0]) == one_based_bucket(commit[0])


def test_bucket_of_commit_at_every_length_to_64_entries():
    # the weights alternate 1, 3 from the last image back: every length of
    # up to 64 entries at degree 16, as group-conj-m16's commitments, and at
    # degree 1, where each entry adds one image; then a few lengths on both
    # sides of the switch from bytes to tuples of ints at degree 256
    rng = random.Random(5)
    for m, lengths in [(1, range(1, 65)), (16, range(1, 65))] + [(m, (1, 2, 3, 24)) for m in (255, 256, 257, 300)]:
        for entries in lengths:
            commit = tuple(Permutation(rng.sample(range(1, m + 1), m)) for _ in range(entries))
            assert bucket_of_commit(commit) == one_based_bucket(commit)
            assert bucket_of_commit(commit[-1]) == one_based_bucket(commit[-1])


def test_restart_count_is_roughly_geometric():
    ctx = ctx_of(TINY)
    rng = random.Random(99)
    total = 0
    n = 300
    for _ in range(n):
        total += simulate(ctx, honest_verifier(), rng, k=3, replays=Replays(rng.getrandbits(64))).restarts
    assert 1.6 <= total / n <= 2.4
