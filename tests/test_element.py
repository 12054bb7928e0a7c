"""Element conjugacy: protocol, simulator, and the coset reductions."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from permzk.element import (
    CosetIntersectionInstance,
    ElemConjInstance,
    ElementContext,
    GuessingElemProver,
    HonestElemProver,
    compare_element_view_distributions,
    coset_intersects,
    params_for,
    reduce_coset_to_element,
    reduce_element_to_coset,
    response_accepted,
    run_composed,
    verify_element_bijection,
)
from permzk.conjugacy import DEFAULT_SEARCH_CAP, GuessingProver, HonestProver, ProtocolParams, replay_verdict, session
from permzk.engine import BudgetExceeded, GeneratingSet, build_chain, parse_generating_set
from permzk.framework import (
    STANDARD_VERIFIERS,
    Replays,
    VerifierProgram,
    constant_verifier,
    honest_verifier,
    parity_verifier,
)
from permzk.instances import load_instance
from permzk.perm import Permutation, conjugator_in_sym, parse_perm
from permzk.simulator import (
    compare_view_distributions,
    enumerate_consistent_views,
    exact_real_law,
    exact_sim_law,
    randomness_of_view,
    real_view,
    simulate,
    view_from_randomness,
)

from helpers import centralizer_coset_oracle, run_session, symmetric_group

EC_YES = "fixtures/ec_yes_m3.txt"
Q2_ELEMENTS = "fixtures/q2_elements.txt"


def gset(degree, *texts):
    return parse_generating_set(";".join(texts), degree)


def perm(text):
    return parse_perm(text)


def ctx_of(path):
    return ElementContext(load_instance(path))


def find_witness(a0, a1, u, cap=DEFAULT_SEARCH_CAP):
    return ElementContext(ElemConjInstance(a0.degree, a0, a1, u), cap).find_witness()


def test_instance_validation():
    with pytest.raises(ValueError, match="a1 degree"):
        ElemConjInstance(3, perm("2 1 3"), perm("2 1 3 4"), gset(3, ""))
    with pytest.raises(ValueError, match="U degree"):
        ElemConjInstance(3, perm("2 1 3"), perm("2 1 3"), gset(4, ""))
    with pytest.raises(ValueError, match="y degree"):
        CosetIntersectionInstance(3, perm("2 1 3"), perm("2 1 3 4"), gset(3, ""))


def test_find_elem_conjugator_basic():
    # (1 2) and (1 3) are swapped by (2 3)
    v = find_witness(perm("2 1 3"), perm("3 2 1"), gset(3, "1 3 2"))
    assert v == perm("1 3 2")
    assert perm("2 1 3").conjugated_by(v) == perm("3 2 1")


def test_find_elem_conjugator_identity_first():
    # equal elements: the identity is the first match in enumeration order
    a = perm("2 3 1")
    assert find_witness(a, a, symmetric_group(3)) == Permutation.identity(3)


def test_find_elem_conjugator_cycle_type_gate():
    assert find_witness(perm("2 1 3"), perm("2 3 1"), symmetric_group(3)) is None


def test_find_elem_conjugator_no_and_budget():
    assert find_witness(perm("2 1 3"), perm("3 2 1"), gset(3, "")) is None
    with pytest.raises(BudgetExceeded, match="prover budget"):
        find_witness(perm("2 1 3 4 5"), perm("2 1 3 4 5"), symmetric_group(5), cap=100)


def test_context_witness_resolution():
    ctx = ctx_of(EC_YES)
    assert ctx.is_yes()
    assert ctx.instance.a0.conjugated_by(ctx.witness()) == ctx.instance.a1
    no = ctx_of(Q2_ELEMENTS)
    assert not no.is_yes()
    with pytest.raises(ValueError, match="not a yes-instance"):
        no.witness()


def test_trivial_u_equal_elements_accept():
    inst = ElemConjInstance(3, perm("2 3 1"), perm("2 3 1"), gset(3, ""))
    ctx = ElementContext(inst)
    assert ctx.is_yes() and ctx.witness() == Permutation.identity(3)
    out = run_composed(ctx, params_for(inst), HonestElemProver(ctx), honest_verifier(), random.Random(0))
    assert out.accepted


def test_response_accepted():
    ctx = ctx_of(EC_YES)
    mask = Permutation.identity(3)
    commit1 = ctx.instance.a1
    assert response_accepted(ctx, commit1, b"1", mask)
    assert response_accepted(ctx, commit1, b"0", ctx.witness())
    assert not response_accepted(ctx, commit1, b"0", mask)
    assert not response_accepted(ctx, commit1, b"1", perm("2 1 3"))  # not in <U>, nor a1 conjugated
    assert not response_accepted(ctx, commit1, b"1", "junk")
    # w outside <U> for which the commitment is the challenged side
    # conjugated by w: only the test that w lies in <U> refuses these.
    # (1 3) centralizes a1 = (1 3) and U = <(2 3)> does not hold it; on the
    # no-instance q2_elements the conjugator of a0 onto a1 in the full
    # symmetric group is no element of <U>
    assert not response_accepted(ctx, commit1, b"1", perm("3 2 1"))
    ctx = ctx_of(Q2_ELEMENTS)
    a0, a1 = ctx.instance.a0, ctx.instance.a1
    assert not response_accepted(ctx, a1, b"0", conjugator_in_sym(a0, a1))
    assert response_accepted(ctx, a1, b"1", Permutation.identity(ctx.degree))


@pytest.mark.parametrize("maker", [honest_verifier, lambda: constant_verifier(0), lambda: constant_verifier(1)])
def test_honest_completeness(maker):
    ctx = ctx_of(EC_YES)
    params = params_for(ctx.instance, t=4)
    prover = HonestElemProver(ctx)
    for seed in range(6):
        assert run_composed(ctx, params, prover, maker(), random.Random(seed)).accepted


def test_guessing_prover_rate_near_half():
    ctx = ctx_of(Q2_ELEMENTS)
    params = params_for(ctx.instance)
    prover = GuessingElemProver(ctx)
    rng = random.Random(2024)
    n = 800
    wins = sum(run_composed(ctx, params, prover, honest_verifier(), rng).accepted for _ in range(n))
    assert abs(wins / n - 0.5) < 0.06


class BrokenProver:
    def commit(self, rng):
        return (None,), ("tuple", "not", "a", "perm")

    def respond(self, state, challenge):  # pragma: no cover - never reached
        raise AssertionError("respond called after ill-typed commit")


@pytest.mark.parametrize("parallel", [False, True], ids=["seq", "par"])
@pytest.mark.parametrize("name", sorted(STANDARD_VERIFIERS))
@pytest.mark.parametrize("prover_class", [HonestProver, GuessingProver])
def test_replay_verdict_matches_live_element_sessions(prover_class, name, parallel):
    # each session of a composed run, re-decided from its own view with the
    # program that ran: 45 sessions per case, 720 in all
    ctx = ctx_of(EC_YES)
    params = ProtocolParams(1, 3)
    prover = prover_class(ctx, params)
    program = STANDARD_VERIFIERS[name]()
    verdicts = set()
    for seed in range(15):
        run = run_composed(ctx, params, prover, program, random.Random(seed), parallel=parallel)
        for out in run.outcomes:
            assert replay_verdict(ctx, params, program, out.view) == out.accepted
            verdicts.add(out.accepted)
    assert verdicts == ({True} if prover_class is HonestProver else {True, False})


def test_ill_typed_commit_rejects():
    ctx = ctx_of(EC_YES)
    params = params_for(ctx.instance)
    out = run_session(lambda rng_p, tape_v: session(ctx, params, BrokenProver(), honest_verifier(), rng_p, tape_v))
    assert not out.accepted
    assert len(out.view.messages) == 1


# -- reductions -------------------------------------------------------------


def test_reduce_element_to_coset_basic_cases():
    # conjugate pair: the coset question inherits the yes answer
    inst = ElemConjInstance(3, perm("2 1 3"), perm("3 2 1"), gset(3, "1 3 2"))
    cci = reduce_element_to_coset(inst)
    assert cci is not None
    assert cci.x == inst.a0
    assert coset_intersects(cci)
    # different cycle types: no symmetric-group conjugator at all
    bad = ElemConjInstance(3, perm("2 1 3"), perm("2 3 1"), symmetric_group(3))
    assert reduce_element_to_coset(bad) is None


def test_coset_yes_when_y_is_identity():
    # C(x) always contains the identity, which lies in <U> * identity
    inst = CosetIntersectionInstance(3, perm("2 1 3"), Permutation.identity(3), gset(3, ""))
    assert coset_intersects(inst)
    assert centralizer_coset_oracle(inst)


def test_coset_no_for_trivial_u():
    # <U> = 1 and y = (1 2) does not centralize x = (1 2 3)
    inst = CosetIntersectionInstance(3, perm("2 3 1"), perm("2 1 3"), gset(3, ""))
    assert not coset_intersects(inst)
    assert not centralizer_coset_oracle(inst)


def test_reduce_coset_to_element_definition():
    inst = CosetIntersectionInstance(4, perm("2 1 3 4"), perm("3 4 1 2"), gset(4, "2 1 4 3"))
    ec = reduce_coset_to_element(inst)
    assert ec.a0 == inst.x
    assert ec.a1 == inst.x.conjugated_by(inst.y.inverse())
    assert ec.u is inst.u


def random_perm(rng, m):
    return Permutation(rng.sample(range(1, m + 1), m))


def test_reduction_round_trips_preserve_answers():
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        m = rng.randrange(3, 6)
        u = GeneratingSet(m, tuple(random_perm(rng, m) for _ in range(rng.randrange(0, 3))))
        a0 = random_perm(rng, m)
        # bias toward matching cycle types so the reduction mostly applies
        a1 = a0.conjugated_by(random_perm(rng, m)) if rng.random() < 0.7 else random_perm(rng, m)
        ec = ElemConjInstance(m, a0, a1, u)
        answer = ElementContext(ec).is_yes()
        cci = reduce_element_to_coset(ec)
        if cci is None:
            assert not answer
            continue
        assert coset_intersects(cci) == answer
        assert centralizer_coset_oracle(cci) == answer
        # and back: the reduced element instance has the same answer
        back = reduce_coset_to_element(cci)
        assert ElementContext(back).is_yes() == answer
        checked += 1
    assert checked >= 30


def test_coset_oracles_agree_on_random_instances():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randrange(3, 6)
        inst = CosetIntersectionInstance(
            m,
            random_perm(rng, m),
            random_perm(rng, m),
            GeneratingSet(m, tuple(random_perm(rng, m) for _ in range(rng.randrange(0, 3)))),
        )
        assert coset_intersects(inst) == centralizer_coset_oracle(inst)


# -- simulator --------------------------------------------------------------


def element_side_detector(ctx):
    """Always answers opposite the committed side; well-defined on the
    q2_elements fixture whose two commit families are disjoint."""
    side0 = {ctx.instance.a0.conjugated_by(w) for w in ctx.u_elements()}

    def choose(inst, tape, commit):
        return b"1" if commit in side0 else b"0"

    return VerifierProgram("sidedetect", choose, tape_budget=0)


def test_q2_element_commit_families_are_disjoint():
    ctx = ctx_of(Q2_ELEMENTS)
    side0 = {ctx.instance.a0.conjugated_by(w) for w in ctx.u_elements()}
    side1 = {ctx.instance.a1.conjugated_by(w) for w in ctx.u_elements()}
    assert side0 == {perm("2 3 1 4 5 6"), perm("1 2 3 6 4 5")}
    assert side1 == {perm("1 2 3 5 6 4"), perm("3 1 2 4 5 6")}
    assert not side0 & side1


def test_simulate_element_budget_exceeded():
    ctx = ctx_of(Q2_ELEMENTS)
    with pytest.raises(BudgetExceeded, match="restart cap"):
        rng = random.Random(0)
        simulate(ctx, element_side_detector(ctx), rng, k=1, replays=Replays(rng.getrandbits(64)))
    with pytest.raises(BudgetExceeded, match="defeats every side guess"):
        exact_sim_law(ctx, element_side_detector(ctx), Replays(0), 1)


def test_simulate_element_views_are_consistent():
    ctx = ctx_of(EC_YES)
    program = honest_verifier()
    consistent = set(enumerate_consistent_views(ctx, program, Replays(19), 1))
    rng = random.Random(5)
    for _ in range(10):
        assert simulate(ctx, program, rng, k=1, replays=Replays(19)).view in consistent
        assert real_view(ctx, program, rng, k=1, replays=Replays(19)) in consistent


def test_element_randomness_round_trip():
    ctx = ctx_of(EC_YES)
    masked = ctx.masked_commits(1, 1)
    assert masked == tuple((w, ctx.instance.a1.conjugated_by(w)) for w in ctx.u_elements())
    for program in (honest_verifier(), parity_verifier()):
        for mask, commit in masked:
            view = view_from_randomness(ctx, program, Replays(3), commit, mask)
            assert randomness_of_view(ctx, view) == (mask, commit)


@pytest.mark.parametrize("maker", [honest_verifier, lambda: constant_verifier(0), lambda: constant_verifier(1), parity_verifier])
def test_element_bijection_and_exact_laws(maker):
    ctx = ctx_of(EC_YES)
    for tape_seed in (0, 1, 2):
        program = maker()
        assert verify_element_bijection(ctx, program, tape_seed)
        law_r = exact_real_law(ctx, program, Replays(tape_seed), 1)
        law_s = exact_sim_law(ctx, program, Replays(tape_seed), 1)
        assert law_r == law_s
        # the view space has exactly |<U>| members, all equally likely
        assert len(law_r) == len(ctx.u_elements())
        assert set(law_r.values()) == {Fraction(1, len(ctx.u_elements()))}


def test_compare_element_view_distributions():
    ctx = ctx_of(EC_YES)
    report = compare_element_view_distributions(ctx, honest_verifier(), tape_seed=8)
    assert report == {
        "mode": "exact",
        "domain": len(ctx.u_elements()),
        "laws_equal": True,
        "uniform_on_consistent": True,
        "tv_distance_upper": 0.0,
    }
    with pytest.raises(ValueError, match="yes-instances only"):
        compare_element_view_distributions(ctx_of(Q2_ELEMENTS), honest_verifier(), tape_seed=0)


def test_compare_stat_mode_runs_on_element_instances():
    # an element commitment is one permutation; the chi-square cells bucket
    # it as a 1-tuple
    ctx = ctx_of(EC_YES)
    report = compare_view_distributions(ctx, honest_verifier(), tape_seed=8, samples=300, rng=random.Random(12))
    assert report["mode"] == "stat"
    assert report["samples"] == 300
    assert report["cells"] >= 2
    assert report["chi2_p"] > 1e-3
    assert 0.0 <= report["tv_distance_upper"] <= 1.0


def test_simulator_success_probability_is_exactly_half():
    # per restart the side guess is a fresh fair bit independent of the
    # tape, so over the rng the first attempt succeeds half the time for
    # any fixed program; check the three deterministic programs exactly
    ctx = ctx_of(EC_YES)
    for program in (constant_verifier(0), constant_verifier(1), parity_verifier()):
        wins = 0
        n = 400
        rng = random.Random(55)
        for _ in range(n):
            res = simulate(ctx, program, rng, k=1, replays=Replays(4))
            wins += res.restarts == 1
        assert abs(wins / n - 0.5) < 0.08, program.name
