"""Three-round interactive proof that two permutation groups are conjugate
by an element of a third group.

Instance: generating sets A0, A1, U of subgroups of the same symmetric
group.  Yes-instances have some v in <U> with <A1> = <A0 conjugated by v>.
The prover masks A1 by a random u in <U> and commits to a random generating
tuple of the masked group; the verifier asks for a bit; the prover reveals
w = u for challenge 1 and w = v*u otherwise; the verifier accepts when w
lies in <U> and the committed tuple generates the challenged group
conjugated by w.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Optional

from .engine import (
    DEFAULT_SEARCH_CAP,
    BudgetExceeded,
    GeneratingSet,
    StabilizerChain,
    build_chain,
    enumerate_elements,
    generating_tuples,
    group_profile,
    random_generating_tuple,
)
from .framework import (
    PROVER,
    VERIFIER,
    Message,
    RandomTape,
    Replays,
    VerifierProgram,
    View,
    challenge_bit,
    run_parallel,
    run_sequential,
)
from .perm import Permutation, composer, conjugation, inverse_table, is_positive_int, parse_perm, table

TUPLE_LENGTH_FACTOR = 4


def _per_context(method):
    """Keep method's value per argument tuple in the context's memo: it is
    computed on the first call and kept for the life of the context."""
    name = method.__name__

    @wraps(method)
    def memoized(self, *args):
        key = (name,) + args
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = method(self, *args)
            return value

    return memoized


def _check_degrees(degree: int, witness=None, **parts):
    """ValueError unless each named part, then the witness if any, has the
    instance degree."""
    for name, part in parts.items():
        if part.degree != degree:
            raise ValueError(f"{name} degree {part.degree} does not match instance degree {degree}")
    if witness is not None and witness.degree != degree:
        raise ValueError("witness degree does not match instance degree")


@dataclass(frozen=True)
class GroupConjInstance:
    degree: int
    a0: GeneratingSet
    a1: GeneratingSet
    u: GeneratingSet
    witness: Optional[Permutation] = None

    def __post_init__(self):
        _check_degrees(self.degree, self.witness, A0=self.a0, A1=self.a1, U=self.u)

    def side(self, bit: int) -> GeneratingSet:
        return self.a1 if bit else self.a0


@dataclass(frozen=True)
class ProtocolParams:
    """k is the commitment tuple length, t the number of composed sessions."""

    k: int
    t: int = 1

    def __post_init__(self):
        if not (is_positive_int(self.k) and is_positive_int(self.t)):
            raise ValueError("k and t must be integers at least 1")

    @classmethod
    def for_instance(cls, instance, k: Optional[int] = None, t: int = 1) -> "ProtocolParams":
        return cls(k if k is not None else TUPLE_LENGTH_FACTOR * instance.degree, t)


class InstanceContext:
    """Chains, enumerations, and the resolved witness for one instance,
    shared by every session that runs on it.  Building one checks a declared
    witness on those chains: ValueError when it does not certify the instance.

    The methods from find_witness() down describe the protocol: how a
    commitment is read and checked, and how the prover's randomness (a mask
    from <U>, then a commitment for a side masked by it) is drawn, and, for
    the exact checks, enumerated as (mask, commit) pairs.
    The session driver and the simulator run on these alone, so a subclass
    that overrides them runs the same protocol on another commitment shape.
    """

    def __init__(self, instance: GroupConjInstance, search_cap: int = DEFAULT_SEARCH_CAP):
        self.instance = instance
        self.search_cap = search_cap
        self._memo: dict = {}
        v = instance.witness
        if v is not None:
            if not self.chain_u.contains(v):
                raise ValueError("witness is not an element of <U>")
            if not self.conjugates(v):
                raise ValueError("witness does not conjugate side 0 onto side 1")

    @property
    def degree(self) -> int:
        return self.instance.degree

    @cached_property
    def chain_u(self) -> StabilizerChain:
        return build_chain(self.instance.u)

    @cached_property
    def _side_chains(self) -> tuple:
        return build_chain(self.instance.a0), build_chain(self.instance.a1)

    def side_chain(self, bit: int) -> StabilizerChain:
        return self._side_chains[bit]

    @_per_context
    def u_elements(self) -> tuple:
        return enumerate_elements(self.chain_u, self.search_cap)

    @_per_context
    def side_profile(self, bit: int) -> Optional[tuple]:
        return group_profile(self.side_chain(bit), self.search_cap)

    @cached_property
    def _witness(self) -> Optional[Permutation]:
        v = self.instance.witness
        return v if v is not None else self.find_witness()

    def is_yes(self) -> bool:
        return self._witness is not None

    def witness(self) -> Permutation:
        if self._witness is None:
            raise ValueError("no conjugating element in <U>: not a yes-instance")
        return self._witness

    def _check_search_budget(self):
        """A witness search scans <U>: refuse it when |<U>| is over the cap."""
        order = self.chain_u.order()
        if order > self.search_cap:
            raise BudgetExceeded(f"prover budget exceeded: |<U>| = {order} > cap {self.search_cap}")

    def _conjugates_into(self, conj, side: int, chain: StabilizerChain) -> bool:
        """Whether conj, a raw conjugation map, sends the side's generators
        into the group of chain."""
        return all(chain.contains(Permutation._raw(conj(g))) for g in self.side_chain(side).gens)

    def conjugates(self, v: Permutation) -> bool:
        """Whether <A0>^v = <A1>: equal orders and A0's generators, conjugated
        by v, in <A1>."""
        return (self.side_chain(0).order() == self.side_chain(1).order()
                and self._conjugates_into(conjugation(v._img), 0, self.side_chain(1)))

    @_per_context
    def _u_conjugations(self) -> tuple:
        return tuple(conjugation(v._img) for v in self.u_elements())

    def conjugators(self, side: int, chain: StabilizerChain):
        """Elements v of <U>, in enumeration order, that conjugate the side's
        generators into the group of chain."""
        for v, conj in zip(self.u_elements(), self._u_conjugations()):
            if self._conjugates_into(conj, side, chain):
                yield v

    def find_witness(self) -> Optional[Permutation]:
        """First v in <U>, in enumeration order, with <A0>^v = <A1>; None
        when no element works, which sides of different orders answer
        before the search budget is checked."""
        if self.side_chain(0).order() != self.side_chain(1).order():
            return None
        self._check_search_budget()
        return next(self.conjugators(0, self.side_chain(1)), None)

    def read_commit(self, payload, k: int) -> Optional[tuple]:
        return coerce_commit(self.degree, k, payload)

    def accepts(self, commit, challenge, response) -> bool:
        return response_accepted(self, commit, challenge, response)

    @_per_context
    def accepted_responses(self, commit, challenge) -> tuple:
        """Every w in <U>, in enumeration order, with accepts(commit,
        challenge, w): the live verifier is asked once per w on the first
        call for a commitment and challenge payload."""
        return tuple([w for w in self.u_elements() if self.accepts(commit, challenge, w)])

    def sample_commit(self, side: int, k: int, rng, mask: Permutation):
        """A uniform generating k-tuple of the side's group conjugated by
        mask, drawn and tested in that group and then conjugated, and its
        sampling attempts."""
        return random_generating_tuple(self.side_chain(side), k, rng, mask)

    def prover_draw(self, side: int, k: int, rng) -> tuple:
        """The prover's randomness for a side, drawn in this order: a mask
        from <U>, then a commitment masked by it.  (mask, commit, attempts)."""
        mask = self.chain_u.random_element(rng)
        commit, attempts = self.sample_commit(side, k, rng, mask)
        return mask, commit, attempts

    @_per_context
    def masked_commits(self, side: int, k: int) -> tuple:
        """Every value (mask, commit) of the prover's randomness for a side,
        each equally likely: a generating k-tuple of the side's group
        conjugated by w, for every such tuple and w in <U>, tuples outermost,
        made once per context.  Refused when no tuple exists (the prover
        cannot commit) or when the table would outgrow the search cap."""
        tuples = generating_tuples(self.side_chain(side), k, self.search_cap)
        if not tuples:
            raise BudgetExceeded(f"side {side} has no generating {k}-tuple: the prover cannot commit")
        masks = tuple(zip(self.u_elements(), self._u_conjugations()))
        if len(tuples) * len(masks) > self.search_cap:
            raise BudgetExceeded(
                f"{len(tuples)} generating {k}-tuples x {len(masks)} masks exceed cap {self.search_cap}"
            )
        return tuple((w, tuple([Permutation._raw(conj(x._img)) for x in t])) for t in tuples for w, conj in masks)

    def side_members(self, side: int) -> tuple:
        """The elements that a commitment's entries for this side are
        conjugates of: here every element of the side's group."""
        return enumerate_elements(self.side_chain(side), self.search_cap)

    @_per_context
    def side_conjugates(self, side: int) -> Optional[dict]:
        """The distinct groups side^u for u in <U>, as a dict from each raw
        image in one of them to the bitmask of those holding it, bit 0 the
        side itself: one of them holds every entry of a list iff the
        entries' masks AND to non-zero.  Closed under conjugation by U's raw
        generators from side_members(side), so <U> is neither enumerated
        nor tested for membership.  None when |<U>|, the side's order or the
        groups' total size exceeds search_cap."""
        cap = self.search_cap
        if self.chain_u.order() > cap:
            return None
        try:
            first = frozenset(g._img for g in self.side_members(side))
        except BudgetExceeded:
            return None
        conjs = [conjugation(g) for g in self.chain_u.gens]
        table, seen = [first], {first}
        for members in table:  # grows while it is read: a breadth-first closure
            for conj in conjs:
                image = frozenset(map(conj, members))
                if image not in seen:
                    if (len(table) + 1) * len(first) > cap:
                        return None
                    seen.add(image)
                    table.append(image)
        bits: dict = {}
        for i, members in enumerate(table):
            for x in members:
                bits[x] = bits.get(x, 0) | 1 << i
        return bits

    def _conjugates_of_sides(self) -> list:
        """Every member of a U-conjugate of either side, sorted."""
        tables = self.side_conjugates(0), self.side_conjugates(1)
        if None in tables:
            raise BudgetExceeded(f"the sides' U-conjugates exceed cap {self.search_cap}")
        return list(map(Permutation._raw, sorted(tables[0].keys() | tables[1].keys())))

    @_per_context
    def candidate_commits(self, k: int) -> tuple:
        """Every well-formed commitment that some response could make
        acceptable, in itertools.product order: the k-tuples over
        _conjugates_of_sides() that one U-conjugate of a side holds, so the
        simulator replays no other.  The cap counts all k-tuples times
        |<U>|, read off U's chain; the identity keeps every mask, so no
        level of the walk outgrows the result.  Walked once per context and k."""
        if k < 1:
            raise ValueError("k must be at least 1")
        elems = self._conjugates_of_sides()
        u_order = self.chain_u.order()
        if len(elems) ** k * u_order > self.search_cap:
            raise BudgetExceeded(
                f"{len(elems)}^{k} x {u_order} candidate views exceed cap {self.search_cap}"
            )
        m0, m1 = self.side_conjugates(0), self.side_conjugates(1)
        entries = [(p, m0.get(p._img, 0), m1.get(p._img, 0)) for p in elems]
        level = [((), -1, -1)]  # -1 has every bit set
        for _ in range(k):
            level = [(t + (p,), b0, b1) for t, a0, a1 in level for p, e0, e1 in entries
                     if (b0 := a0 & e0) | (b1 := a1 & e1)]
        return tuple(t for t, _, _ in level)


def _coerce_perm(item, degree: int) -> Optional[Permutation]:
    """Accept a Permutation of the right degree, or raw wire data (text or
    a sequence of integers, bools excluded) that parses into one; anything
    else is ill-typed."""
    if isinstance(item, Permutation):
        return item if item.degree == degree else None
    if not isinstance(item, (str, list, tuple)):
        return None
    try:
        p = parse_perm(item) if isinstance(item, str) else Permutation(item)
    except ValueError:
        return None
    return p if p.degree == degree else None


def coerce_commit(degree: int, k: int, payload) -> Optional[tuple]:
    """Validated commitment: exactly k permutations of the instance degree,
    or None when the payload is malformed."""
    if not isinstance(payload, (tuple, list)) or len(payload) != k:
        return None
    out = []
    for item in payload:
        p = _coerce_perm(item, degree)
        if p is None:
            return None
        out.append(p)
    return tuple(out)


def response_accepted(ctx: InstanceContext, commit: tuple, challenge, response) -> bool:
    """The verifier's final checks: the response w is a permutation in <U>
    and the committed tuple generates the challenged group G conjugated by
    it, that is, the entries conjugated back by w lie in G and generate it
    (StabilizerChain._generated_by)."""
    w = _coerce_perm(response, ctx.degree)
    if w is None or not ctx.chain_u.contains(w):
        return False
    then, wi = composer(ctx.degree), inverse_table(w._img)
    back = [then(then(w._img, table(x._img)), wi) for x in commit]
    return ctx.side_chain(challenge_bit(challenge))._generated_by(back)


class HonestProver:
    """Follows the protocol; requires a conjugating witness."""

    def __init__(self, ctx: InstanceContext, params: ProtocolParams):
        self.ctx = ctx
        self.params = params
        self._v = ctx.witness()

    def commit(self, rng):
        mask, commit, attempts = self.ctx.prover_draw(1, self.params.k, rng)
        return (mask, attempts), commit

    def respond(self, state, challenge) -> Permutation:
        mask = state[0]
        return mask if challenge_bit(challenge) else self._v * mask


class GuessingProver:
    """Cheating strategy without a witness: commits on a random side and
    reveals the bare mask regardless of the challenge, so it wins exactly
    when the challenge lands on its guess (or the groups already agree)."""

    def __init__(self, ctx: InstanceContext, params: ProtocolParams):
        self.ctx = ctx
        self.params = params

    def commit(self, rng):
        mask, commit, attempts = self.ctx.prover_draw(rng.randrange(2), self.params.k, rng)
        return (mask, attempts), commit

    def respond(self, state, challenge) -> Permutation:
        return state[0]


def session(ctx: InstanceContext, params: ProtocolParams, prover, program: VerifierProgram, rng_p, tape_v: RandomTape):
    """One atomic session as a generator of its messages, returning the
    verdict and the prover's tuple attempts; an ill-typed commitment aborts
    with a rejection.  The prover's state is (mask, attempts)."""
    state, payload = prover.commit(rng_p)
    yield Message(PROVER, payload)
    commit = ctx.read_commit(payload, params.k)
    if commit is None:
        return False, {}

    challenge = program.challenge(ctx.instance, tape_v, payload)
    yield Message(VERIFIER, challenge)

    response = prover.respond(state, challenge)
    yield Message(PROVER, response)

    return ctx.accepts(commit, challenge, response), {"tuple_attempts": state[1]}


def run_composed(ctx, params, prover, program, rng: random.Random, parallel: bool = False):
    """Compose params.t sessions; accept iff all of them accept."""
    runner = run_parallel if parallel else run_sequential
    return runner(lambda rng_p, tape_v: session(ctx, params, prover, program, rng_p, tape_v), params.t, rng)


def replay_verdict(ctx: InstanceContext, params: ProtocolParams, program: VerifierProgram, view: View) -> bool:
    """Re-decide a recorded view: its senders must be P, V, P, and its tape
    prefix and challenge those of the session's verifier program replayed on
    the recorded seed from the commitment payload, as the live session runs
    it; then recheck the response."""
    msgs = view.messages
    if tuple(m.sender for m in msgs) != (PROVER, VERIFIER, PROVER):
        return False
    commit = ctx.read_commit(msgs[0].payload, params.k)
    if commit is None:
        return False
    prefix, challenge = Replays(view.r_prefix.seed).challenge(program, ctx.instance, msgs[0].payload)
    if (prefix, challenge) != (view.r_prefix, msgs[1].payload):
        return False
    return ctx.accepts(commit, challenge, msgs[2].payload)


def extract_witness(response_0: Permutation, response_1: Permutation) -> Permutation:
    """Knowledge extraction from two accepting responses to both challenges
    of one commitment: the returned value conjugates <A0> onto <A1>."""
    return response_0 * response_1.inverse()
