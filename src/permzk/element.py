"""Interactive proof that two single permutations are conjugate by an
element of a given group, plus the two reductions tying that problem to
coset intersection with a centralizer.

The protocol is the group-conjugacy protocol with the commitment shrunk to
one permutation: mask a1 by a random u in <U>, reveal u or v*u on demand.
ElementContext says only how that commitment is drawn, enumerated, read
and checked; the group-conjugacy session driver, provers and simulator run
on it unchanged.  No generating-tuple sampling is involved, so the simulator's
restart loop needs exactly one sample per attempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import simulator
from .engine import GeneratingSet, enumerate_elements, membership_chain
from .framework import VerifierProgram, challenge_bit
from .conjugacy import (
    DEFAULT_SEARCH_CAP,
    GuessingProver,
    HonestProver,
    InstanceContext,
    ProtocolParams,
    _check_degrees,
    _coerce_perm,
    _per_context,
    run_composed,
)
from .perm import Permutation, conjugator_in_sym


@dataclass(frozen=True)
class ElemConjInstance:
    """Are a0 and a1 conjugate by an element of <U>?"""

    degree: int
    a0: Permutation
    a1: Permutation
    u: GeneratingSet
    witness: Optional[Permutation] = None

    def __post_init__(self):
        _check_degrees(self.degree, self.witness, a0=self.a0, a1=self.a1, U=self.u)

    def side(self, bit: int) -> Permutation:
        return self.a1 if bit else self.a0


@dataclass(frozen=True)
class CosetIntersectionInstance:
    """Does the centralizer of x in S_m meet the coset <U>*y?"""

    degree: int
    x: Permutation
    y: Permutation
    u: GeneratingSet

    def __post_init__(self):
        _check_degrees(self.degree, x=self.x, y=self.y, U=self.u)


class ElementContext(InstanceContext):
    """The element protocol's commitment: the side's permutation
    conjugated by the mask, so the mask is the prover's only randomness."""

    def conjugates(self, v: Permutation) -> bool:
        return self.instance.a0.conjugated_by(v) == self.instance.a1

    def find_witness(self) -> Optional[Permutation]:
        """First v in <U> (enumeration order, identity first) conjugating a0
        to a1; None when no element works."""
        inst = self.instance
        if inst.a0.cycle_type() != inst.a1.cycle_type():
            return None
        self._check_search_budget()
        return next(filter(self.conjugates, self.u_elements()), None)

    def read_commit(self, payload, k: int) -> Optional[Permutation]:
        return _coerce_perm(payload, self.degree)

    def accepts(self, commit, challenge, response) -> bool:
        return response_accepted(self, commit, challenge, response)

    def _side(self, side: int, k: int) -> Permutation:
        """The commitment is one permutation whatever k is, but k < 1 is
        refused as the group protocol refuses it."""
        if k < 1:
            raise ValueError("k must be at least 1")
        return self.instance.side(side)

    def sample_commit(self, side: int, k: int, rng, mask: Permutation):
        return self._side(side, k).conjugated_by(mask), 1

    @_per_context
    def masked_commits(self, side: int, k: int) -> tuple:
        a = self._side(side, k)
        return tuple((w, a.conjugated_by(w)) for w in self.u_elements())

    def side_members(self, side: int) -> tuple:
        return (self.instance.side(side),)

    def candidate_commits(self, k: int):
        return self._conjugates_of_sides()


def params_for(instance, t: int = 1) -> ProtocolParams:
    """The commitment is a single permutation; k is fixed at 1 and kept in
    the params object only so the session plumbing stays shared."""
    return ProtocolParams(1, t)


def response_accepted(ctx: ElementContext, commit: Permutation, challenge, response) -> bool:
    """Verifier checks: response in <U> and the committed permutation is the
    challenged side conjugated by it."""
    w = _coerce_perm(response, ctx.degree)
    if w is None or not ctx.chain_u.contains(w):
        return False
    return commit == ctx.instance.side(challenge_bit(challenge)).conjugated_by(w)


class HonestElemProver(HonestProver):
    """The group-conjugacy honest prover, with the element params."""

    def __init__(self, ctx: ElementContext):
        super().__init__(ctx, params_for(ctx.instance))

    # Bound here too: bench/tracer.py patches each class's own __dict__.
    commit = HonestProver.commit
    respond = HonestProver.respond


class GuessingElemProver(GuessingProver):
    """Witness-free cheater: commit on a guessed side, reveal the mask."""

    def __init__(self, ctx: ElementContext):
        super().__init__(ctx, params_for(ctx.instance))

    # Bound here too: bench/tracer.py patches each class's own __dict__.
    commit = GuessingProver.commit
    respond = GuessingProver.respond


# -- reductions against coset intersection --------------------------------


def reduce_element_to_coset(inst: ElemConjInstance) -> Optional[CosetIntersectionInstance]:
    """When the elements are conjugate in the full symmetric group at all,
    the conjugators form the coset C(a0)*s, so membership of one in <U>
    becomes an intersection question with y = s inverse.  Different cycle
    types mean a trivial no, reported as None."""
    s = conjugator_in_sym(inst.a0, inst.a1)
    if s is None:
        return None
    return CosetIntersectionInstance(inst.degree, inst.a0, s.inverse(), inst.u)


def reduce_coset_to_element(inst: CosetIntersectionInstance) -> ElemConjInstance:
    """C(x) meets <U>*y exactly when x and its conjugate by y inverse are
    conjugate via <U>."""
    return ElemConjInstance(
        inst.degree, inst.x, inst.x.conjugated_by(inst.y.inverse()), inst.u
    )


def coset_intersects(inst: CosetIntersectionInstance, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """Exhaustive ground truth: some h in <U> with h*y centralizing x."""
    chain_u = membership_chain(inst.u)
    x = inst.x
    for h in enumerate_elements(chain_u, cap):
        z = h * inst.y
        if z * x == x * z:
            return True
    return False


# -- zero-knowledge checks ----------------------------------------------------


def verify_element_bijection(ctx: ElementContext, program: VerifierProgram, tape_seed: int) -> bool:
    return simulator.verify_view_bijection(ctx, program, tape_seed, 1)


def compare_element_view_distributions(ctx: ElementContext, program: VerifierProgram, *, tape_seed: int) -> dict:
    """Exact-only comparison; the whole view space is |<U>| big, so there is
    nothing to sample."""
    return simulator.compare_view_distributions(ctx, program, tape_seed=tape_seed, k=1, exact=True)
