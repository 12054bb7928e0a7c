"""Helpers that only the tests use: driving one session, writing
generating sets and instances back out as text, conjugating a generating
set, two chain facts read from outside, generators of the full symmetric
group, a degree-300 instance, an oracle for the coset-intersection test, the
exact laws summed one Fraction per masked commitment, as a reference for the
simulator's integer counts, and planted defects, in the prover, the
simulator or the verifier, that the zero-knowledge checks must catch."""

import math
from fractions import Fraction

from permzk.conjugacy import DEFAULT_SEARCH_CAP, GroupConjInstance, InstanceContext
from permzk.element import CosetIntersectionInstance
from permzk.engine import (
    BudgetExceeded,
    GeneratingSet,
    StabilizerChain,
    centralizer_in_sym,
    enumerate_elements,
    membership_chain,
)
from permzk.framework import Replays, SessionOutcome, challenge_bit
from permzk.perm import Permutation, format_perm
from permzk.simulator import SimulatedView, simulated_view, view_from_randomness


def run_session(session) -> SessionOutcome:
    """Drive a session generator to completion, discarding the event trace."""
    while True:
        try:
            next(session)
        except StopIteration as stop:
            return stop.value


def format_generating_set(a: GeneratingSet) -> str:
    return ";".join(format_perm(g) for g in a.gens)


def conjugated_set(a: GeneratingSet, v: Permutation) -> GeneratingSet:
    """a with every generator conjugated by v: it generates <a>^v."""
    return GeneratingSet(a.degree, tuple(g.conjugated_by(v) for g in a.gens))


def dump_instance(inst) -> str:
    """The instance as text that parse_instance_text reads back."""
    lines = [f"degree: {inst.degree}"]
    if isinstance(inst, GroupConjInstance):
        lines.append(f"A0: {format_generating_set(inst.a0)}")
        lines.append(f"A1: {format_generating_set(inst.a1)}")
    else:
        lines.append(f"a0: {format_perm(inst.a0)}")
        lines.append(f"a1: {format_perm(inst.a1)}")
    lines.append(f"U: {format_generating_set(inst.u)}")
    if inst.witness is not None:
        lines.append(f"witness: {format_perm(inst.witness)}")
    return "\n".join(lines) + "\n"


def base_points(chain: StabilizerChain) -> tuple:
    """The chain's base points, 1-based, in chain order."""
    return tuple(lvl.base + 1 for lvl in chain._levels)


# A degree-300 yes-instance, where raw images are tuples: <(1 2 3)> and
# <(298 299 300)>, conjugate by the reversal that generates U.
DEGREE = 300
REVERSAL = " ".join(str(DEGREE + 1 - i) for i in range(1, DEGREE + 1))
DEGREE_300_TEXT = (
    f"degree: {DEGREE}\n"
    f"A0: {' '.join(map(str, [2, 3, 1, *range(4, DEGREE + 1)]))}\n"
    f"A1: {' '.join(map(str, [*range(1, DEGREE - 2), DEGREE - 1, DEGREE, DEGREE - 2]))}\n"
    f"U: {REVERSAL}\n"
)


def centralizer_order_in_sym(x: Permutation) -> int:
    """Closed form: the product over cycle lengths d of count_d! * d**count_d."""
    counts = {}
    for d in x.cycle_type():
        counts[d] = counts.get(d, 0) + 1
    return math.prod(math.factorial(c) * d**c for d, c in counts.items())


def centralizer_coset_oracle(inst: CosetIntersectionInstance, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """The coset-intersection question from the other side, to cross-check
    element.coset_intersects: enumerate the centralizer of x in S_m and test
    membership of c*y^-1 in <U>."""
    chain_c = membership_chain(centralizer_in_sym(inst.x))
    chain_u = membership_chain(inst.u)
    y_inv = inst.y.inverse()
    return any(chain_u.contains(c * y_inv) for c in enumerate_elements(chain_c, cap))


def symmetric_group(m: int) -> GeneratingSet:
    """A transposition and an m-cycle generating the full symmetric group."""
    if m < 1:
        raise ValueError("degree must be at least 1")
    if m == 1:
        return GeneratingSet(1, ())
    if m == 2:
        return GeneratingSet(2, (Permutation.from_cycles(2, (1, 2)),))
    return GeneratingSet(
        m,
        (Permutation.from_cycles(m, (1, 2)), Permutation.from_cycles(m, tuple(range(1, m + 1)))),
    )


def reference_exact_real_law(ctx, program, tape_seed: int, k: int) -> dict:
    """exact_real_law as a sum of one Fraction per masked commitment."""
    masked = ctx.masked_commits(1, k)
    weight = Fraction(1, len(masked))
    law: dict = {}
    for mask, commit in masked:
        view = view_from_randomness(ctx, program, tape_seed, commit, mask)
        law[view] = law.get(view, Fraction(0)) + weight
    return law


def reference_exact_sim_law(ctx, program, tape_seed: int, k: int) -> dict:
    """exact_sim_law as a sum of one Fraction per masked commitment on each
    side, then a division by the total mass."""
    mass: dict = {}
    total = Fraction(0)
    for side in (0, 1):
        masked = ctx.masked_commits(side, k)
        weight = Fraction(1, 2 * len(masked))
        for mask, commit in masked:
            view = simulated_view(ctx, program, tape_seed, side, commit, mask)
            if view is not None:
                mass[view] = mass.get(view, Fraction(0)) + weight
                total += weight
    if total == 0:
        raise BudgetExceeded("the verifier program defeats every side guess on this tape")
    return {view: p / total for view, p in mass.items()}


# -- planted defects ------------------------------------------------------------


class IdentityWitnessContext(InstanceContext):
    """A context whose witness() returns the identity, a wrong witness on
    every instance whose sides differ."""

    def witness(self) -> Permutation:
        return Permutation.identity(self.degree)


def refusing_the_identity(context_class):
    """context_class with its verifier's accepts refusing the identity
    response, which the honest prover reveals when its mask is the identity
    and the challenge is 1, or the witness's inverse and it is 0."""

    class IdentityRefusingContext(context_class):
        def accepts(self, commit, challenge, response) -> bool:
            return response != Permutation.identity(self.degree) and super().accepts(commit, challenge, response)

    return IdentityRefusingContext


def replay(ctx, program, tape_seed, commit) -> tuple:
    """The verifier's (tape prefix, challenge) on commit, replayed as the
    simulator's maps replay it: on tape_seed if it is a Replays, else on a
    fresh Replays of the seed."""
    replays = tape_seed if type(tape_seed) is Replays else Replays(tape_seed)
    return replays.challenge(program, ctx.instance, commit)


def simulated_view_without_restarts(ctx, program, tape_seed, side, commit, mask):
    """simulator.simulated_view with its restart taken out: the attempt's
    view is kept even when the challenge misses the guessed side."""
    prefix, challenge = replay(ctx, program, tape_seed, commit)
    return SimulatedView(prefix, commit, challenge, mask)


def simulated_view_keeping_misses(ctx, program, tape_seed, side, commit, mask):
    """simulator.simulated_view with its test turned round: the attempt's
    view is kept exactly when the challenge misses the guessed side, which
    is the simulator drawing its base for the guessed side's opposite."""
    prefix, challenge = replay(ctx, program, tape_seed, commit)
    if challenge_bit(challenge) == side:
        return None
    return SimulatedView(prefix, commit, challenge, mask)


def view_revealing_the_bare_mask(ctx, program, tape_seed, commit, mask):
    """simulator.view_from_randomness for a prover that reveals the bare
    mask whatever the challenge: the honest prover's view wherever the
    challenge is 1, a response that the verifier refuses where it is 0."""
    prefix, challenge = replay(ctx, program, tape_seed, commit)
    return SimulatedView(prefix, commit, challenge, mask)
