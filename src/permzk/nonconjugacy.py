"""Two-round interactive proof that two permutation groups are NOT
conjugate by any element of a third group, sound against an honest
verifier.

The roles flip relative to the conjugacy protocol: the verifier secretly
picks a side, masks it by a random element of <U>, and sends a batch of
random elements of the masked group; the prover must name the side.  When
the groups are not conjugate inside <U> the batch pins down its side as
soon as it generates the masked group; when they are conjugate the batch
carries no information about the side bit, so any prover is caught with
probability one half per session.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .engine import GeneratingSet, _generates_images, group_profile, membership_chain
from .framework import (
    PROVER,
    VERIFIER,
    Message,
    RandomTape,
    bit_payload,
    challenge_bit,
    run_parallel,
    run_sequential,
)
from .conjugacy import InstanceContext, ProtocolParams
from .perm import Permutation

CHALLENGE_LENGTH_FACTOR = 8
DEFAULT_SESSIONS = 2


def params_for(instance, k: Optional[int] = None, t: int = DEFAULT_SESSIONS) -> ProtocolParams:
    """Challenge batches default to 8 times the degree, long enough that a
    non-generating batch is a rare event."""
    return ProtocolParams(k if k is not None else CHALLENGE_LENGTH_FACTOR * instance.degree, t)


@dataclass(frozen=True)
class NonConjChallenge:
    side: int
    mask: Permutation
    payload: tuple


def draw_challenge(ctx: InstanceContext, k: int, tape: RandomTape) -> NonConjChallenge:
    """The honest verifier's secret draw: a side bit, a mask from <U>, and
    k independent uniform elements of the chosen group, all conjugated by
    the mask, which random_conjugates draws from the side's own chain.  The
    batch is not conditioned on generating anything."""
    side = tape.bit()
    mask = ctx.chain_u.random_element(tape)
    return NonConjChallenge(side, mask, ctx.side_chain(side).random_conjugates(tape, k, mask))


def challenge_matched(side: int, response) -> bool:
    return isinstance(response, bytes) and challenge_bit(response) == side


def matched_sides(ctx: InstanceContext, payload: tuple) -> tuple:
    """Sides whose group is conjugate to P = <payload> by some element of <U>:
    "|<payload>| = |side| and side^v is in <payload> for some v".  Decided
    from each side's table of U-conjugates (ctx.side_conjugates), built once
    per context, with one AND of the entries' masks and at most one
    generation test per side: a non-zero AND names a conjugate of the side
    that contains P, so the generation test's precondition holds, and P is
    that conjugate iff it has the side's order; when it has not, P equals
    no conjugate of that order.  A zero AND means no conjugate holds the
    entries, so P is none of them.  When either table is over the search
    cap, <U> is scanned instead (scan_matched_sides)."""
    tables = (ctx.side_conjugates(0), ctx.side_conjugates(1))
    if None in tables:
        return scan_matched_sides(ctx, payload)
    imgs = [x._img for x in payload]
    entries = set(imgs)
    out = []
    for side, masks in enumerate(tables):
        held = -1  # the bits of the conjugates holding every entry so far
        for x in entries:
            held &= masks.get(x, 0)
        if held and _generates_images(ctx.degree, imgs, ctx.side_chain(side).order()):
            out.append(side)
    return tuple(out)


def scan_matched_sides(ctx: InstanceContext, payload: tuple) -> tuple:
    """matched_sides by brute force over <U>.  The containment is tested on
    the side's few generators against the payload's chain, after pruning by
    order and by the conjugation-invariant cycle-type profile; the payload
    may be long, so the symmetric test would be far slower."""
    ctx.u_elements()  # refuses a |<U>| over the cap before the batch is read
    chain_p = membership_chain(GeneratingSet(ctx.degree, payload))
    profile_p = group_profile(chain_p, ctx.search_cap)
    out = []
    for side in (0, 1):
        if ctx.side_chain(side).order() != chain_p.order():
            continue
        if profile_p is not None and ctx.side_profile(side) not in (None, profile_p):
            continue
        if next(ctx.conjugators(side, chain_p), None) is not None:
            out.append(side)
    return tuple(out)


def brute_force_responder():
    """The honest unbounded prover as a responder, a function (ctx,
    payload) -> bytes naming a side: name the unique matching side; if both
    or neither side matches, the batch is uninformative, answer 0."""

    def respond(ctx, payload):
        sides = matched_sides(ctx, payload)
        return bit_payload(sides[0] if len(sides) == 1 else 0)

    return respond


def constant_responder(bit: int):
    payload = bit_payload(int(bit))
    return lambda ctx, p: payload


STANDARD_RESPONDERS = {
    "brute": brute_force_responder,
    "const0": lambda: constant_responder(0),
    "const1": lambda: constant_responder(1),
}


def session(ctx: InstanceContext, params: ProtocolParams, responder, rng_p, tape_v: RandomTape):
    """One atomic session: verifier challenge, prover side claim; it returns
    the verdict and the challenged side.  No responder draws, so rng_p goes
    unread."""
    challenge = draw_challenge(ctx, params.k, tape_v)
    yield Message(VERIFIER, challenge.payload)

    reply = responder(ctx, challenge.payload)
    yield Message(PROVER, reply)

    return challenge_matched(challenge.side, reply), {"side": challenge.side}


def run_composed(ctx, params, responder, rng: random.Random, parallel: bool = True):
    """Compose params.t sessions, bundled round by round unless asked
    otherwise; accept iff all sessions accept."""
    runner = run_parallel if parallel else run_sequential
    return runner(lambda rng_p, tape_v: session(ctx, params, responder, rng_p, tape_v), params.t, rng)
