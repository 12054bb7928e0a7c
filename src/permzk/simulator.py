"""Black-box simulator for the three-round conjugacy protocol, and the
machinery that checks its output law.  Each law is one party's map over its
randomness: view_from_randomness sends the honest prover's (commit, mask) to
a view, and simulated_view sends the simulator's (side guess, commit, mask)
to a view, or to None (a restart) when the challenge misses the side.  The
commitment is one for the side masked by the mask: simulate and real_view
draw and test it in the side's group and conjugate only the accepted tuple
by the mask (ctx.sample_commit); the exact checks read every (mask,
commit) pair from ctx.masked_commits, made once per context.  Both maps
replay the verifier with framework.Replays, each replay on a fresh tape.
The maps take one call's Replays, which only the two
entry points, compare_view_distributions and verify_view_bijection, build
from their tape_seed, so all the replays of one public call read one
Replays, which draws the seed's stream once; an exact check's Replays also
keeps a table, so it replays each distinct commitment once.  Nothing of a
call's replays outlives it.  Exact laws push uniform randomness through
these maps on tiny instances, randomness_of_view inverts the honest map onto
the consistent views, recovering the mask from the response, and a
two-sample test compares sampled views at larger sizes.  Everything runs on
the context's protocol methods, so group (InstanceContext) and element
(ElementContext) instances are served alike, exact checks within the
context's search_cap.  The consistent-view oracle walks
ctx.candidate_commits, the commitments that one U-conjugate of a side
holds entry by entry (read off each side's table, ctx.side_conjugates),
as only those can have an accepted response, and asks
ctx.accepted_responses, which puts every response in <U> to ctx.accepts,
the live verifier's predicate, and keeps the answer for the life of the
context.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

from .engine import BudgetExceeded
from .framework import Replays, TapePrefix, VerifierProgram, challenge_bit
from .conjugacy import InstanceContext, ProtocolParams

DEFAULT_MAX_RESTARTS = 10 * 64


@dataclass(frozen=True)
class SimulatedView:
    """Same shape for simulated and real views: consumed tape prefix,
    commitment, challenge bytes, revealed permutation."""

    r_prefix: TapePrefix
    commit: object
    challenge: bytes
    response: object


@dataclass
class SimulateResult:
    view: SimulatedView
    restarts: int
    sample_attempts: int


def simulate(
    ctx: InstanceContext,
    program: VerifierProgram,
    rng: random.Random,
    *,
    k: int,
    replays: Replays,
) -> SimulateResult:
    """Simulate one session view without the witness: per attempt draw a
    mask, a side guess and a commitment for that side masked by it, in
    this order, and restart with fresh draws on the same tape until the
    guess holds.  Every attempt replays the verifier through replays."""
    total_attempts = 0
    for restart in range(1, DEFAULT_MAX_RESTARTS + 1):
        mask = ctx.chain_u.random_element(rng)
        side = rng.randrange(2)
        commit, attempts = ctx.sample_commit(side, k, rng, mask)
        total_attempts += attempts
        view = simulated_view(ctx, program, replays, side, commit, mask)
        if view is not None:
            return SimulateResult(view, restart, total_attempts)
    raise BudgetExceeded(
        f"simulator hit the restart cap ({DEFAULT_MAX_RESTARTS}); "
        "the instance is not a yes-instance or the verifier program defeats the side guess"
    )


def simulated_view(
    ctx: InstanceContext, program: VerifierProgram, replays: Replays, side: int, commit, mask,
) -> Optional[SimulatedView]:
    """One simulator attempt as a function of its randomness (a side guess,
    a mask from <U> and a commitment for that side masked by it), with the
    verifier replayed through replays: the view revealing the mask, or None
    when the challenge misses the side."""
    prefix, challenge = replays.challenge(program, ctx.instance, commit)
    if challenge_bit(challenge) != side:
        return None
    return SimulatedView(prefix, commit, challenge, mask)


def view_from_randomness(
    ctx: InstanceContext,
    program: VerifierProgram,
    replays: Replays,
    commit,
    mask,
) -> SimulatedView:
    """The honest-prover view as a function of the prover's randomness: a
    mask from <U> and a commitment for <A1> masked by it (a generating tuple
    of <A1>, or a1 itself, conjugated by the mask), with the verifier
    replayed through replays.  This is exactly the map the real protocol
    computes, so real_view() samples its inputs and then calls it."""
    prefix, challenge = replays.challenge(program, ctx.instance, commit)
    response = mask if challenge_bit(challenge) else ctx.witness() * mask
    return SimulatedView(prefix, commit, challenge, response)


def randomness_of_view(ctx: InstanceContext, view: SimulatedView):
    """Inverse of the honest prover's map on consistent views: recover the
    mask from the response and read the commitment off the view, as the
    pair (mask, commit) that ctx.masked_commits lists."""
    mask = view.response if challenge_bit(view.challenge) else ctx.witness().inverse() * view.response
    return mask, view.commit


def real_view(
    ctx: InstanceContext,
    program: VerifierProgram,
    rng: random.Random,
    *,
    k: int,
    replays: Replays,
) -> SimulatedView:
    """Draw the honest prover's randomness as its commit does
    (ctx.prover_draw) and record its view, replayed through replays, in the
    simulator's output shape."""
    mask, commit, _ = ctx.prover_draw(1, k, rng)
    return view_from_randomness(ctx, program, replays, commit, mask)


def enumerate_consistent_views(
    ctx: InstanceContext,
    program: VerifierProgram,
    replays: Replays,
    k: int,
) -> tuple:
    """Every view (commit, challenge, response) that the honest verifier
    accepts and whose challenge the program emits on replays' tape:
    for each candidate commitment, challenge = program(commit) and every
    response w that ctx.accepted_responses returns: the w in <U>, in
    enumeration order, that ctx.accepts, the live verifier, accepts.
    Enumerated directly from the definition, not through the prover or the
    simulator.  A commitment that no response makes acceptable under
    either challenge is not a candidate, so the program is not replayed on
    it (nor refused there for going over its tape budget)."""
    views = []
    for commit in ctx.candidate_commits(k):
        prefix, challenge = replays.challenge(program, ctx.instance, commit)
        for w in ctx.accepted_responses(commit, challenge):
            views.append(SimulatedView(prefix, commit, challenge, w))
    return tuple(views)


def verify_view_bijection(
    ctx: InstanceContext,
    program: VerifierProgram,
    tape_seed: int,
    k: int,
) -> bool:
    """Check that the honest-view map is a bijection from prover randomness
    (the (mask, commit) pairs of ctx.masked_commits for <A1>) onto the
    consistent-view set, with randomness_of_view as its inverse."""
    replays = Replays(tape_seed, {})
    images = []
    for mask, commit in ctx.masked_commits(1, k):
        view = view_from_randomness(ctx, program, replays, commit, mask)
        if randomness_of_view(ctx, view) != (mask, commit):
            return False
        images.append(view)
    distinct = set(images)
    return len(distinct) == len(images) and distinct == set(
        enumerate_consistent_views(ctx, program, replays, k)
    )


def exact_real_law(
    ctx: InstanceContext,
    program: VerifierProgram,
    replays: Replays,
    k: int,
) -> dict:
    """Exact law of the honest-prover view on replays' verifier tape."""
    masked = ctx.masked_commits(1, k)
    counts = Counter(view_from_randomness(ctx, program, replays, commit, mask) for mask, commit in masked)
    return {view: Fraction(c, len(masked)) for view, c in counts.items()}


def exact_sim_law(
    ctx: InstanceContext,
    program: VerifierProgram,
    replays: Replays,
    k: int,
) -> dict:
    """Exact law of the simulator's output on replays' verifier tape: the
    per-attempt draw conditioned on the side guess matching the challenge,
    counted per side in integers: a view's challenge bit is its side."""
    sizes, counts = [], []
    for side in (0, 1):
        masked = ctx.masked_commits(side, k)
        sizes.append(len(masked))
        counts.append(Counter(filter(None, (
            simulated_view(ctx, program, replays, side, commit, mask) for mask, commit in masked))))
    total = counts[0].total() * sizes[1] + counts[1].total() * sizes[0]
    if total == 0:
        raise BudgetExceeded("the verifier program defeats every side guess on this tape")
    return {view: Fraction(c * sizes[1 - side], total) for side in (0, 1) for view, c in counts[side].items()}


def total_variation(law_p: dict, law_q: dict) -> Fraction:
    keys = set(law_p) | set(law_q)
    return sum((abs(law_p.get(v, Fraction(0)) - law_q.get(v, Fraction(0))) for v in keys), Fraction(0)) / 2


def bucket_of_commit(commit) -> int:
    """Stable bucket, one of 8, for a commitment tuple, a lone permutation
    read as a 1-tuple (free of hash randomization, so reports reproduce
    exactly): h mod 8 for h = h * 1000003 + image mod 2^32 over the 1-based
    images.  8 divides 2^32, 1000003 = 3 mod 8 and 3^2 = 1 mod 8, so an
    image at distance d from the end weighs 3^d = 1 (d even) or 3 (d odd);
    summed in C over the raw images, joined into one sequence and sliced
    once, 1-based as 0-based sum plus count."""
    perms = commit if isinstance(commit, tuple) else (commit,)
    imgs = [p._img for p in perms]
    flat = b"".join(imgs) if imgs and type(imgs[0]) is bytes else tuple(chain.from_iterable(imgs))
    even, odd, length = sum(flat[-1::-2]), sum(flat[-2::-2]), len(flat)
    return (even + (length + 1) // 2 + 3 * (odd + length // 2)) % 8


def compare_view_distributions(
    ctx: InstanceContext,
    program: VerifierProgram,
    *,
    tape_seed: int,
    k: Optional[int] = None,
    exact: bool = False,
    samples: int = 5000,
    rng: Optional[random.Random] = None,
) -> dict:
    """Compare real and simulated view distributions for one fixed verifier
    tape.  Exact mode enumerates both laws and the consistent-view set;
    statistical mode draws samples from each side and runs a two-sample
    chi-square over (challenge bit, response, one of 8 commit buckets) cells.
    Only meaningful on yes-instances; anything else is refused.  The report
    keys are in the order the CLI prints them."""
    if not ctx.is_yes():
        raise ValueError("zero-knowledge comparison applies to yes-instances only")
    k = k if k is not None else ProtocolParams.for_instance(ctx.instance).k
    if exact:
        replays = Replays(tape_seed, {})
        law_r = exact_real_law(ctx, program, replays, k)
        law_s = exact_sim_law(ctx, program, replays, k)
        consistent = enumerate_consistent_views(ctx, program, replays, k)
        # a verifier that accepts no view leaves nothing to be uniform on
        uniform = Fraction(1, len(consistent)) if consistent else None
        equal = law_r == law_s
        return {
            "mode": "exact",
            "domain": len(consistent),
            "laws_equal": equal,
            "uniform_on_consistent": uniform is not None and len(law_r) == len(consistent)
            and all(law_r.get(v) == uniform for v in consistent),
            "tv_distance_upper": 0.0 if equal else float(total_variation(law_r, law_s)),
        }

    if samples < 1:
        raise ValueError("samples must be at least 1")
    from scipy import stats

    if rng is None:
        rng = random.Random(0)

    def cell(view: SimulatedView) -> tuple:
        return challenge_bit(view.challenge), view.response, bucket_of_commit(view.commit)

    # no table: hashing a k-tuple commitment costs more than the replay it saves
    replays = Replays(tape_seed)
    sim_counts = Counter()
    restarts = 0
    attempts = 0
    for _ in range(samples):
        res = simulate(ctx, program, rng, k=k, replays=replays)
        restarts += res.restarts
        attempts += res.sample_attempts
        sim_counts[cell(res.view)] += 1
    real_counts = Counter(cell(real_view(ctx, program, rng, k=k, replays=replays)) for _ in range(samples))
    keys = sorted(set(sim_counts) | set(real_counts), key=repr)
    table = [
        [sim_counts.get(key, 0) for key in keys],
        [real_counts.get(key, 0) for key in keys],
    ]
    if len(keys) < 2:
        p_value = 1.0
    else:
        p_value = float(stats.chi2_contingency(table).pvalue)
    tv = sum(abs(sim_counts.get(c, 0) - real_counts.get(c, 0)) for c in keys) / (2 * samples)
    return {
        "mode": "stat",
        "samples": samples,
        "cells": len(keys),
        "restarts_mean": restarts / samples,
        "attempts_per_restart": attempts / restarts,
        "chi2_p": p_value,
        "tv_distance_upper": tv,
    }
