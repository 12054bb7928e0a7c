"""The benchmark's four workloads.

Each workload is a class.  Constructing it is the set-up: it generates the
instances from the seed, hands their text to `instances.parse_instance_text`,
builds the contexts and runs one untimed warm-up operation of each kind on a
stream of its own.  `op(i)` is operation i of the closed loop; `failure(i,
out)` names a guarantee that the output breaks (None when it holds);
`record(i, out)` is the text the stream digest covers; `run_failures()` lists
the run-level checks that fail.

Instances are generated here, without the program's help, so that a change
to the program cannot change them.  Permutations are 0-based image lists
until they are written as instance text.  Every call into the program goes
through a module attribute (`conjugacy.run_composed`, not a name imported at
load time), so that the tracer's wrappers see it.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from permzk import conjugacy, element, framework, instances, nonconjugacy, simulator

ROOT = Path(__file__).resolve().parent.parent


# -- instance generation ------------------------------------------------------


def _text(img) -> str:
    return " ".join(str(i + 1) for i in img)


def _gens_text(gens) -> str:
    return ";".join(_text(g) for g in gens)


def _cycle(degree: int, *points: int) -> list:
    img = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        img[a] = b
    return img


def _conjugate(g, v) -> list:
    """v^-1 g v in the package's convention: sends v(i) to v(g(i))."""
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[v[i]] = v[gi]
    return out


def wreath_generators(a: int, b: int) -> list:
    """S_a wr S_b on a*b points, blocks of a consecutive points: a
    transposition and an a-cycle inside block 0, a pointwise swap of blocks 0
    and 1 and a cyclic shift of the blocks."""
    n = a * b
    swap = list(range(n))
    for i in range(a):
        swap[i], swap[a + i] = a + i, i
    return [
        _cycle(n, 0, 1),
        _cycle(n, *range(a)),
        swap,
        [(i + a) % n for i in range(n)],
    ]


def wreath_element(a: int, b: int, rng: random.Random) -> list:
    """A uniform element of S_a wr S_b: a uniform block permutation and a
    uniform permutation inside each block."""
    blocks = list(range(b))
    rng.shuffle(blocks)
    img = []
    for j in range(b):
        inner = list(range(a))
        rng.shuffle(inner)
        img.extend(a * blocks[j] + x for x in inner)
    return img


def group_conj_text(rng: random.Random) -> str:
    """A0 = S_4 wr S_4 (order 7,962,624), A1 = A0^v for a uniform v in S_16,
    U = <A1's generators, v>, with v declared as the witness."""
    a0 = wreath_generators(4, 4)
    v = list(range(16))
    rng.shuffle(v)
    a1 = [_conjugate(g, v) for g in a0]
    return (
        "degree: 16\n"
        f"A0: {_gens_text(a0)}\n"
        f"A1: {_gens_text(a1)}\n"
        f"U: {_gens_text(a1 + [v])}\n"
        f"witness: {_text(v)}\n"
    )


def non_conj_text() -> str:
    """A_4 on {1..4} against A_4 on {5..8} inside U = S_4 x S_4 (order 576),
    which keeps the two halves apart: a no-instance whose sides share order
    and cycle-type profile."""
    return (
        "degree: 8\n"
        f"A0: {_gens_text([_cycle(8, 0, 1, 2), _cycle(8, 1, 2, 3)])}\n"
        f"A1: {_gens_text([_cycle(8, 4, 5, 6), _cycle(8, 5, 6, 7)])}\n"
        f"U: {_gens_text([_cycle(8, 0, 1), _cycle(8, 0, 1, 2, 3), _cycle(8, 4, 5), _cycle(8, 4, 5, 6, 7)])}\n"
    )


def elem_conj_text(rng: random.Random) -> str:
    """U = S_4 wr S_8 on 32 points, a0 uniform in S_32, a1 = a0^v for a
    uniform v in U, with v declared as the witness."""
    a0 = list(range(32))
    rng.shuffle(a0)
    v = wreath_element(4, 8, rng)
    return (
        "degree: 32\n"
        f"a0: {_text(a0)}\n"
        f"a1: {_text(_conjugate(a0, v))}\n"
        f"U: {_gens_text(wreath_generators(4, 8))}\n"
        f"witness: {_text(v)}\n"
    )


def _stream(name: str, purpose: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{purpose}/{seed}")


# -- workloads ----------------------------------------------------------------


class GroupConj:
    """Atomic group-conjugacy sessions at degree 16, t=1, k=64, honest
    verifier; operations alternate the honest and the guessing prover and
    cycle over the instances of the seed."""

    name = "group-conj-m16"
    imports = ()
    instances = 4
    block = 2 * instances
    digest_ops = 8

    def __init__(self, seed: int):
        gen = _stream(self.name, "instances", seed)
        self.params = conjugacy.ProtocolParams(64, 1)
        self.program = framework.honest_verifier()
        self.pairs = []
        for _ in range(self.instances):
            ctx = conjugacy.InstanceContext(instances.parse_instance_text(group_conj_text(gen)))
            self.pairs.append(
                (
                    (ctx, conjugacy.HonestProver(ctx, self.params)),
                    (ctx, conjugacy.GuessingProver(ctx, self.params)),
                )
            )
        self.rng = _stream(self.name, "warm-up", seed)
        for i in range(self.block):
            self.op(i)
        self.rng = _stream(self.name, "sessions", seed)
        self.guesses = 0
        self.guess_wins = 0

    def _slot(self, i: int):
        return self.pairs[(i // 2) % self.instances][i % 2]

    def op(self, i: int):
        ctx, prover = self._slot(i)
        return conjugacy.run_composed(ctx, self.params, prover, self.program, self.rng)

    def failure(self, i: int, out):
        if i % 2:
            self.guesses += 1
            self.guess_wins += out.accepted
            return None
        return None if out.accepted else "honest session on a yes-instance rejected"

    def record(self, i: int, out) -> str:
        return out.transcript()

    def run_failures(self) -> list:
        # The guessing prover wins exactly when the honest challenge bit
        # matches its side guess, so its wins are Binomial(n, 1/2).  The band
        # is 4 sigma: a correct program leaves it in 6e-5 of runs.
        n = self.guesses
        if n == 0:
            return []
        rate = self.guess_wins / n
        band = 4 * math.sqrt(0.25 / n)
        if abs(rate - 0.5) > band:
            return [f"guessing prover accepted {rate:.4f} of {n} sessions, outside 1/2 +- {band:.4f}"]
        return []


class NonConj:
    """Default non-conjugacy runs at degree 8: t=2 in parallel, k=64,
    brute-force responder."""

    name = "non-conj-m8"
    imports = ()
    block = 1
    digest_ops = 16
    m = 8

    def __init__(self, seed: int):
        inst = instances.parse_instance_text(non_conj_text())
        self.ctx = conjugacy.InstanceContext(inst)
        self.params = nonconjugacy.params_for(inst)
        self.responder = nonconjugacy.brute_force_responder()
        self.rng = _stream(self.name, "warm-up", seed)
        self.op(0)
        self.rng = _stream(self.name, "sessions", seed)
        self.runs = 0
        self.wins = 0

    def op(self, i: int):
        return nonconjugacy.run_composed(self.ctx, self.params, self.responder, self.rng)

    def failure(self, i: int, out):
        self.runs += 1
        self.wins += out.accepted
        return None

    def record(self, i: int, out) -> str:
        return out.transcript()

    def run_failures(self) -> list:
        # The completeness bound of acceptance criterion 8 for t=2.
        bound = 1 - 2 ** (-self.m + 1) - 0.03
        if self.runs and self.wins / self.runs < bound:
            return [f"brute-force acceptance {self.wins / self.runs:.4f} of {self.runs} runs is below {bound:.4f}"]
        return []


class ElemConj:
    """16-fold sequential element-conjugacy runs at degree 32 with the honest
    prover and the honest verifier."""

    name = "elem-conj-m32"
    imports = ()
    block = 1
    digest_ops = 16

    def __init__(self, seed: int):
        inst = instances.parse_instance_text(elem_conj_text(_stream(self.name, "instances", seed)))
        self.ctx = element.ElementContext(inst)
        self.params = element.params_for(inst, t=16)
        self.prover = element.HonestElemProver(self.ctx)
        self.program = framework.honest_verifier()
        self.rng = _stream(self.name, "warm-up", seed)
        self.op(0)
        self.rng = _stream(self.name, "sessions", seed)

    def op(self, i: int):
        return element.run_composed(self.ctx, self.params, self.prover, self.program, self.rng)

    def failure(self, i: int, out):
        return None if out.accepted else "honest run on a yes-instance rejected"

    def record(self, i: int, out) -> str:
        return out.transcript()

    def run_failures(self) -> list:
        return []


# Exact checks: (fixture, k).  embed_s3 runs at k=2 because no single
# permutation generates S_3: with k=1 there are no generating tuples, so the
# protocol cannot be complete (and exact_real_law divides by their number).
EXACT_CHECKS = (("tiny_cyclic", 2), ("q2_groups", 2), ("q2_groups", 3), ("q2_groups", 4), ("embed_s3", 2))
ELEMENT_FIXTURE = "ec_yes_m3"
STAT_FIXTURE, STAT_K, STAT_SAMPLES = "q2_groups", 24, 200
TAPES = 3
STATS_PER_CYCLE = 8


def zk_schedule() -> tuple:
    """One cycle of zero-knowledge checks: every (program, tape) pair of every
    exact family, the families interleaved, with a statistical check at the
    head of each round so that any prefix of a round mixes every kind."""
    families = [("exact", fixture, k) for fixture, k in EXACT_CHECKS] + [("element", ELEMENT_FIXTURE, None)]
    pairs = [(prog, tape) for prog in sorted(framework.STANDARD_VERIFIERS) for tape in range(TAPES)]
    items = [fam + pair for pair in pairs for fam in families]
    per_round = len(items) // STATS_PER_CYCLE
    out = []
    for r in range(STATS_PER_CYCLE):
        out.append(("stat", STAT_FIXTURE, STAT_K, "honest", r % TAPES))
        out.extend(items[r * per_round : (r + 1) * per_round])
    return tuple(out)


class ZkCheck:
    """Zero-knowledge checks taken in order from a fixed cyclic schedule."""

    name = "zk-check"
    imports = ("scipy.stats",)
    schedule = zk_schedule()
    block = len(schedule)
    digest_ops = len(schedule) // STATS_PER_CYCLE

    def __init__(self, seed: int):
        def load(fixture):
            return instances.parse_instance_text((ROOT / "fixtures" / f"{fixture}.txt").read_text())

        self.ctxs = {fixture: conjugacy.InstanceContext(load(fixture)) for fixture in dict.fromkeys(f for f, _ in EXACT_CHECKS)}
        self.ctxs[ELEMENT_FIXTURE] = element.ElementContext(load(ELEMENT_FIXTURE))
        tapes = _stream(self.name, "tapes", seed)
        self.tapes = [tapes.getrandbits(32) for _ in range(TAPES)]
        self.rng = _stream(self.name, "warm-up", seed)
        for kind in ("exact", "element", "stat"):
            self.op(next(i for i, entry in enumerate(self.schedule) if entry[0] == kind))
        self.rng = _stream(self.name, "stat", seed)

    def op(self, i: int):
        kind, fixture, k, prog, tape = self.schedule[i % self.block]
        ctx = self.ctxs[fixture]
        program = framework.STANDARD_VERIFIERS[prog]()
        tape_seed = self.tapes[tape]
        if kind == "stat":
            rng = random.Random(self.rng.getrandbits(64))
            return simulator.compare_view_distributions(
                ctx, program, tape_seed=tape_seed, k=k, samples=STAT_SAMPLES, rng=rng
            )
        if kind == "exact":
            bijection = simulator.verify_view_bijection(ctx, program, tape_seed, k)
            report = simulator.compare_view_distributions(ctx, program, tape_seed=tape_seed, k=k, exact=True)
        else:
            bijection = element.verify_element_bijection(ctx, program, tape_seed)
            report = element.compare_element_view_distributions(ctx, program, tape_seed=tape_seed)
        return dict(report, bijection=bijection)

    def failure(self, i: int, out):
        if out["mode"] != "exact":
            return None
        broken = [key for key in ("bijection", "laws_equal", "uniform_on_consistent") if not out[key]]
        if out["tv_distance_upper"] != 0:
            broken.append("tv_distance_upper")
        return f"exact check {self.schedule[i % self.block]} failed: {', '.join(broken)}" if broken else None

    def record(self, i: int, out) -> str:
        kind, fixture, k, prog, tape = self.schedule[i % self.block]
        return repr((kind, fixture, k, prog, self.tapes[tape], sorted(out.items())))

    def run_failures(self) -> list:
        return []


WORKLOADS = {cls.name: cls for cls in (GroupConj, NonConj, ElemConj, ZkCheck)}
