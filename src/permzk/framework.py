"""Session plumbing shared by every protocol in the package: messages,
deterministic random tapes, views, verifier programs and their replays, and
the sequential and parallel composition runners.

A session is a generator that yields each Message as it is sent and returns
its verdict and its own counters.  The runners drive the generators, so they
work for any round schedule, and record each session: its events, and its
SessionOutcome with the view (the verifier tape's prefix and the messages)
and a wall-clock time for each of the session's own steps.  Every replay of
a verifier program, the simulator's rewinding as much as the re-decision of
a recorded view, goes through one Replays of the tape seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from operator import eq
from typing import Callable, Optional

from .perm import Permutation, format_perm

PROVER = "P"
VERIFIER = "V"


def challenge_bit(payload) -> int:
    """Canonical challenge decoding: exactly the byte string b"1" means 1,
    any other payload (including junk bytes) means 0."""
    return 1 if payload == b"1" else 0


def bit_payload(bit: int) -> bytes:
    return b"1" if bit else b"0"


@dataclass(frozen=True)
class Message:
    """One protocol message: sender "P" or "V" plus a payload, which is a
    permutation, a tuple of permutations, or a byte string."""

    sender: str
    payload: object


def render_payload(payload) -> str:
    if isinstance(payload, Permutation):
        return format_perm(payload)
    if isinstance(payload, bytes):
        return payload.decode("ascii", errors="backslashreplace")
    if isinstance(payload, (tuple, list)):
        parts = []
        for item in payload:
            parts.append(format_perm(item) if isinstance(item, Permutation) else repr(item))
        return ";".join(parts)
    return repr(payload)


@dataclass(frozen=True)
class TapePrefix:
    """The consumed prefix of a random tape: the seed plus how many draws
    were made.  Identical prefixes replay identically."""

    seed: int
    draws: int


class Replays:
    """Replays of verifier programs on one tape seed.  Each replay runs on
    a fresh tape, so it draws what a fresh RandomTape(seed) draws, and all
    the tapes read one buffer of the seed's 32-bit stream words, seeded on
    the first word any tape reads and extended as reads reach past it.
    With a table, which then serves one program, challenge() replays each
    distinct commitment once."""

    __slots__ = ("seed", "table", "_rng", "_words")

    def __init__(self, seed: int, table: Optional[dict] = None):
        self.seed = seed
        self.table = table
        self._rng = None
        self._words = []

    def word(self, i: int) -> int:
        try:
            return self._words[i]
        except IndexError:
            if self._rng is None:
                self._rng = random.Random(self.seed)
            while len(self._words) <= i:
                self._words.append(self._rng.getrandbits(32))
            return self._words[i]

    def challenge(self, program: VerifierProgram, instance, commit) -> tuple:
        """The program's move on a fresh tape of the seed, a pure function
        of (instance, tape, commit): (the consumed tape prefix, the
        challenge)."""
        table = self.table
        out = table.get(commit) if table is not None else None
        if out is None:
            tape = RandomTape(self.seed, self)
            challenge = program.challenge(instance, tape, commit)
            out = tape.prefix(), challenge
            if table is not None:
                table[commit] = out
        return out


class _WordStream:
    """random.Random's getrandbits read off a Replays' words from the first,
    as CPython draws it: k <= 32 bits are the top k bits of one word; more
    take ceil(k / 32) words, least significant first, the last keeping its
    top bits.  randrange is random.Random's own, run on these draws."""

    __slots__ = ("_words", "_pos")

    randrange = random.Random.randrange
    _randbelow = random.Random._randbelow_with_getrandbits

    def __init__(self, words: Replays):
        self._words = words
        self._pos = 0

    def getrandbits(self, k: int) -> int:
        pos = self._pos
        if 0 < k <= 32:
            self._pos = pos + 1
            return self._words.word(pos) >> (32 - k)
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        n = (k + 31) // 32
        self._pos = pos + n
        word = self._words.word
        value = word(pos + n - 1) >> (32 * n - k) if n else 0
        for i in range(pos + n - 2, pos - 1, -1):
            value = value << 32 | word(i)
        return value


class RandomTape:
    """Deterministic random stream for one party, with a draw counter.  The
    stream is seeded on its first draw, so a tape nothing draws from costs
    no seeding; the values drawn are those of random.Random(seed).  A tape
    given words, the seed's Replays, reads them instead of seeding a stream
    of its own, so tapes that replay one seed share one seeding."""

    def __init__(self, seed: int, words: Optional[Replays] = None):
        self.seed = seed
        self.consumed = 0
        self._rng = None
        self._words = words

    def _stream(self):
        if self._rng is None:
            self._rng = random.Random(self.seed) if self._words is None else _WordStream(self._words)
        return self._rng

    def randrange(self, n: int) -> int:
        self.consumed += 1
        return self._stream().randrange(n)

    def index_draws(self, draws: int):
        """Count draws randrange-like draws that the caller makes itself
        from the returned getrandbits of this tape's stream."""
        self.consumed += draws
        return self._stream().getrandbits

    def bit(self) -> int:
        """randrange(2), run as CPython's loop on the stream itself."""
        self.consumed += 1
        return self._stream()._randbelow(2)

    def getrandbits(self, n: int) -> int:
        self.consumed += 1
        return self._stream().getrandbits(n)

    def prefix(self) -> TapePrefix:
        return TapePrefix(self.seed, self.consumed)


@dataclass(frozen=True)
class View:
    """Everything one party saw in a session: the verifier tape prefix and
    the ordered messages."""

    r_prefix: TapePrefix
    messages: tuple


@dataclass
class SessionOutcome:
    accepted: bool
    view: View
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerifierProgram:
    """A (possibly dishonest) verifier's challenge chooser: a pure function
    of the instance, its random tape, and the commitment message.  A tape
    budget, when declared, bounds how many draws one challenge may consume."""

    name: str
    choose: Callable[[object, RandomTape, object], bytes]
    tape_budget: Optional[int] = None

    def challenge(self, instance, tape: RandomTape, commit) -> bytes:
        before = tape.consumed
        out = self.choose(instance, tape, commit)
        if self.tape_budget is not None and tape.consumed - before > self.tape_budget:
            raise RuntimeError(
                f"verifier {self.name} consumed {tape.consumed - before} tape draws, "
                f"over its budget of {self.tape_budget}"
            )
        return out


def honest_verifier() -> VerifierProgram:
    """Challenge is one fresh tape bit, ignoring the commitment."""
    return VerifierProgram(
        "honest", lambda inst, tape, commit: bit_payload(tape.bit()), tape_budget=1
    )


def constant_verifier(bit: int) -> VerifierProgram:
    payload = bit_payload(int(bit))
    return VerifierProgram("const" + payload.decode("ascii"), lambda inst, tape, commit: payload, tape_budget=0)


def _payload_fixed_points(payload) -> int:
    perms = payload if isinstance(payload, (tuple, list)) else (payload,)
    return sum(sum(map(eq, p._img, range(len(p._img)))) for p in perms if isinstance(p, Permutation))


def parity_verifier() -> VerifierProgram:
    """Challenge is the parity of the total fixed-point count of the
    commitment, a deterministic message-dependent bit."""
    return VerifierProgram(
        "parity",
        lambda inst, tape, commit: bit_payload(_payload_fixed_points(commit) & 1),
        tape_budget=0,
    )


STANDARD_VERIFIERS = {
    "honest": honest_verifier,
    "const0": lambda: constant_verifier(0),
    "const1": lambda: constant_verifier(1),
    "parity": parity_verifier,
}


@dataclass
class CompositeOutcome:
    """Result of a composed run: accept iff every session accepted.  Events
    are (session index, round index, message) in emission order, which is
    session-major for sequential runs and round-major for parallel runs."""

    accepted: bool
    outcomes: tuple
    events: tuple

    def transcript(self) -> str:
        lines = [f"s{s + 1}.r{r + 1} {msg.sender} {render_payload(msg.payload)}" for s, r, msg in self.events]
        lines.append("ACCEPT" if self.accepted else "REJECT")
        return "\n".join(lines) + "\n"


def _run_batches(make_session, t: int, rng: random.Random, batch: int) -> CompositeOutcome:
    """Drive t sessions in batches of `batch`, advancing the sessions of a
    batch in lockstep, one message each per round.  Each session's counters
    get round_ns, the wall-clock time of each of its own steps, the one to
    each message and the one to its verdict, so one entry more than its
    view has messages.  A batch spawns its streams from rng when it starts,
    so a run that raises part-way has drawn only for the batches it began."""
    if t < 1:
        raise ValueError("t must be at least 1")
    clock = time.perf_counter_ns
    events = []
    outcomes = [None] * t
    for first in range(0, t, batch):
        alive = []
        for s_idx in range(first, min(first + batch, t)):
            # The prover's stream is seeded from rng first, the verifier's
            # tape second; a RandomTape seeds its stream on its first draw,
            # so a stream that no party draws from is never seeded.
            rng_p = RandomTape(rng.getrandbits(64))
            tape_v = RandomTape(rng.getrandbits(64))
            alive.append((s_idx, make_session(rng_p, tape_v), tape_v, [], []))
        r_idx = 0
        while alive:
            still = []
            for entry in alive:
                s_idx, gen, tape_v, messages, round_ns = entry
                start = clock()
                try:
                    msg = next(gen)
                except StopIteration as stop:
                    round_ns.append(clock() - start)
                    accepted, counters = stop.value
                    view = View(tape_v.prefix(), tuple(messages))
                    outcomes[s_idx] = SessionOutcome(accepted, view, {"round_ns": tuple(round_ns), **counters})
                    continue
                round_ns.append(clock() - start)
                messages.append(msg)
                events.append((s_idx, r_idx, msg))
                still.append(entry)
            alive = still
            r_idx += 1
    return CompositeOutcome(all(o.accepted for o in outcomes), tuple(outcomes), tuple(events))


def run_sequential(make_session, t: int, rng: random.Random) -> CompositeOutcome:
    """t independent sessions one after another; accept iff all accept.
    make_session(rng_p, tape_v) must return a session generator."""
    return _run_batches(make_session, t, rng, 1)


def run_parallel(make_session, t: int, rng: random.Random) -> CompositeOutcome:
    """t independent sessions advanced in lockstep, messages bundled round by
    round; accept iff all accept."""
    return _run_batches(make_session, t, rng, t)

