"""Replay tapes draw exactly what random.Random draws.

A tape made by RandomTape(seed, Replays(seed)) reads the seed's 32-bit
Mersenne Twister words from one shared buffer instead of seeding its own
stream, and rebuilds getrandbits from them as CPython does.  These checks
compare every draw with random.Random(seed), so they fail on a Python
release that changes how getrandbits or randrange consume the stream.  They
use the standard library only, so they also run without pytest:

    PYTHONPATH=src python3 tests/test_replay_tape.py
"""

import random

from permzk.framework import RandomTape, Replays, TapePrefix

SEEDS = (0, 1, 13, 2**32 - 1, 2**32, 2**64 - 1)
# 1 to past 2^64: every n to 300, powers of two and their neighbours, and
# a few large odd sizes
SIZES = sorted(
    set(range(1, 301))
    | {d + 2**j for j in range(9, 70) for d in (-1, 0, 1)}
    | {3**40, 10**30 + 7, 2**100 + 1}
)
BITS = (0, 1, 31, 32, 33, 64, 100)


def test_randrange_matches_random_at_every_size():
    for seed in SEEDS:
        words = Replays(seed)
        for n in SIZES:
            # each size on its own tape, from the start of the shared words
            assert RandomTape(seed, words).randrange(n) == random.Random(seed).randrange(n), (seed, n)
        tape, stdlib = RandomTape(seed, words), random.Random(seed)
        assert [tape.randrange(n) for n in SIZES] == [stdlib.randrange(n) for n in SIZES], seed


def refusal(draw, arg) -> str:
    """The message of the ValueError that draw(arg) raises."""
    try:
        draw(arg)
    except ValueError as err:
        return str(err)
    raise AssertionError(f"{draw} accepted {arg}")


def test_randrange_refuses_what_random_refuses():
    for n in (0, -1, -(2**70)):
        assert refusal(RandomTape(0, Replays(0)).randrange, n) == refusal(random.Random(0).randrange, n), n


def test_getrandbits_refuses_what_random_refuses():
    for seed in SEEDS:
        assert refusal(RandomTape(seed, Replays(seed)).getrandbits, -1) == refusal(random.Random(seed).getrandbits, -1)


def test_getrandbits_and_bit_match_random():
    for seed in SEEDS:
        words = Replays(seed)
        for k in BITS:
            assert RandomTape(seed, words).getrandbits(k) == random.Random(seed).getrandbits(k), (seed, k)
        tape, stdlib = RandomTape(seed, words), random.Random(seed)
        assert [tape.getrandbits(k) for k in BITS * 3] == [stdlib.getrandbits(k) for k in BITS * 3]
        tape, stdlib = RandomTape(seed, words), random.Random(seed)
        assert [tape.bit() for _ in range(64)] == [stdlib.randrange(2) for _ in range(64)]


def test_index_draws_match_random_with_the_same_counts():
    for seed in SEEDS:
        tape, fresh, stdlib = RandomTape(seed, Replays(seed)), RandomTape(seed), random.Random(seed)
        for draws, k in ((3, 2), (0, 5), (5, 33), (2, 64)):
            ours, theirs = tape.index_draws(draws), fresh.index_draws(draws)
            expected = [stdlib.getrandbits(k) for _ in range(draws)]
            assert [ours(k) for _ in range(draws)] == expected
            assert [theirs(k) for _ in range(draws)] == expected
            assert tape.consumed == fresh.consumed
        assert tape.prefix() == fresh.prefix() == TapePrefix(seed, 10)


def test_interleaved_draws_match_random():
    ops = [("randrange", n) for n in (2, 7, 2**31, 2**32, 2**64 + 1, 1)]
    ops += [("getrandbits", k) for k in BITS] + [("bit", None), ("index_draws", 3)]
    rng = random.Random(4)
    for seed in SEEDS:
        tape, fresh, stdlib = RandomTape(seed, Replays(seed)), RandomTape(seed), random.Random(seed)
        for _ in range(200):
            op, n = ops[rng.randrange(len(ops))]
            if op == "index_draws":
                ours, theirs = tape.index_draws(n), fresh.index_draws(n)
                expected = [stdlib.getrandbits(9) for _ in range(n)]
                assert [ours(9) for _ in range(n)] == [theirs(9) for _ in range(n)] == expected
            elif op == "bit":
                expected = stdlib.randrange(2)
                assert tape.bit() == fresh.bit() == expected
            else:
                expected = getattr(stdlib, op)(n)
                assert getattr(tape, op)(n) == getattr(fresh, op)(n) == expected, (seed, op, n)
            assert tape.consumed == fresh.consumed
        assert tape.getrandbits(64) == stdlib.getrandbits(64)


def test_tapes_sharing_words_read_different_lengths():
    # tapes on one buffer, each reading a different number of draws in a
    # different order of lengths, all read the seed's stream from its start
    for seed in SEEDS:
        words = Replays(seed)
        for length in (5, 1, 40, 0, 17, 40, 3):
            tape, stdlib = RandomTape(seed, words), random.Random(seed)
            assert [tape.randrange(1000) for _ in range(length)] == [stdlib.randrange(1000) for _ in range(length)]
            assert tape.prefix() == TapePrefix(seed, length)


def test_words_seed_nothing_until_a_tape_draws():
    words = Replays(5)
    tapes = [RandomTape(5, words) for _ in range(3)]
    assert words._rng is None
    assert tapes[0].prefix() == TapePrefix(5, 0)
    tapes[1].getrandbits(0)
    assert words._rng is None
    assert tapes[2].bit() == random.Random(5).randrange(2)
    assert words._rng is not None


if __name__ == "__main__":
    import sys

    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name)
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
