"""Stabilizer chains, sampling, and small-group oracles.

The chain implementation is checked against breadth-first closure, which
never looks at transversals, and against textbook group orders.
"""

import collections
import functools
import hashlib
import importlib.util
import itertools
import math
import operator
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from permzk import engine
from permzk.engine import (
    BudgetExceeded,
    GeneratingSet,
    StabilizerChain,
    build_chain,
    centralizer_in_sym,
    enumerate_elements,
    generating_tuples,
    group_equal,
    group_profile,
    membership_chain,
    parse_generating_set,
    random_generating_tuple,
    _generates_images,
)
from permzk.cli import genlemma_bound
from permzk.conjugacy import InstanceContext
from permzk.element import ElementContext
from permzk.framework import RandomTape, Replays
from permzk.instances import load_group_file, load_instance, parse_instance_text
from permzk.perm import Permutation, raw_images

from helpers import DEGREE_300_TEXT, base_points, centralizer_order_in_sym, conjugated_set, format_generating_set, symmetric_group

ALPHA = 1e-3
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def gset(degree, *texts):
    return parse_generating_set(";".join(texts), degree)


def generates(gens: GeneratingSet, order: int) -> bool:
    return _generates_images(gens.degree, [g._img for g in gens.gens], order)


def residue(chain, y: Permutation) -> Permutation:
    """What is left of y once sifted through the chain's transversals."""
    return Permutation._raw(chain._strip(y._img)[0])


def assert_draws_are_conjugated(chain, v, seed, k) -> tuple:
    """random_conjugates(rng, k, v) against random_elements(rng, k)
    conjugated by v: value by value, leaving a random.Random in the same
    state and a RandomTape with the same draw count.  Returns the draws."""
    ours, theirs = random.Random(seed), random.Random(seed)
    draws = chain.random_conjugates(ours, k, v)
    assert draws == tuple(x.conjugated_by(v) for x in chain.random_elements(theirs, k))
    assert ours.getstate() == theirs.getstate()
    ours, theirs = RandomTape(seed), RandomTape(seed)
    assert chain.random_conjugates(ours, k, v) == draws
    chain.random_elements(theirs, k)
    assert ours.consumed == theirs.consumed == k * len(chain._levels)
    assert ours.getrandbits(64) == theirs.getrandbits(64)
    return draws


def unmasked_generating_tuple(chain, k, rng):
    """G's own generating k-tuple, drawn as the sampler drew it before it
    took a mask: raw draws from the chain's own table, attempt by attempt."""
    for attempt in range(1, engine.DEFAULT_TUPLE_ATTEMPTS + 1):
        imgs = chain._random_images(rng, k)
        if _generates_images(chain.degree, imgs, chain.order()):
            return tuple(map(Permutation._raw, imgs)), attempt
    raise BudgetExceeded("no generating tuple")


def assert_tuple_draws_are_conjugated(chain, v, seed, k):
    """random_generating_tuple(chain, k, rng, v) against G's own tuple,
    taken on a copy of the same stream, conjugated by v entry by entry:
    the same values and attempts, leaving a random.Random in the same state
    and a RandomTape with the same draw count; when k is too small, both
    raise BudgetExceeded after the same draws.  Returns the masked tuple,
    or None when k was too small."""
    out = []
    for stream in (random.Random, RandomTape):
        ours, theirs = stream(seed), stream(seed)
        try:
            gt = random_generating_tuple(chain, k, ours, v)
        except BudgetExceeded:
            gt = None
        try:
            perms, attempts = unmasked_generating_tuple(chain, k, theirs)
            assert gt is not None
            assert gt.perms == tuple(x.conjugated_by(v) for x in perms)
            assert gt.attempts == attempts
        except BudgetExceeded:
            assert gt is None
        if stream is random.Random:
            assert ours.getstate() == theirs.getstate()
        else:
            assert ours.consumed == theirs.consumed
        assert ours.getrandbits(64) == theirs.getrandbits(64)
        out.append(gt)
    assert out[0] == out[1]
    return out[0]


def test_generating_set_validation():
    with pytest.raises(ValueError):
        GeneratingSet(0)
    with pytest.raises(ValueError):
        GeneratingSet(3, (Permutation([2, 1]),))
    with pytest.raises(ValueError):
        GeneratingSet(3, ("2 1 3",))


def test_format_parse_round_trip():
    a = gset(4, "2 1 3 4", "2 3 4 1")
    assert parse_generating_set(format_generating_set(a), 4).gens == a.gens
    assert parse_generating_set("", 5).gens == ()
    with pytest.raises(ValueError):
        parse_generating_set("2 1 3", 4)


KNOWN_ORDERS = [
    (gset(1, ""), 1),
    (gset(3, "2 3 1"), 3),
    (gset(4, "2 1 3 4", "2 3 4 1"), 24),     # S_4
    (gset(4, "2 3 1 4", "1 3 4 2"), 12),     # A_4
    (gset(4, "2 3 4 1", "2 1 4 3"), 8),      # D_4
    (gset(4, "2 1 4 3", "3 4 1 2"), 4),      # Klein four
    (gset(6, "2 3 4 5 6 1"), 6),             # C_6
    (gset(5, "2 3 4 5 1", "2 1 3 4 5"), 120),  # S_5
]


@pytest.mark.parametrize("a,order", KNOWN_ORDERS)
def test_known_group_orders(a, order):
    assert build_chain(a).order() == order


def test_symmetric_group_constructor():
    for m in (1, 2, 3, 5, 7):
        assert build_chain(symmetric_group(m)).order() == math.factorial(m)


def test_contains_matches_enumeration_exhaustively():
    a = gset(4, "2 3 1 4", "1 3 4 2")  # A_4
    chain = build_chain(a)
    members = set(enumerate_elements(chain))
    assert len(members) == chain.order() == 12
    for img in itertools.permutations(range(1, 5)):
        p = Permutation(img)
        assert chain.contains(p) == (p in members)


def test_strip_is_identity_exactly_on_members():
    chain = build_chain(gset(4, "2 3 4 1", "2 1 4 3"))
    identity = Permutation.identity(4)
    for p in enumerate_elements(chain):
        assert residue(chain, p) == identity
    outside = Permutation([2, 3, 1, 4])
    assert residue(chain, outside) != identity
    with pytest.raises(ValueError):
        chain.contains(Permutation([2, 1]))


def test_base_points_are_moved_points():
    chain = build_chain(gset(4, "2 1 3 4", "2 3 4 1"))
    assert base_points(chain) == (1, 2, 3)
    # order = product of transversal sizes along the chain
    assert chain.order() == 24


def test_stabilizer_chain_deep_generator_orbits():
    # a generator fixing the first base point must still grow the first
    # orbit through words that pass below and come back
    a = gset(5, "1 3 2 4 5", "2 1 3 4 5", "1 2 4 5 3")
    chain = build_chain(a)
    enum = enumerate_elements(chain, cap=10_000)
    assert chain.order() == len(enum)
    for p in enum:
        assert chain.contains(p)


def test_random_element_trivial_group():
    chain = build_chain(gset(3, ""))
    rng = random.Random(0)
    for _ in range(5):
        assert chain.random_element(rng) == Permutation.identity(3)


def test_random_element_uniform_on_c3():
    chain = build_chain(gset(3, "2 3 1"))
    rng = random.Random(42)
    counts = {p: 0 for p in enumerate_elements(chain)}
    n = 3000
    for _ in range(n):
        counts[chain.random_element(rng)] += 1
    assert stats.chisquare(list(counts.values())).pvalue > ALPHA


def test_random_element_covers_s4():
    chain = build_chain(gset(4, "2 1 3 4", "2 3 4 1"))
    rng = random.Random(7)
    seen = {chain.random_element(rng) for _ in range(2000)}
    assert len(seen) == 24


def test_random_generating_tuple_trivial_group():
    gt = random_generating_tuple(build_chain(gset(4, "")), 3, random.Random(0), Permutation.identity(4))
    assert gt.attempts == 1
    assert gt.perms == (Permutation.identity(4),) * 3


def test_random_generating_tuple_generates():
    a = gset(4, "2 1 3 4", "2 3 4 1")
    rng = random.Random(3)
    for _ in range(20):
        gt = random_generating_tuple(build_chain(a), 16, rng, Permutation.identity(4))
        assert build_chain(GeneratingSet(4, gt.perms)).order() == 24
        assert len(gt.perms) == 16


def test_random_generating_tuple_budget():
    # k=1 from S_4 can only generate a cyclic subgroup
    with pytest.raises(BudgetExceeded):
        random_generating_tuple(build_chain(gset(4, "2 1 3 4", "2 3 4 1")), 1, random.Random(0), Permutation.identity(4))


def test_random_generating_tuple_uniform_on_c3_pairs():
    # G(C_3, 2) has 8 members: every pair except (identity, identity)
    a = build_chain(gset(3, "2 3 1"))
    tuples = generating_tuples(a, 2)
    assert len(tuples) == 8
    rng = random.Random(11)
    counts = {t: 0 for t in tuples}
    for _ in range(4000):
        counts[random_generating_tuple(a, 2, rng, Permutation.identity(3)).perms] += 1
    assert stats.chisquare(list(counts.values())).pvalue > ALPHA


def test_generating_tuples_klein_four():
    # two distinct involutions are needed: 3*3 - 3 = 6 ordered pairs
    a = gset(4, "2 1 4 3", "3 4 1 2")
    assert len(generating_tuples(build_chain(a), 2, cap=100)) == 6


@pytest.mark.parametrize("k", [0, -1])
def test_generating_tuples_refuse_k_below_one(k):
    # the sampler's refusal: the empty tuple is no commitment, and a negative
    # length is no tuple at all
    chain = build_chain(gset(3, "2 3 1"))
    for call in (lambda: generating_tuples(chain, k), lambda: random_generating_tuple(chain, k, None, Permutation.identity(3))):
        with pytest.raises(ValueError, match="k must be at least 1"):
            call()


@st.composite
def group_and_tuple(draw):
    """A group of degree at most 6 given by one to three random generators,
    and a seeded tuple of 1 to 4 uniform elements drawn from it."""
    m = draw(st.integers(1, 6))
    perm = st.permutations(range(1, m + 1)).map(Permutation)
    chain = build_chain(GeneratingSet(m, tuple(draw(st.lists(perm, min_size=1, max_size=3)))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return chain, draw(st.integers(1, 4)), rng


@settings(max_examples=80, deadline=None, derandomize=True)
@given(group_and_tuple())
def test_generates_agrees_with_bfs_closure(case):
    chain, k, rng = case
    n = chain.order()
    gens = GeneratingSet(chain.degree, tuple(chain.random_element(rng) for _ in range(k)))
    # enumerate_elements closes the source generators breadth-first, never
    # reading the tuple's chain transversals
    assert generates(gens, n) == (len(enumerate_elements(build_chain(gens))) == n)
    try:
        gt = random_generating_tuple(chain, k, rng, Permutation.identity(chain.degree))
    except BudgetExceeded:
        return  # k elements cannot generate this group
    assert generates(GeneratingSet(chain.degree, gt.perms), n)


@st.composite
def group_and_conjugator(draw):
    """A group of degree at most 5 given by up to three random generators,
    a conjugating permutation, and a stream seed."""
    m = draw(st.integers(1, 5))
    perm = st.permutations(range(1, m + 1)).map(Permutation)
    chain = build_chain(GeneratingSet(m, tuple(draw(st.lists(perm, max_size=3)))))
    return chain, draw(perm), draw(st.integers(0, 2**32))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(group_and_conjugator())
def test_random_conjugates_are_random_elements_conjugated_by_v(case):
    chain, v, seed = case
    members = {x.conjugated_by(v) for x in enumerate_elements(chain)}
    for k in (1, 10):
        assert set(assert_draws_are_conjugated(chain, v, seed, k)) <= members
    for k in (1, 2, 3):
        gt = assert_tuple_draws_are_conjugated(chain, v, seed, k)
        assert gt is None or set(gt.perms) <= members
    for call in (chain.random_conjugates, lambda rng, k, w: random_generating_tuple(chain, k, rng, w)):
        with pytest.raises(ValueError, match="degree mismatch"):
            call(random.Random(seed), 1, Permutation.identity(chain.degree + 1))
    with pytest.raises(ValueError, match="k must be at least 1"):
        random_generating_tuple(chain, 0, random.Random(seed), v)


def test_chain_gens_drop_duplicates_and_identities():
    a = gset(3, "1 2 3", "2 3 1", "2 3 1", "1 2 3", "2 1 3", "2 3 1")
    assert tuple(map(tuple, build_chain(a).gens)) == ((1, 2, 0), (1, 0, 2))
    assert build_chain(gset(1, "1", "1")).gens == ()


@st.composite
def seeded_generating_set(draw):
    """Up to four generators of degree 1 to 8 from a seed, each a random
    permutation of a random subset of the points, so that intransitive and
    small groups turn up beside the symmetric and alternating ones."""
    m = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gens = []
    for _ in range(rng.randrange(5)):
        support = rng.sample(range(m), rng.randrange(1, m + 1))
        img = list(range(m))
        for p, q in zip(support, rng.sample(support, len(support))):
            img[p] = q
        gens.append(Permutation([i + 1 for i in img]))
    return GeneratingSet(m, tuple(gens)), rng


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seeded_generating_set())
def test_chain_gens_are_the_canonical_raw_images(case):
    a, _ = case
    chain = build_chain(a)
    # the generators less duplicates and identities, in order, for either
    # construction
    identity = Permutation.identity(a.degree)
    assert chain.gens == tuple(g._img for g in dict.fromkeys(a.gens) if g != identity)
    assert membership_chain(a).gens == chain.gens


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seeded_generating_set())
def test_membership_chain_agrees_with_build_chain(case):
    gens, rng = case
    m = gens.degree
    built, grown = build_chain(gens), membership_chain(gens)
    assert grown.order() == built.order()
    assert generates(gens, built.order())
    if m <= 5:
        ys = [Permutation(images) for images in itertools.permutations(range(1, m + 1))]
    else:
        # random permutations are mostly non-members; the group's own
        # elements are members
        ys = [Permutation(rng.sample(range(1, m + 1), m)) for _ in range(100)]
        ys += [built.random_element(rng) for _ in range(100)]
    for y in ys:
        assert grown.contains(y) == built.contains(y)


def test_generates_grows_orbits_in_place(monkeypatch):
    # a membership chain never rebuilds an orbit, so no representative is
    # made, or inverted, twice
    n = build_chain(S4_WR_S4).order()
    tuples = wreath_tuples(S4_WR_S4, 5, 8)
    rebuilds = []
    rebuild = StabilizerChain._rebuild_orbit

    def recorded(self, idx):
        rebuilds.append(idx)
        return rebuild(self, idx)

    inverted = collections.Counter()
    invert = engine.inverse_table

    def counted(img):
        inverted[img] += 1
        return invert(img)

    monkeypatch.setattr(StabilizerChain, "_rebuild_orbit", recorded)
    monkeypatch.setattr(engine, "inverse_table", counted)
    for gens in tuples:
        inverted.clear()
        assert generates(gens, n)
        assert inverted and max(inverted.values()) == 1
    assert rebuilds == []


@pytest.mark.parametrize("m", [1, 2])
def test_raw_paths_at_degree_1_and_2(m):
    # the two smallest degrees, the edge of every raw path, on the trivial
    # and the full group
    everything = [Permutation(p) for p in itertools.permutations(range(1, m + 1))]
    for gens in ((), tuple(everything)):
        chain = build_chain(GeneratingSet(m, gens))
        members = set(enumerate_elements(chain))
        assert chain.order() == len(members) == (1 if not gens else len(everything))
        for y in everything:
            assert chain.contains(y) == (y in members)
            assert (residue(chain, y) == Permutation.identity(m)) == (y in members)
        draws = [chain.random_element(random.Random(seed)) for seed in range(20)]
        assert set(draws) == members
        for v in everything:
            conjugates = {y.conjugated_by(v) for y in members}
            assert set(assert_draws_are_conjugated(chain, v, 7, 5)) <= conjugates


def boundary_group(m):
    """S_5 x C_3, the 3-cycle on the last three points, from degree 8 on;
    at degrees 255 to 257 it moves the largest byte values and the first
    point past them.  The full group at degrees 1 and 2."""
    if m < 8:
        return symmetric_group(m)
    cycles = ((1, 2, 3, 4, 5), (1, 2), (m - 2, m - 1, m))
    return GeneratingSet(m, tuple(Permutation.from_cycles(m, c) for c in cycles))


def closure_of(gset):
    """The group's elements by breadth-first closure over plain tuples."""
    gens = [tuple(i - 1 for i in g.images) for g in gset.gens]
    frontier = [tuple(range(gset.degree))]
    seen = set(frontier)
    while frontier:
        layer = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    layer.append(y)
        frontier = layer
    return {Permutation([i + 1 for i in x]) for x in seen}


@pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 300])
def test_chains_on_both_sides_of_the_encoding_switch(m):
    gset = boundary_group(m)
    members = closure_of(gset)
    chain = build_chain(gset)
    assert chain.order() == membership_chain(gset).order() == len(members) == (360 if m >= 8 else m)
    assert set(enumerate_elements(chain)) == members
    rng = random.Random(m)
    ys = list(members)[:60] + [Permutation(rng.sample(range(1, m + 1), m)) for _ in range(20)]
    if m >= 8:
        ys.append(Permutation.from_cycles(m, (m - 1, m)))
    for y in ys:
        assert chain.contains(y) == (y in members)
    v = Permutation(rng.sample(range(1, m + 1), m))
    for seed in range(3):
        draws = chain.random_elements(random.Random(seed), 20)
        reference = random.Random(seed)
        assert draws == tuple(randrange_draw(chain, reference) for _ in range(20))
        assert set(draws) <= members
        assert assert_draws_are_conjugated(chain, v, seed, 20) == tuple(x.conjugated_by(v) for x in draws)
        perms, _ = assert_tuple_draws_are_conjugated(chain, v, seed, 4)
        assert build_chain(GeneratingSet(m, perms)).order() == chain.order()
        assert assert_tuple_draws_are_conjugated(chain, v, seed, 1) is None or chain.order() <= 2
    for call in (chain.random_conjugates, lambda rng, k, w: random_generating_tuple(chain, k, rng, w)):
        with pytest.raises(ValueError, match="degree mismatch"):
            call(random.Random(0), 1, Permutation.identity(m + 1))


def alternating_group(m):
    # for even m, A_m = <(1 2 3), (2 3 ... m)>
    return GeneratingSet(m, (Permutation.from_cycles(m, (1, 2, 3)), Permutation.from_cycles(m, tuple(range(2, m + 1)))))


@pytest.mark.parametrize("m", [8, 12, 16])
def test_generates_early_exit_at_symmetric_order(m):
    # the transposition and the m-cycle both land on the first level, so the
    # product reaches m! only inside _close; A_m stops at m!/2 and fails
    assert build_chain(alternating_group(m)).order() == math.factorial(m) // 2
    assert not generates(alternating_group(m), math.factorial(m))
    assert generates(symmetric_group(m), math.factorial(m))


def block_perm(*block_cycles):
    """The permutation of 16 points moving the four blocks {1..4}, {5..8},
    ... as whole blocks along the given cycles of block numbers 1-4."""
    return Permutation.from_cycles(
        16, *(tuple(4 * (b - 1) + i for b in cyc) for cyc in block_cycles for i in range(1, 5))
    )


S4_ON_BLOCK_1 = (Permutation.from_cycles(16, (1, 2)), Permutation.from_cycles(16, (1, 2, 3, 4)))
S4_WR_S4 = GeneratingSet(16, S4_ON_BLOCK_1 + (block_perm((1, 2)), block_perm((1, 2, 3, 4))))
# the index-2 subgroup S_4 wr A_4: the blocks move by even permutations only
S4_WR_A4 = GeneratingSet(16, S4_ON_BLOCK_1 + (block_perm((1, 2, 3)), block_perm((2, 3, 4))))


def wreath_tuples(source, count, seed):
    chain = build_chain(source)
    rng = random.Random(seed)
    return [GeneratingSet(16, tuple(chain.random_element(rng) for _ in range(64))) for _ in range(count)]


@pytest.mark.parametrize("source,seed", [(S4_WR_S4, 5), (S4_WR_A4, 6)], ids=["S4wrS4", "S4wrA4"])
def test_generates_early_exit_matches_full_chain_on_64_tuples(source, seed):
    n = build_chain(S4_WR_S4).order()
    assert n == 24**5 and build_chain(S4_WR_A4).order() == n // 2
    for gens in wreath_tuples(source, 50, seed):
        assert generates(gens, n) == (build_chain(gens).order() == n)


def test_generates_skips_close_when_ingestion_reaches_the_order(monkeypatch):
    n = build_chain(S4_WR_S4).order()
    full, short = wreath_tuples(S4_WR_S4, 10, 7), wreath_tuples(S4_WR_A4, 1, 7)[0]
    closes = []
    close = StabilizerChain._close

    def recorded(self, *args):
        stopped_early = close(self, *args)
        closes.append((args, stopped_early))
        return stopped_early

    monkeypatch.setattr(StabilizerChain, "_close", recorded)
    # (1 2) then (1 2 3) already place transversals of sizes 3 and 2
    assert generates(gset(3, "2 1 3", "2 3 1"), 6)
    assert all(generates(gens, n) for gens in full)
    assert closes == []
    # S_8 reaches 8! while closing and stops there; S_4 wr A4 closes in full
    assert generates(symmetric_group(8), math.factorial(8))
    assert not generates(short, n)
    assert closes == [((math.factorial(8),), True), ((n,), False)]


# -- the chain test seeded with G's own chain -------------------------------
#
# Without masks, chain._generates and chain._generated_by fill one membership
# chain of the images that starts from G's base points and skips a level once
# its orbit has G's size there.  The oracle is the images' membership chain
# built from nothing, and its order against |G|.


def without_masks(chain):
    """The chain with its generation test on the chain test, as groups over
    the mask cap have it."""
    chain.__dict__["_maximal_masks"] = None
    chain.__dict__.pop("_generates", None)
    return chain


def seeded_test_groups():
    """(G's chain, the chain of a proper subgroup or None): the wreath
    products, S_5..S_8, A_6, A_8, the benchmark's sampled chains and the
    first side of the degree-300 instance, whose raw images are tuples."""
    yield build_chain(S4_WR_S4), build_chain(S4_WR_A4)
    yield build_chain(S4_WR_A4), None
    for gens in [symmetric_group(m) for m in range(5, 9)] + [alternating_group(6), alternating_group(8)]:
        yield build_chain(gens), None
    for chain in bench_sampled_chains():
        yield chain, None
    yield build_chain(parse_instance_text(DEGREE_300_TEXT).a0), None


def seeded_test_tuples(chain, sub, rng):
    """Raw-image k-tuples of G for k = 1, 2, 3 and 64: drawn from G, from the
    stabilizer of G's first base point (G's draws that fix it) and from sub,
    all-identity, and with repeated entries."""
    base = chain._levels[0].base
    for k in (1, 2, 3, 64):
        fixing = []
        while len(fixing) < k:
            fixing += [x for x in chain._random_images(rng, 8 * k) if x[base] == base]
        drawn = list(chain._random_images(rng, k))
        yield from (drawn, fixing[:k], [chain._ident] * k, (drawn[:1 + k // 3] * 3)[:k])
        if sub is not None:
            yield list(sub._random_images(rng, k))


def test_seeded_chain_test_agrees_with_the_unseeded_order(monkeypatch):
    fills, closes = [], []
    fill, close = engine._fill, StabilizerChain._close

    def filled(chain, target=0):
        fills.append([(lvl.base, lvl.full) for lvl in chain._levels])
        return fill(chain, target)

    def closed(self, target=0):
        answer = close(self, target)
        closes.append(([(lvl.base, lvl.full) for lvl in self._levels], answer))
        return answer

    monkeypatch.setattr(engine, "_fill", filled)
    monkeypatch.setattr(StabilizerChain, "_close", closed)
    rng, answers, seeded_closes = random.Random(11), collections.Counter(), set()
    for chain, sub in seeded_test_groups():
        chain, m, n = without_masks(chain), chain.degree, chain.order()
        seeds = [(lvl.base, len(lvl.transversal)) for lvl in chain._levels]
        outside = [x._img for x in (Permutation.from_cycles(m, (1, 2)), Permutation.from_cycles(m, (1, m))) if not chain.contains(x)]
        for imgs in seeded_test_tuples(chain, sub, rng):
            oracle = membership_chain(GeneratingSet(m, tuple(map(Permutation._raw, imgs)))).order() == n
            fills.clear()
            closes.clear()
            draws = imgs if chain._radix is None else [chain._at[x] for x in imgs]
            assert chain._generates(draws) == chain._generated_by(imgs) == oracle
            # one chain per test, seeded with G's base and orbit sizes, and
            # closed, where it is, on that chain
            assert fills == [seeds, seeds]
            assert all(levels == seeds for levels, _ in closes)
            seeded_closes.update(answer for _, answer in closes)
            answers[oracle] += 1
            for x in outside:
                assert not chain._generated_by(imgs[:-1] + [x])
            assert len(fills) == 2  # an image outside G costs no chain
    assert min(answers[True], answers[False]) >= 50
    assert seeded_closes == {True, False}


def test_enumerate_elements_counts_and_cap():
    assert len(enumerate_elements(build_chain(gset(3, "2 3 1")))) == 3
    chain = build_chain(gset(4, "2 1 3 4", "2 3 4 1"))
    els = enumerate_elements(chain)
    assert len(els) == len(set(els)) == 24
    assert els[0] == Permutation.identity(4)
    with pytest.raises(BudgetExceeded):
        enumerate_elements(chain, cap=10)
    # the closure keeps its own budget: on generators of S_4 that no
    # sifting has filled, order() reads 1, and the cap still holds
    unfilled = StabilizerChain(4, [bytes([1, 0, 2, 3]), bytes([1, 2, 3, 0])])
    assert unfilled.order() == 1
    with pytest.raises(BudgetExceeded, match="^closure exceeded cap 10$"):
        enumerate_elements(unfilled, 10)


def test_order_equals_enumeration_length():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randrange(3, 7)
        gens = tuple(
            Permutation(rng.sample(range(1, m + 1), m)) for _ in range(rng.randrange(1, 3))
        )
        chain = build_chain(GeneratingSet(m, gens))
        assert chain.order() == len(enumerate_elements(chain, cap=10_000))


def test_group_equal():
    c3_a = gset(3, "2 3 1")
    c3_b = gset(3, "3 1 2")
    assert group_equal(c3_a, c3_b)
    assert not group_equal(c3_a, gset(3, "2 1 3"))
    with pytest.raises(ValueError, match="degree mismatch"):
        group_equal(c3_a, gset(4, "2 3 1 4"))
    # different generating sets of S_4
    assert group_equal(gset(4, "2 1 3 4", "2 3 4 1"), gset(4, "2 1 3 4", "1 3 2 4", "1 2 4 3"))


def test_group_profile_invariant_and_distinguishing():
    c3 = build_chain(gset(3, "2 3 1"))
    assert group_profile(c3) == ((1, 1, 1), (3,), (3,))
    # conjugation cannot change the profile
    v = Permutation([3, 1, 2])
    assert group_profile(build_chain(conjugated_set(gset(3, "2 3 1"), v))) == group_profile(c3)
    # same order, different profile
    a = build_chain(gset(6, "2 1 3 4 5 6"))
    b = build_chain(gset(6, "2 1 4 3 5 6"))
    assert a.order() == b.order() == 2
    assert group_profile(a) != group_profile(b)
    assert group_profile(build_chain(symmetric_group(7)), cap=100) is None


def test_centralizer_in_sym_brute_force():
    # every element of S_5 with assorted cycle types
    for images in ([2, 1, 3, 4, 5], [2, 3, 1, 4, 5], [2, 1, 4, 3, 5], [2, 3, 4, 5, 1], [1, 2, 3, 4, 5]):
        x = Permutation(images)
        chain = build_chain(centralizer_in_sym(x))
        assert chain.order() == centralizer_order_in_sym(x)
        brute = [
            p
            for p in (Permutation(i) for i in itertools.permutations(range(1, 6)))
            if p * x == x * p
        ]
        assert len(brute) == chain.order()
        assert all(chain.contains(p) for p in brute)


def load_bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_sampled_chains():
    """The chains the benchmark's sessions sample from, on its seed-0
    instances: group-conj-m16's S_4 wr S_4 and its conjugate, elem-conj-m32's
    S_4 wr S_8, and non-conj-m8's two A_4 sides and S_4 x S_4."""
    bench = load_bench_workloads()
    group = InstanceContext(parse_instance_text(bench.group_conj_text(bench._stream("group-conj-m16", "instances", 0))))
    elem = ElementContext(parse_instance_text(bench.elem_conj_text(bench._stream("elem-conj-m32", "instances", 0))))
    non = InstanceContext(parse_instance_text(bench.non_conj_text()))
    return (group.side_chain(0), group.side_chain(1), elem.chain_u, non.side_chain(0), non.side_chain(1), non.chain_u)


def fixture_chains():
    """A chain of every group that a fixture file names."""
    for path in sorted(pathlib.Path("fixtures").glob("*.txt")):
        try:
            inst = load_instance(path)
        except ValueError:
            yield build_chain(load_group_file(path))
            continue
        for gens in (inst.a0, inst.a1, inst.u):
            if isinstance(gens, GeneratingSet):
                yield build_chain(gens)


def golden_chains():
    """Every fixture's groups, symmetric and alternating groups, the two
    wreath products and chains on 64-tuples drawn from them, and the
    benchmark's sampled chains."""
    yield from fixture_chains()
    for m in range(1, 9):
        yield build_chain(symmetric_group(m))
    for m in (4, 6, 8):
        yield build_chain(alternating_group(m))
    for source, seed in ((S4_WR_S4, 5), (S4_WR_A4, 6)):
        yield build_chain(source)
        for gens in wreath_tuples(source, 3, seed):
            yield build_chain(gens)
    yield from bench_sampled_chains()


def test_chain_structure_digest():
    # the base points, orbit order and representatives of every level fix
    # what random_element draws.  The first 50 chains were pinned on the
    # Permutation-based engine that the raw-image one replaced, whose
    # representatives were inverted when each orbit was rebuilt rather than
    # when a sift first read them; the benchmark's sampled chains on the
    # raw-image engine before membership chains grew orbits in place.  Each
    # chain is drawn from first: its sampling tables are derived data
    h = hashlib.sha256()
    for chain in golden_chains():
        chain.random_elements(random.Random(0), 3)
        levels = [(lvl.base, lvl.points, [tuple(lvl.transversal[p]) for p in lvl.points]) for lvl in chain._levels]
        h.update(repr(levels).encode("ascii"))
    assert h.hexdigest() == "83e5e33468527c3770d123b7df916f5e87697205cf989a3694adb63127577e7c"


# 300 distinct arrangements of six points, by index
ARRANGEMENTS = list(itertools.islice(itertools.permutations(range(6)), 300))
ARRANGEMENT_INDEX = {a: j for j, a in enumerate(ARRANGEMENTS)}


def block_chain(sizes):
    """A two-level stand-in for a chain of degree 12, made for the sampler
    alone: level i has sizes[i] points, and its j-th representative puts
    block i (points 6i..6i+5) in the j-th arrangement and fixes the other
    block, so a draw shows the index drawn at each level."""
    chain = StabilizerChain(12)
    for i, n in enumerate(sizes):
        lvl = engine._Level(6 * i)
        lvl.points = tuple(range(n))
        arranged = [tuple(6 * i + p for p in a) for a in ARRANGEMENTS[:n]]
        other = tuple(range(6 - 6 * i, 12 - 6 * i))
        lvl.transversal = {j: raw_images(a + other if i == 0 else other + a) for j, a in enumerate(arranged)}
        chain._levels.append(lvl)
    return chain


def drawn_indices(x):
    img = x._img
    return [ARRANGEMENT_INDEX[tuple(img[:6])], ARRANGEMENT_INDEX[tuple(p - 6 for p in img[6:])]]


ORBIT_SIZES = [(n, 301 - n) for n in range(1, 301)]


def test_table_draw_is_cpython_randrange():
    # the sampler inlines the loop of CPython's randrange(n), getrandbits
    # of n.bit_length() bits until below n; every n in 1..300 runs at both
    # levels, powers of two included, which reject about half their draws.
    # Should a CPython release change randrange, this fails
    chains = [block_chain(sizes) for sizes in ORBIT_SIZES]
    for seed in range(10):
        for sizes, chain in zip(ORBIT_SIZES, chains):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(3):
                x = chain.random_element(ours)
                assert drawn_indices(x) == [theirs.randrange(n) for n in sizes]
                assert ours.getstate() == theirs.getstate()


def test_table_draw_counts_one_tape_draw_per_level():
    for seed, sizes in enumerate(ORBIT_SIZES):
        chain = block_chain(sizes)
        ours, theirs = RandomTape(seed), RandomTape(seed)
        draws = chain.random_elements(ours, 3)
        assert [drawn_indices(x) for x in draws] == [[theirs.randrange(n) for n in sizes] for _ in range(3)]
        assert ours.consumed == theirs.consumed == 6
        assert ours.getrandbits(64) == theirs.getrandbits(64)


def randrange_draw(chain, rng):
    """One element drawn as the sampler drew it before its tables: a
    randrange per level over the orbit points, composed deepest first."""
    acc = Permutation.identity(chain.degree)
    for lvl in chain._levels:
        acc = Permutation._raw(lvl.transversal[lvl.points[rng.randrange(len(lvl.points))]]) * acc
    return acc


K_DRAW_GROUPS = {"S4wrS4": S4_WR_S4, "S7": symmetric_group(7), "S2": symmetric_group(2), "trivial": GeneratingSet(3)}


@pytest.mark.parametrize("name", K_DRAW_GROUPS)
def test_random_elements_are_k_random_element_draws(name):
    chain = build_chain(K_DRAW_GROUPS[name])
    v = Permutation(random.Random(1).sample(range(1, chain.degree + 1), chain.degree))
    for seed, k in ((0, 1), (1, 5), (2, 64)):
        batch, single, reference = random.Random(seed), random.Random(seed), random.Random(seed)
        draws = chain.random_elements(batch, k)
        assert draws == tuple(chain.random_element(single) for _ in range(k))
        assert draws == tuple(randrange_draw(chain, reference) for _ in range(k))
        assert batch.getstate() == single.getstate() == reference.getstate()
        if name == "trivial":
            assert draws == (Permutation.identity(3),) * k
            assert batch.getstate() == random.Random(seed).getstate()
        assert_draws_are_conjugated(chain, v, seed, k)
    batch, reference = RandomTape(3), RandomTape(3)
    assert chain.random_elements(batch, 7) == tuple(randrange_draw(chain, reference) for _ in range(7))
    assert batch.consumed == reference.consumed == 7 * len(chain._levels)


def test_random_elements_wrap_the_raw_draws():
    chains = list(fixture_chains()) + [build_chain(GeneratingSet(3))]
    for seed, chain in enumerate(chains):
        for k in (1, 4):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert chain.random_elements(ours, k) == tuple(map(Permutation._raw, chain._random_images(theirs, k)))
            assert ours.getstate() == theirs.getstate()
        ours, theirs = RandomTape(seed), RandomTape(seed)
        assert chain.random_element(ours) == Permutation._raw(chain._random_images(theirs, 1)[0])
        assert ours.prefix() == theirs.prefix()


def test_index_draws_match_the_compose_loop():
    # every fixture group with a radix, and the trivial group, against a
    # chain of the same group made to compose each draw by hiding its radix:
    # the same outputs, a random.Random left in the same state, and a
    # RandomTape, plain or on a Replays, with the same draw count and stream
    def attempt(call):
        try:
            return call()
        except BudgetExceeded:
            return BudgetExceeded

    groups = [GeneratingSet(c.degree, tuple(map(Permutation._raw, c.gens))) for c in fixture_chains()]
    skipped = []
    for group in groups + [GeneratingSet(3)]:
        chain, loop = build_chain(group), build_chain(group)
        if chain._radix is None:
            skipped.append(chain.order())
            continue
        loop.__dict__["_radix"] = None
        m = chain.degree
        v = Permutation(random.Random(m).sample(range(1, m + 1), m))
        calls = (
            lambda c, rng: c._random_images(rng, 5),
            lambda c, rng: c.random_element(rng),
            lambda c, rng: c.random_elements(rng, 7),
            lambda c, rng: c.random_conjugates(rng, 9, v),
            lambda c, rng: attempt(lambda: random_generating_tuple(c, 2, rng, v)),
        )
        for seed in range(3):
            for call in calls:
                ours, theirs = random.Random(seed), random.Random(seed)
                assert call(chain, ours) == call(loop, theirs)
                assert ours.getstate() == theirs.getstate()
                for words in (None, Replays(seed)):
                    ours, theirs = RandomTape(seed, words), RandomTape(seed, words)
                    assert call(chain, ours) == call(loop, theirs)
                    assert ours.consumed == theirs.consumed
                    assert ours.getrandbits(64) == theirs.getrandbits(64)
        assert loop._radix is None and loop._maximal_masks is None and loop._maps == {}
    assert skipped == [720]  # no_m6's U, S_6


def count_wraps(monkeypatch) -> list:
    """Route Permutation._raw through a counter: the raw images it wraps."""
    raw = Permutation._raw.__func__
    made = []

    def counted(cls, img):
        made.append(img)
        return raw(cls, img)

    monkeypatch.setattr(Permutation, "_raw", classmethod(counted))
    return made


def test_random_generating_tuple_wraps_only_the_accepted_attempt(monkeypatch):
    # S_5 at k=2 rejects about a third of its draws, so some seeds take several
    # attempts; |S_5|^2 is over the search cap, so there are no masks and
    # only the accepted attempt is wrapped
    chain, ident = build_chain(symmetric_group(5)), Permutation.identity(5)
    assert chain._maximal_masks is None
    made = count_wraps(monkeypatch)
    attempts = []
    for seed in range(20):
        made.clear()
        gt = random_generating_tuple(chain, 2, random.Random(seed), ident)
        assert tuple(made) == tuple(p._img for p in gt.perms)
        attempts.append(gt.attempts)
    assert max(attempts) >= 3


def test_random_generating_tuple_wraps_no_attempt_once_a_mask_has_its_map(monkeypatch):
    # S_3 at k=2 rejects half its draws (18 of 36 pairs generate).  Its
    # radix and masks are raw images and wrap nothing, and the first draw
    # for v interns the 6 elements of S_3^v into the list the chain keeps
    # for v: once per chain without the kept list, once per v with it, and
    # no attempt wraps anything
    s3, v = symmetric_group(3), Permutation.from_cycles(3, (1, 3))
    kept = build_chain(s3)
    made = count_wraps(monkeypatch)
    attempts = []
    for seed in range(20):
        made.clear()
        gt = random_generating_tuple(build_chain(s3), 2, random.Random(seed), v)
        assert len(made) == 6
        made.clear()
        assert random_generating_tuple(kept, 2, random.Random(seed), v) == gt
        assert len(made) == (6 if seed == 0 else 0)
        attempts.append(gt.attempts)
    assert max(attempts) >= 3


def test_conjugate_maps_are_kept_per_v_within_the_search_cap():
    # S_4 on 1..4 has a radix, so a draw for v keeps one tuple for v, the
    # 24 elements of S_4^v in draw order, which the next draw for v reads,
    # until one more would take the kept tuples over the cap: 416 of the
    # 720 v in S_6.  A v drawn after that gets a tuple per draw, with the
    # generating tuples of a chain that keeps it.  v and v(5 6) conjugate
    # alike and share one kept tuple.  S_5 has no radix, so its chain keeps
    # no tuple
    s4 = GeneratingSet(6, (Permutation.from_cycles(6, (1, 2)), Permutation.from_cycles(6, (1, 2, 3, 4))))
    chain = build_chain(s4)
    assert chain._maximal_masks is not None
    for i, v in enumerate(Permutation(p) for p in itertools.permutations(range(1, 7))):
        gt = random_generating_tuple(chain, 2, random.Random(i), v)
        kept = dict(chain._maps)
        assert random_generating_tuple(chain, 2, random.Random(i), v) == gt
        assert chain._maps == kept and all(chain._maps[x] is m for x, m in kept.items())
        assert len(kept) == min(i + 1, 416)
        assert sum(map(len, kept.values())) <= engine.DEFAULT_SEARCH_CAP
        if i < 416:
            assert kept[v._img] == tuple(Permutation._raw(x).conjugated_by(v) for x in chain._radix)
        else:
            assert random_generating_tuple(build_chain(s4), 2, random.Random(i), v) == gt
    assert len({id(perms) for perms in chain._maps.values()}) == len(chain._perms) == 208
    chain = build_chain(symmetric_group(5))
    assert chain._maximal_masks is None and chain._radix is None
    for i, v in enumerate(Permutation(p) for p in itertools.permutations(range(1, 6))):
        random_generating_tuple(chain, 2, random.Random(i), v)
    assert chain._maps == {}


def test_random_generating_tuple_tests_every_attempt_in_g(monkeypatch):
    # S_3 (masks) and S_5 (no masks) on 1..m inside S_{m+1}, and v = (1 m+1),
    # which moves G off itself: per attempt the generation test reads k
    # elements, the radix's at the positions whose masks it reads or the
    # images _generates_images reads, and all lie in G, while the accepted
    # tuple, which generates G^v, does not
    read = []

    class ReadMasks(list):
        def __getitem__(self, i):
            read.append(radix[i])
            return super().__getitem__(i)

    real = engine._generates_images
    monkeypatch.setattr(engine, "_generates_images", lambda degree, imgs, order, frame=None: read.extend(imgs) or real(degree, imgs, order, frame))
    for m in (3, 5):
        n = m + 1
        chain = build_chain(GeneratingSet(n, (Permutation.from_cycles(n, (1, 2)), Permutation.from_cycles(n, tuple(range(1, n))))))
        assert (chain._maximal_masks is not None) == (m == 3)
        if m == 3:
            radix = chain._radix
            chain.__dict__["_maximal_masks"] = ReadMasks(chain._maximal_masks)
        v = Permutation.from_cycles(n, (1, n))
        attempts = []
        for seed in range(20):
            for _ in range(2):  # the second draw for v reads the kept list
                read.clear()
                gt = random_generating_tuple(chain, 2, random.Random(seed), v)
                assert len(read) == 2 * gt.attempts
                assert all(chain.contains(Permutation._raw(x)) for x in read)
                assert not all(map(chain.contains, gt.perms))
            attempts.append(gt.attempts)
        assert max(attempts) >= 3


# -- the generation test by maximal-subgroup masks -------------------------
#
# A chain of a group G with |G|^2 within the search cap keeps, per element,
# the bitmask of G's maximal subgroups that hold it, unless walking G's
# subgroup lattice would read more products than the cap; k elements
# generate G exactly when their masks AND to 0.  chain._generates uses the
# masks where they exist and _generates_images otherwise.


def elementary_abelian_2(r: int) -> GeneratingSet:
    """C_2^r as r disjoint transpositions on 2r points."""
    return GeneratingSet(2 * r, tuple(Permutation.from_cycles(2 * r, (2 * i + 1, 2 * i + 2)) for i in range(r)))


def test_lookup_agrees_with_the_chain_test_on_every_short_tuple_of_every_fixture_group():
    # every fixture group but no_m6's U (S_6, 720^2 over the cap) has masks,
    # read at positions of the radix, which lists each element of G once
    checked = 0
    for chain in fixture_chains():
        n = chain.order()
        if n * n > engine.DEFAULT_SEARCH_CAP:
            assert chain._maximal_masks is None and n == 720
            continue
        assert chain._maximal_masks is not None
        radix = chain._radix
        assert sorted(radix) == sorted(p._img for p in enumerate_elements(chain))
        for k in (1, 2, 3):
            for draws in itertools.product(range(n), repeat=k):
                imgs = [radix[i] for i in draws]
                assert chain._generates(draws) == _generates_images(chain.degree, imgs, n), imgs
                checked += 1
    assert checked == 47_242


@st.composite
def group_and_subgroup_draws(draw):
    """A group G of degree m at most 5 with masks, a conjugator v, and 4m
    elements drawn from a subgroup of G: G itself, or the group of one or
    two elements of G, so that both answers come up."""
    m = draw(st.integers(1, 5))
    perm = st.permutations(range(1, m + 1)).map(Permutation)
    chain = build_chain(GeneratingSet(m, tuple(draw(st.lists(perm, min_size=1, max_size=3)))))
    if chain._maximal_masks is None:
        chain = build_chain(GeneratingSet(m, (draw(perm),)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sub = chain if draw(st.booleans()) else build_chain(GeneratingSet(m, chain.random_elements(rng, draw(st.integers(1, 2)))))
    return chain, draw(perm), [x._img for x in sub.random_elements(rng, 4 * m)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(group_and_subgroup_draws())
def test_lookup_agrees_with_the_chain_test_at_k_4m(case):
    # on G's own draws, which the sampler tests as they are and wraps as
    # their conjugates by v, through the map it makes for v and then keeps
    chain, v, imgs = case
    n, draws = chain.order(), [chain._at[x] for x in imgs]
    assert chain._maximal_masks is not None
    assert chain._generates(draws) == chain._generated_by(imgs) == _generates_images(chain.degree, imgs, n)
    for _ in range(2):
        assert chain._conjugates(draws, v) == tuple(Permutation._raw(x).conjugated_by(v) for x in imgs)


def test_random_generating_tuple_keeps_the_chain_paths_draws_and_attempts():
    # the lookup's tuples against unmasked_generating_tuple, which tests
    # each attempt with _generates_images: same perms, attempts and stream
    masks = [build_chain(symmetric_group(m)).random_elements(random.Random(m), 3) for m in range(1, 7)]
    for chain in fixture_chains():
        if chain._maximal_masks is None:
            continue
        m = chain.degree
        for seed, v in enumerate(masks[m - 1] + (Permutation.identity(m),)):
            for k in (2, 3, 4 * m):
                assert_tuple_draws_are_conjugated(chain, v, seed, k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from((4, 6)), st.integers(0, 2**32), st.integers(1, 4))
def test_lattice_walk_stays_within_its_budget_on_elementary_abelian_groups(r, seed, gens):
    # C_2^6 has 2,825 subgroups: its walk stops at the product budget and
    # the chain keeps _generates_images; C_2^4 (67 subgroups, 15 maximal)
    # finishes.  Either way the answer is the chain test's, on the tuples
    # of a random subgroup at k = 4m
    chain = build_chain(elementary_abelian_2(r))
    started = time.perf_counter()
    masks = chain._maximal_masks
    assert time.perf_counter() - started < 0.2
    assert (masks is None) == (r == 6)
    if masks is not None:
        assert functools.reduce(operator.or_, masks) == 2**15 - 1
    rng = random.Random(seed)
    sub = build_chain(GeneratingSet(2 * r, chain.random_elements(rng, gens)))
    imgs = [x._img for x in sub.random_elements(rng, 8 * r)]
    assert chain._generates([chain._at[x] for x in imgs]) == _generates_images(2 * r, imgs, chain.order())


def brute_force_subgroups(elems) -> list:
    """Every subgroup of the group whose elements are elems, as frozensets
    of Permutations: from the trivial group, close each subgroup found with
    one more element at a time, multiplying pairs until nothing is new."""
    ident = elems[0]

    def close(members):
        members = set(members)
        while True:
            new = {a * b for a in members for b in members} - members
            if not new:
                return frozenset(members)
            members |= new

    found = {frozenset([ident])}
    frontier = list(found)
    while frontier:
        nxt = []
        for h in frontier:
            for g in elems:
                if g not in h:
                    k = close(h | {g})
                    if k not in found:
                        found.add(k)
                        nxt.append(k)
        frontier = nxt
    return sorted(found, key=len)


def eulerian_function(subgroups, k: int) -> int:
    """P. Hall's phi_k(G) = sum over H <= G of mu(H, G) |H|^k, mu the
    Moebius function of the lattice: mu(G, G) = 1, and for H < G minus the
    sum of mu(K, G) over H < K <= G.  subgroups is sorted by order."""
    mu = {}
    for h in reversed(subgroups):
        mu[h] = 1 if h is subgroups[-1] else -sum(mu[k] for k in mu if h < k)
    return sum(mu[h] * len(h) ** k for h in subgroups)


@pytest.mark.parametrize("name", sorted(p.name for p in (BENCH.parent / "fixtures").glob("group_*.txt")))
def test_generating_tuples_count_hall_eulerian_function(name):
    # phi_k counts the generating k-tuples (P. Hall, 1936), from a lattice
    # that neither masks nor chains helped to find; at k = 4m and 8m, where
    # no enumeration reaches, phi_k / |G|^k is the exact generation
    # probability, above the bounds of criterion 3 and stats-genlemma
    gset = load_group_file(f"fixtures/{name}")
    chain, m = build_chain(gset), gset.degree
    subgroups = brute_force_subgroups(enumerate_elements(chain))
    n = len(subgroups[-1])
    assert n == chain.order()
    for k in (1, 2, 3):
        assert eulerian_function(subgroups, k) == len(generating_tuples(chain, k, cap=n**k))
    for k in (4 * m, 8 * m):
        assert Fraction(eulerian_function(subgroups, k), n**k) > genlemma_bound(m, k)
    pinned = {24: 10_080, 12: 1_560}
    if n in pinned:
        assert eulerian_function(subgroups, 3) == pinned[n]
