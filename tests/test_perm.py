"""Permutation arithmetic against hand values and exhaustive small cases."""

import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from permzk.perm import (
    Permutation,
    composer,
    conjugation,
    conjugator_in_sym,
    format_perm,
    identity_images,
    inverse_table,
    invert_images,
    parse_perm,
    raw_images,
    table,
)


def all_of_sym(m):
    return [Permutation(p) for p in itertools.permutations(range(1, m + 1))]


def test_identity_and_degree():
    e = Permutation.identity(4)
    assert e.degree == 4
    assert e.images == (1, 2, 3, 4)
    assert e == Permutation([1, 2, 3, 4])
    assert e(3) == 3


def test_images_must_be_a_bijection():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([0, 1, 2])
    with pytest.raises(ValueError):
        Permutation([2, 3, 4])
    with pytest.raises(ValueError):
        Permutation([])


@pytest.mark.parametrize(
    "images",
    [[1.9, 2.2], [2.0, 1.0], [True], [2, True], [True, False], ["2", "1"], [1, None], "21"],
    ids=["floats-that-truncate", "integral-floats", "true", "bool-beside-int", "bools", "digit-strings", "none", "text"],
)
def test_entries_must_be_ints(images):
    # nothing is converted: [1.9, 2.2] once truncated to the identity, and
    # [True] passed as the point 1
    with pytest.raises(ValueError, match="not all integers"):
        Permutation(images)


def test_composition_left_factor_acts_first():
    a = parse_perm("2 1 3")
    b = parse_perm("1 3 2")
    assert (a * b)(1) == b(a(1)) == 3
    assert (a * b).images == (3, 1, 2)
    assert (b * a).images == (2, 3, 1)


def test_composition_degree_mismatch():
    a, b = parse_perm("2 1"), parse_perm("2 1 3")
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError, match="degree mismatch"):
        a.conjugated_by(b)
    with pytest.raises(ValueError, match="degree mismatch"):
        conjugator_in_sym(a, b)
    with pytest.raises(TypeError):
        a * 3


def test_associativity_exhaustive_s3():
    s3 = all_of_sym(3)
    for x, y, z in itertools.product(s3, repeat=3):
        assert (x * y) * z == x * (y * z)


def test_inverse_and_pow():
    rng = random.Random(0)
    for _ in range(50):
        img = list(range(1, 9))
        rng.shuffle(img)
        p = Permutation(img)
        assert p * p.inverse() == Permutation.identity(8)
        assert p.inverse() * p == Permutation.identity(8)


def test_from_cycles():
    p = Permutation.from_cycles(6, (1, 2, 3))
    assert p.images == (2, 3, 1, 4, 5, 6)
    q = Permutation.from_cycles(4, (1, 2), (3, 4))
    assert q.images == (2, 1, 4, 3)


@pytest.mark.parametrize(
    "cycle",
    [(1.9, 2), (2.0, 1), (True, 2), (1, False), ("1", "3"), (1, None)],
    ids=["float-that-truncates", "integral-float", "true", "false", "digit-strings", "none"],
)
def test_from_cycles_points_must_be_ints(cycle):
    # nothing is converted: (1.9, 2) once truncated to the cycle (1 2)
    with pytest.raises(ValueError, match="is not an integer"):
        Permutation.from_cycles(3, cycle)


def test_from_cycles_refuses_points_out_of_range_or_repeated():
    with pytest.raises(ValueError, match="cycle point 4 outside 1..3"):
        Permutation.from_cycles(3, (1, 4))
    with pytest.raises(ValueError, match="cycle point 0 outside 1..3"):
        Permutation.from_cycles(3, (0, 1))
    with pytest.raises(ValueError, match="point 2 appears in two cycles"):
        Permutation.from_cycles(3, (1, 2), (2, 3))


@pytest.mark.parametrize(
    "degree",
    [0, -2, 2.5, 3.0, True, False, "3", None],
    ids=["zero", "negative", "fraction", "integral-float", "true", "false", "digit-string", "none"],
)
def test_from_cycles_refuses_a_degree_that_is_not_a_positive_int(degree):
    # from_cycles(0) and from_cycles(-2) once made a degree-0 object, and
    # from_cycles(2.5, ...) ended in a TypeError from range; identity is
    # from_cycles with no cycles
    with pytest.raises(ValueError, match="degree"):
        Permutation.from_cycles(degree)
    with pytest.raises(ValueError, match="degree"):
        Permutation.from_cycles(degree, (1, 2))
    with pytest.raises(ValueError, match="degree"):
        Permutation.identity(degree)


def test_conjugation_definition_and_action_law():
    # y conjugated by v is v^-1 * y * v, and conjugating twice composes
    rng = random.Random(1)
    s5 = all_of_sym(5)
    for _ in range(200):
        y, v, u = rng.choice(s5), rng.choice(s5), rng.choice(s5)
        assert y.conjugated_by(v) == v.inverse() * y * v
        assert y.conjugated_by(v).conjugated_by(u) == y.conjugated_by(v * u)


def test_conjugation_relabels_points():
    # v maps each cycle entry i to v(i)
    y = Permutation.from_cycles(6, (1, 2, 3))
    v = Permutation([4, 6, 5, 1, 3, 2])
    assert y.conjugated_by(v) == Permutation.from_cycles(6, (4, 6, 5))


def test_cycles_and_cycle_type():
    p = Permutation([2, 1, 4, 5, 3, 6])
    assert p.cycles() == ((1, 2), (3, 4, 5))
    assert p.cycles(include_fixed=True) == ((1, 2), (3, 4, 5), (6,))
    assert p.cycle_type() == (1, 2, 3)
    assert Permutation.identity(3).cycles() == ()


def test_parse_and_format_round_trip():
    for text in ("1", "2 1", "3 1 2", "1 2 3 4 5 6 7 8"):
        assert format_perm(parse_perm(text)) == text
    with pytest.raises(ValueError):
        parse_perm("")
    with pytest.raises(ValueError):
        parse_perm("a b c")
    with pytest.raises(ValueError):
        parse_perm("1 2 2")


def test_ordering_and_hash():
    a, b = parse_perm("1 2 3"), parse_perm("2 1 3")
    assert a < b
    assert len({a, b, parse_perm("1 2 3")}) == 2
    assert sorted([b, a]) == [a, b]


def test_repr_and_str():
    p = parse_perm("2 3 1")
    assert str(p) == "2 3 1"
    assert eval(repr(p)) == p


def test_conjugator_in_sym_canonical_choice():
    # cycles sorted by (length, smallest point) and mapped pointwise
    a0 = Permutation([2, 3, 1, 4, 5, 6])
    a1 = Permutation([1, 2, 3, 5, 6, 4])
    s = conjugator_in_sym(a0, a1)
    assert s.images == (4, 5, 6, 1, 2, 3)
    assert a0.conjugated_by(s) == a1


def test_conjugator_in_sym_exhaustive_s4():
    s4 = all_of_sym(4)
    for a0, a1 in itertools.product(s4, repeat=2):
        s = conjugator_in_sym(a0, a1)
        if a0.cycle_type() == a1.cycle_type():
            assert s is not None and a0.conjugated_by(s) == a1
        else:
            assert s is None


def test_conjugator_in_sym_deterministic():
    a0 = Permutation([2, 1, 4, 3, 5])
    a1 = Permutation([1, 3, 2, 5, 4])
    assert conjugator_in_sym(a0, a1) == conjugator_in_sym(a0, a1)


@st.composite
def same_degree(draw, count):
    """count permutations of one degree in 1..12."""
    m = draw(st.integers(1, 12))
    return tuple(draw(st.permutations(range(1, m + 1)).map(Permutation)) for _ in range(count))


E1 = Permutation([1])
S2 = (Permutation([2, 1]), Permutation([1, 2]))
LAWS = settings(max_examples=150, deadline=None, derandomize=True)


@LAWS
@given(same_degree(3))
@example((E1, E1, E1))
@example((S2[0], S2[0], S2[1]))
@example((S2[0], S2[1], S2[0]))
def test_composition_laws(perms):
    a, b, c = perms
    m = a.degree
    # pure-Python reference: the left factor acts first
    reference = tuple(b.images[a.images[i] - 1] for i in range(m))
    assert (a * b).images == reference
    assert all((a * b)(i) == b(a(i)) for i in range(1, m + 1))
    assert (a * b) * c == a * (b * c)
    assert a * a.inverse() == Permutation.identity(m)
    assert a.conjugated_by(b) == b.inverse() * a * b
    # the raw helpers the chains use, on 0-based image tuples
    assert invert_images(a._img) == a.inverse()._img
    assert conjugation(b._img)(a._img) == a.conjugated_by(b)._img


@LAWS
@given(st.integers(1, 12), st.integers(1, 12))
@example(1, 2)
@example(2, 1)
def test_composition_degree_mismatch_raises(m, n):
    assume(m != n)
    with pytest.raises(ValueError, match="degree mismatch"):
        Permutation.identity(m) * Permutation.identity(n)


@pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 300])
def test_raw_helpers_on_both_sides_of_the_encoding_switch(m):
    # raw images are bytes up to degree 256 and tuples of ints above; on
    # either side each helper, and the Permutation methods built on them,
    # agree with plain lists
    rng = random.Random(m)
    lists = [list(range(m)), list(range(m))[::-1]] + [rng.sample(range(m), m) for _ in range(4)]
    assert identity_images(m) == raw_images(range(m))
    assert type(identity_images(m)) is (bytes if m <= 256 else tuple)
    for a, b in itertools.product(lists, repeat=2):
        ra, rb = raw_images(a), raw_images(b)
        assert len(table(rb)) == (256 if m <= 256 else m) and table(rb)[:m] == rb
        inv, conj = [0] * m, [0] * m
        for i, t in enumerate(a):
            inv[t] = i
            conj[b[i]] = b[t]
        assert list(composer(m)(ra, table(rb))) == [b[i] for i in a]
        assert list(invert_images(ra)) == inv and inverse_table(ra)[:m] == invert_images(ra)
        assert list(conjugation(rb)(ra)) == conj
        pa, pb = Permutation([i + 1 for i in a]), Permutation([i + 1 for i in b])
        assert pa._img == ra
        assert (pa * pb).images == tuple(b[i] + 1 for i in a)
        assert pa.inverse().images == tuple(i + 1 for i in inv)
        assert pa.conjugated_by(pb).images == tuple(i + 1 for i in conj)
        assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
