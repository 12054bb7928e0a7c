"""Hostile input: instance and group text, and prover payloads on the wire.

Every malformed input must end as a clean rejection: InstanceError (a
ValueError) from the text parsers, None from the wire coercers.  Nothing
else may escape.  Huge declared degrees are tested by parsing alone: the
parsers and coercers must not allocate anything per declared point.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from permzk.conjugacy import GroupConjInstance, _coerce_perm, coerce_commit
from permzk.element import ElemConjInstance
from permzk.cli import main
from permzk.engine import GeneratingSet, parse_generating_set
from permzk.instances import InstanceError, parse_group_text, parse_instance_text
from permzk.perm import Permutation

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

KEYS = ("degree", "A0", "A1", "a0", "a1", "U", "G", "witness", "junk", "", " A0 ", "degree ")

# Tokens that int() or the format treats oddly: non-ASCII digits, digit
# grouping, signs, separators, comment and key characters.
ODD_TOKENS = (";", ":", "#", ";;", "0", "-0", "+1", "1_0", "٣", "１", "1e3", "0x1", "nan", "\x00", "\t", " ", "9" * 5000)


def one_line_text(n):
    return st.permutations(range(1, n + 1)).map(lambda p: " ".join(map(str, p)))


token = st.one_of(
    st.integers(-3, 9).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(ODD_TOKENS),
    st.integers(1, 6).flatmap(one_line_text),
    st.text(max_size=4),
)
value = st.lists(token, max_size=6).map(lambda ts: " ".join(ts) if len(ts) % 2 else ";".join(ts))
line = st.one_of(
    st.tuples(st.sampled_from(KEYS), value).map(lambda kv: f"{kv[0]}: {kv[1]}"),
    st.text(max_size=12),
)


@st.composite
def near_valid_text(draw):
    """A well-formed group or element instance of degree 1-5 with up to
    three hostile edits: a token of a line replaced or added, or a whole
    line replaced, deleted or inserted."""
    n = draw(st.integers(1, 5))
    perm = one_line_text(n)
    gens = st.lists(perm, max_size=3).map(";".join)
    lines = [f"degree: {n}"]
    if draw(st.booleans()):
        lines += [f"A0: {draw(gens)}", f"A1: {draw(gens)}"]
    else:
        lines += [f"a0: {draw(perm)}", f"a1: {draw(perm)}"]
    lines.append(f"U: {draw(gens)}")
    if draw(st.booleans()):
        lines.append(f"witness: {draw(perm)}")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        how = draw(st.sampled_from(("token", "token", "insert", "replace", "delete")))
        if how == "insert":
            lines.insert(i, draw(line))
        elif i < len(lines):
            if how == "token":
                tokens = lines[i].split(" ")
                j = draw(st.integers(1, len(tokens)))
                tokens[j:j + draw(st.integers(0, 1))] = [draw(token)]
                lines[i] = " ".join(tokens)
            elif how == "replace":
                lines[i] = draw(line)
            else:
                del lines[i]
    return "\n".join(draw(st.permutations(lines)))


text = st.one_of(near_valid_text(), st.lists(line, max_size=7).map("\n".join))

def payloads(degree):
    """Wire payloads: scalars, text, one-line images (mostly of the given
    degree), the same images as floats that truncate to them or with True
    where the 1 was, and lists, tuples and dicts of them, nested once more."""
    images = st.one_of(st.permutations(range(1, degree + 1)), st.integers(1, 4).flatmap(lambda n: st.permutations(range(1, n + 1))))
    leaf = st.one_of(
        images,
        images.map(tuple),
        images.map(lambda p: " ".join(map(str, p))),
        images.map(Permutation),
        images.map(lambda p: [x + 0.9 for x in p]),
        images.map(lambda p: [x == 1 or x for x in p]),
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(max_size=12),
        value,
    )
    nested = st.one_of(leaf, st.lists(leaf, max_size=4), st.lists(leaf, max_size=4).map(tuple))
    return st.one_of(nested, st.lists(nested, max_size=4), st.lists(nested, max_size=4).map(tuple), st.dictionaries(st.text(max_size=3), leaf, max_size=3))


@FUZZ
@given(text)
def test_instance_text_parses_or_is_refused(text):
    try:
        inst = parse_instance_text(text)
    except InstanceError:
        return
    assert isinstance(inst, (GroupConjInstance, ElemConjInstance))


@FUZZ
@given(text)
def test_group_text_parses_or_is_refused(text):
    try:
        gset = parse_group_text(text)
    except InstanceError:
        return
    assert isinstance(gset, GeneratingSet)


@FUZZ
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), payloads(d))), st.integers(0, 3))
def test_wire_payloads_coerce_or_are_rejected(case, k):
    degree, payload = case
    p = _coerce_perm(payload, degree)
    assert p is None or (isinstance(p, Permutation) and p.degree == degree)
    if isinstance(payload, (list, tuple)) and not all(type(i) is int for i in payload):
        assert p is None
    commit = coerce_commit(degree, k, payload)
    assert commit is None or (len(commit) == k and all(isinstance(x, Permutation) and x.degree == degree for x in commit))


@pytest.mark.parametrize("entry", ["2 1", "2 1 3 4", "1 1 2", "2 3 4", "x"])
def test_the_boundary_still_refuses_a_bad_entry(entry, tmp_path, capsys):
    # the sample and verifier loops trust what the boundary let in, so the
    # parsers, coerce_commit and GeneratingSet itself must still refuse a
    # wrong-degree or non-permutation entry
    good = Permutation([2, 3, 1])
    with pytest.raises(ValueError):
        parse_generating_set(f"2 3 1; {entry}", 3)
    with pytest.raises(InstanceError):
        parse_group_text(f"degree: 3\nG: 2 3 1; {entry}\n")
    assert coerce_commit(3, 2, [good, entry]) is None
    assert coerce_commit(3, 2, [good, entry.split()]) is None
    with pytest.raises(ValueError, match="not a permutation"):
        GeneratingSet(3, (good, entry.split()))
    with pytest.raises(ValueError, match="degree mismatch"):
        GeneratingSet(3, (good, Permutation([2, 1])))
    group = tmp_path / "group.txt"
    group.write_text(f"degree: 3\nG: 2 3 1; {entry}\n")
    assert main(["stats-genlemma", "--group", str(group), "--k", "3", "--trials", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("degree", [0, -2])
@pytest.mark.parametrize("body", ["A0:\nA1:\nU:\n", "a0: 1\na1: 1\nU:\n", "G:\n"])
def test_a_degree_below_one_is_refused_by_both_parsers(degree, body):
    parse = parse_group_text if body.startswith("G") else parse_instance_text
    with pytest.raises(InstanceError, match="^degree must be positive$"):
        parse(f"degree: {degree}\n{body}")


HUGE = 10**18


def test_huge_declared_degrees_are_parsed_without_per_point_allocation():
    tracemalloc.start()
    try:
        inst = parse_instance_text(f"degree: {HUGE}\nA0:\nA1:\nU:\n")
        group = parse_group_text(f"degree: {HUGE}\nG:\n")
        with pytest.raises(InstanceError, match="does not match"):
            parse_instance_text(f"degree: {HUGE}\na0: 2 1\na1: 2 1\nU:\n")
        with pytest.raises(InstanceError, match="not an integer"):
            parse_instance_text(f"degree: {'9' * 5000}\nA0:\nA1:\nU:\n")
        rejected = (
            _coerce_perm([2, 1], HUGE),
            _coerce_perm("2 1", HUGE),
            coerce_commit(HUGE, 2, ("2 1", [1, 2])),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (inst.degree, group.degree) == (HUGE, HUGE)
    assert rejected == (None, None, None)
    assert peak < 1 << 20
