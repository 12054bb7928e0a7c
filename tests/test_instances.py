"""Instance file parsing, serialization, and witness validation."""

import glob

import pytest

from permzk.conjugacy import GroupConjInstance, InstanceContext
from permzk.element import ElemConjInstance, ElementContext
from permzk.instances import (
    InstanceError,
    load_group_file,
    load_instance,
    parse_group_text,
    parse_instance_text,
)
from permzk.perm import Permutation

from helpers import dump_instance


GROUP_TEXT = """\
degree: 3
A0: 2 3 1
A1: 3 1 2
U: 2 3 1
"""

ELEMENT_TEXT = """\
degree: 3
a0: 2 1 3
a1: 3 2 1
U: 1 3 2
"""


def test_parse_group_instance():
    inst = parse_instance_text(GROUP_TEXT)
    assert isinstance(inst, GroupConjInstance)
    assert inst.degree == 3
    assert inst.a0.gens == (Permutation([2, 3, 1]),)
    assert inst.witness is None


def test_parse_element_instance():
    inst = parse_instance_text(ELEMENT_TEXT)
    assert isinstance(inst, ElemConjInstance)
    assert inst.a0 == Permutation([2, 1, 3])


def test_comments_blank_lines_and_spacing():
    text = """
# leading comment

degree: 3   # trailing comment
a0:2 1 3
a1:   3 2 1
U : 1 3 2
"""
    inst = parse_instance_text(text)
    assert inst.a1 == Permutation([3, 2, 1])


def test_dump_parse_round_trip_on_all_fixtures():
    paths = sorted(glob.glob("fixtures/*.txt"))
    assert len(paths) >= 10
    for path in paths:
        if "group_" in path:
            continue
        inst = load_instance(path)
        again = parse_instance_text(dump_instance(inst))
        assert again == inst, path


def test_dump_canonical_shape():
    inst = parse_instance_text(ELEMENT_TEXT)
    assert dump_instance(inst) == "degree: 3\na0: 2 1 3\na1: 3 2 1\nU: 1 3 2\n"


def test_witness_round_trip():
    text = GROUP_TEXT + "witness: 1 2 3\n"
    inst = parse_instance_text(text)
    assert inst.witness == Permutation.identity(3)
    assert "witness: 1 2 3" in dump_instance(inst)


ERROR_CASES = [
    ("A0: 2 1\nA1: 2 1\nU: 2 1\n", "missing 'degree'"),
    ("degree: x\nA0: 1\nA1: 1\nU: 1\n", "not an integer"),
    ("degree: 0\nA0: \nA1: \nU: \n", "must be positive"),
    ("degree: 3\nA0: 2 3 1\nA0: 2 3 1\nA1: 2 3 1\nU: \n", "duplicate key"),
    ("degree: 3\njust some words\n", "expected 'key: value'"),
    ("degree: 3\nA0: 2 3 1\na1: 2 3 1\nU: \n", "mixed"),
    ("degree: 3\nU: 2 3 1\n", "no A0/A1 or a0/a1"),
    ("degree: 3\nA0: 2 3 1\nA1: 2 3 1\n", "missing 'U'"),
    ("degree: 3\nA0: 2 3 1\nA1: 2 3 1\nU: \nextra: 1\n", "unknown keys: extra"),
    ("degree: 3\nA0: 2 3\nA1: 2 3 1\nU: \n", "bijection"),
    ("degree: 3\na0: 1 1 3\na1: 2 1 3\nU: \n", "bijection"),
    ("degree: 3\na0: 2 1 3 4\na1: 2 1 3\nU: \n", "degree"),
]


@pytest.mark.parametrize("text,fragment", ERROR_CASES)
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceError, match=fragment):
        parse_instance_text(text)


def test_witness_must_lie_in_u():
    # the parser reads text only; the context checks the witness
    inst = parse_instance_text(GROUP_TEXT + "witness: 1 3 2\n")
    with pytest.raises(ValueError, match="not an element of <U>"):
        InstanceContext(inst)


def test_witness_must_conjugate():
    # (2 3) is in <U> for this element instance but conjugates (1 2) to
    # (1 3), not to the claimed a1
    inst = parse_instance_text("degree: 3\na0: 2 1 3\na1: 2 1 3\nU: 1 3 2\nwitness: 1 3 2\n")
    with pytest.raises(ValueError, match="does not conjugate"):
        ElementContext(inst)


@pytest.mark.parametrize("path", sorted(glob.glob("fixtures/*.txt")))
def test_parsing_builds_no_chain(path, build_chain_calls):
    parse = parse_group_text if "group_" in path else parse_instance_text
    with open(path, encoding="ascii") as fh:
        parse(fh.read())
    assert build_chain_calls == []


def test_valid_witness_accepted_without_search():
    text = "degree: 3\na0: 2 1 3\na1: 3 2 1\nU: 1 3 2\nwitness: 1 3 2\n"
    inst = parse_instance_text(text)
    assert inst.witness == Permutation([1, 3, 2])


def test_group_file_g_and_a0_fallback():
    assert parse_group_text("degree: 3\nG: 2 3 1\n").gens == (Permutation([2, 3, 1]),)
    assert parse_group_text("degree: 3\nA0: 2 3 1\nA1: 1 3 2\nU: \n").gens == (
        Permutation([2, 3, 1]),
    )
    with pytest.raises(InstanceError, match="no 'G' or 'A0'"):
        parse_group_text("degree: 3\nU: 2 3 1\n")
    with pytest.raises(InstanceError, match="degree"):
        parse_group_text("G: 2 3 1\n")


def test_load_group_file_fixture():
    g = load_group_file("fixtures/group_s4.txt")
    assert g.degree == 4 and len(g.gens) == 2


def test_empty_generating_set_lines():
    inst = parse_instance_text("degree: 2\nA0: \nA1: \nU: \n")
    assert inst.a0.gens == ()


def test_instance_error_is_value_error():
    assert issubclass(InstanceError, ValueError)
