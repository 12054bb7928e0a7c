"""Text format for problem instances.

A file is a sequence of "key: value" lines with "#" comments.  Group
instances use A0/A1/U, element instances a0/a1/U; both take a degree line
first and an optional witness.  Permutations are one-line image lists,
generating sets are ";"-separated.
"""

from __future__ import annotations

from typing import Union

from .engine import GeneratingSet, parse_generating_set
from .conjugacy import GroupConjInstance
from .element import ElemConjInstance
from .perm import parse_perm

GROUP_KEYS = ("A0", "A1")
ELEMENT_KEYS = ("a0", "a1")


class InstanceError(ValueError):
    """Malformed instance text: bad keys or bad values."""


def _key_value_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InstanceError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, value = line.split(":", 1)
        yield lineno, key.strip(), value.strip()


def _collect(text: str) -> dict:
    fields: dict = {}
    for lineno, key, value in _key_value_lines(text):
        if key in fields:
            raise InstanceError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value
    return fields


def _pop_degree(fields: dict) -> int:
    """The degree line both file kinds carry: a positive integer."""
    if "degree" not in fields:
        raise InstanceError("missing 'degree' line")
    try:
        degree = int(fields.pop("degree"))
    except ValueError:
        raise InstanceError("degree is not an integer") from None
    if degree < 1:
        raise InstanceError("degree must be positive")
    return degree


def parse_instance_text(text: str) -> Union[GroupConjInstance, ElemConjInstance]:
    """Parse one instance, group or element variant, from the text alone:
    the context built on it checks a declared witness."""
    fields = _collect(text)
    degree = _pop_degree(fields)

    has_group = any(k in fields for k in GROUP_KEYS)
    has_elem = any(k in fields for k in ELEMENT_KEYS)
    if has_group and has_elem:
        raise InstanceError("mixed A0/A1 and a0/a1 keys")
    if not has_group and not has_elem:
        raise InstanceError("no A0/A1 or a0/a1 lines")
    keys = GROUP_KEYS if has_group else ELEMENT_KEYS

    for key in keys + ("U",):
        if key not in fields:
            raise InstanceError(f"missing {key!r} line")
    witness_text = fields.pop("witness", None)
    unknown = set(fields) - set(keys) - {"U"}
    if unknown:
        raise InstanceError(f"unknown keys: {', '.join(sorted(unknown))}")

    try:
        u = parse_generating_set(fields["U"], degree)
        if has_group:
            a0 = parse_generating_set(fields["A0"], degree)
            a1 = parse_generating_set(fields["A1"], degree)
        else:
            a0 = parse_perm(fields["a0"])
            a1 = parse_perm(fields["a1"])
        witness = parse_perm(witness_text) if witness_text else None
    except ValueError as exc:
        raise InstanceError(str(exc)) from None

    try:
        if has_group:
            return GroupConjInstance(degree, a0, a1, u, witness)
        return ElemConjInstance(degree, a0, a1, u, witness)
    except ValueError as exc:
        raise InstanceError(str(exc)) from None


def load_instance(path) -> Union[GroupConjInstance, ElemConjInstance]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_instance_text(fh.read())


def parse_group_text(text: str) -> GeneratingSet:
    """Group files carry a single generating set under 'G' (or 'A0', so an
    instance file works where a group is expected)."""
    fields = _collect(text)
    degree = _pop_degree(fields)
    for key in ("G", "A0"):
        if key in fields:
            try:
                return parse_generating_set(fields[key], degree)
            except ValueError as exc:
                raise InstanceError(str(exc)) from None
    raise InstanceError("no 'G' or 'A0' line")


def load_group_file(path) -> GeneratingSet:
    with open(path, "r", encoding="ascii") as fh:
        return parse_group_text(fh.read())
