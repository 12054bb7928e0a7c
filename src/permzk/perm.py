"""Exact permutation arithmetic on the points {1, ..., m}.

Composition convention, fixed once for the whole package: the left factor
acts first, so (a * b)(i) = b(a(i)).  With that convention the conjugate
``y.conjugated_by(v)`` equals v^-1 * y * v and sends v(i) to v(y(i)).

Raw images, the 0-based images in Permutation._img and in chains, take one
encoding per degree: bytes up to 256, composed as a.translate(table(b)) with
b padded to 256 points, inverted by maketrans and hashed once, all in C; a
tuple of ints composed by itemgetter above.  Both sort alike.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Optional, Sequence

_POINTS = bytes(range(256))


def raw_images(points) -> bytes | tuple:
    """0-based images, a sized iterable of ints, in their degree's encoding."""
    return bytes(points) if len(points) <= 256 else tuple(points)


@cache
def identity_images(degree: int) -> bytes | tuple:
    """The identity's raw images, one shared value per degree."""
    return raw_images(range(degree))


def table(img: bytes | tuple) -> bytes | tuple:
    """img as the right operand of composer(degree): bytes padded to 256."""
    return img + _POINTS[len(img):] if type(img) is bytes else img


def inverse_table(img: bytes | tuple) -> bytes | tuple:
    """table(invert_images(img)), which maketrans gives directly."""
    n = len(img)
    return bytes.maketrans(img, _POINTS[:n]) if type(img) is bytes else tuple(sorted(range(n), key=img.__getitem__))


def invert_images(img: bytes | tuple) -> bytes | tuple:
    """Raw images of the inverse permutation."""
    return inverse_table(img)[:len(img)]


def composer(degree: int):
    """The map (a, table(b)) -> raw images of a * b at this degree."""
    return bytes.translate if degree <= 256 else lambda a, b: itemgetter(*a)(b)


def conjugation(vi: bytes | tuple):
    """The map sending raw images t to those of v^-1 * t * v, for v with raw
    images vi: two compositions per conjugate."""
    inv = invert_images(vi)
    if type(vi) is bytes:
        tail, vt = _POINTS[len(vi):], table(vi)
        return lambda t: inv.translate(t + tail).translate(vt)
    before = itemgetter(*inv)
    return lambda t: itemgetter(*before(t))(vi)


def is_positive_int(x) -> bool:
    """Whether x is an int at least 1; a bool is not one."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


class Permutation:
    """An immutable bijection of {1, ..., m} stored in one-line image form."""

    __slots__ = ("_img",)

    def __init__(self, images: Sequence[int]):
        """images are ints, bools excluded: nothing is converted, so 1.9
        is refused rather than truncated to 1."""
        entries = list(images)
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in entries):
            raise ValueError(f"entries are not all integers: {entries!r}")
        n = len(entries)
        if n < 1:
            raise ValueError("a permutation needs degree at least 1")
        img = [i - 1 for i in entries]
        if sorted(img) != list(range(n)):
            raise ValueError(f"not a bijection of 1..{n}: {entries!r}")
        self._img = raw_images(img)

    @classmethod
    def _raw(cls, img: bytes | tuple) -> "Permutation":
        p = object.__new__(cls)
        p._img = img
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls.from_cycles(degree)

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Permutation":
        """Build from disjoint 1-based cycles of ints; points left out are fixed."""
        if not is_positive_int(degree):
            raise ValueError(f"a permutation needs an integer degree at least 1: {degree!r}")
        img = list(range(degree))
        seen = set()
        for cyc in cycles:
            pts = list(cyc)
            for p in pts:
                if not isinstance(p, int) or isinstance(p, bool):
                    raise ValueError(f"cycle point {p!r} is not an integer")
                if not 1 <= p <= degree:
                    raise ValueError(f"cycle point {p} outside 1..{degree}")
                if p in seen:
                    raise ValueError(f"point {p} appears in two cycles")
                seen.add(p)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                img[a - 1] = b - 1
        return cls._raw(raw_images(img))

    @property
    def degree(self) -> int:
        return len(self._img)

    @property
    def images(self) -> tuple:
        """One-line images, 1-based: images[i-1] is where point i goes."""
        return tuple(i + 1 for i in self._img)

    def __call__(self, point: int) -> int:
        return self._img[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        img = self._img
        if len(img) != len(other._img):
            raise ValueError(f"degree mismatch: {len(img)} vs {len(other._img)}")
        return Permutation._raw(composer(len(img))(img, table(other._img)))

    def inverse(self) -> "Permutation":
        return Permutation._raw(invert_images(self._img))

    def conjugated_by(self, v: "Permutation") -> "Permutation":
        """v^-1 * self * v, the permutation sending v(i) to v(self(i))."""
        if len(self._img) != len(v._img):
            raise ValueError(f"degree mismatch: {len(self._img)} vs {len(v._img)}")
        return Permutation._raw(conjugation(v._img)(self._img))

    def cycles(self, include_fixed: bool = False) -> tuple:
        """Disjoint cycles, 1-based, each starting at its smallest point,
        ordered by smallest point."""
        seen = [False] * len(self._img)
        out = []
        for start in range(len(self._img)):
            if seen[start]:
                continue
            cyc = []
            p = start
            while not seen[p]:
                seen[p] = True
                cyc.append(p + 1)
                p = self._img[p]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple:
        """Sorted multiset of cycle lengths, fixed points included."""
        return tuple(sorted(len(c) for c in self.cycles(include_fixed=True)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __lt__(self, other: "Permutation") -> bool:
        return self._img < other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __str__(self) -> str:
        return format_perm(self)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"


def parse_perm(text: str) -> Permutation:
    """Parse one-line notation: m space-separated integers, e.g. "2 3 1"."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty permutation text")
    try:
        images = [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"non-integer token in permutation text: {text!r}") from None
    return Permutation(images)


def format_perm(p: Permutation) -> str:
    """One-line notation with single spaces, inverse of parse_perm."""
    return " ".join(str(i) for i in p.images)


def conjugator_in_sym(a0: Permutation, a1: Permutation) -> Optional[Permutation]:
    """Some s in the full symmetric group with a0.conjugated_by(s) == a1,
    or None when the cycle types differ.

    Deterministic choice: cycles of both sides are sorted by (length,
    smallest point) and mapped pointwise.
    """
    if a0.degree != a1.degree:
        raise ValueError(f"degree mismatch: {a0.degree} vs {a1.degree}")
    if a0.cycle_type() != a1.cycle_type():
        return None
    key = lambda c: (len(c), c[0])
    c0 = sorted(a0.cycles(include_fixed=True), key=key)
    c1 = sorted(a1.cycles(include_fixed=True), key=key)
    img = [0] * a0.degree
    for cyc0, cyc1 in zip(c0, c1):
        for p, q in zip(cyc0, cyc1):
            img[p - 1] = q - 1
    return Permutation._raw(raw_images(img))
