"""Permutation-group engine: stabilizer chains, membership, order,
exact-uniform sampling, and random generating tuples.

Chains are built deterministically: generators are sifted in order, and each
new base point is the smallest point moved by the offending residue.  The
construction is complete once every Schreier generator of every level sifts
to the identity, which makes membership, order, and the transversal
factorization exact (Sims's method; Seress, Permutation Group Algorithms,
2003, ch. 4).  A chain keeps the distinct non-identity raw images it was
built from as chain.gens, and one loop, _fill, sifts them in and closes.
There are two constructions, which differ only in how a placed generator
grows the orbits of levels 0..idx.  build_chain rebuilds each orbit
breadth-first from its base, so the points order and representatives that
random_element reads depend on the strong generators alone; every chain
that is sampled from is built this way.  membership_chain, and the chain
inside _generates_images, grow each orbit in place: the new generator is
applied to the points already there and only the points it adds are
closed, keeping the representatives and cached inverses already made.
Such a chain is only asked for its order and for membership.

Inside a chain everything is a raw 0-based image tuple, composed with
operator.itemgetter: one sift loop (_strip) serves contains, strip,
ingestion and closing, and a Permutation is made only at the public
boundary.  A level inverts a transversal representative the first time a
sift reads it, not when its orbit is rebuilt.  conjugated(v) maps a finished
chain to the chain of G^v, which samples the same stream conjugated by v;
its gens are the conjugated strong generators.

Sampling is table-driven: a chain's first draw derives, per level, the orbit
size n, w = n.bit_length() and the representatives in points order, with
itemgetters to compose them in below the first level.  Each index is drawn
with the loop of CPython's randrange(n), getrandbits(w) until below n, so
the draws and the stream's state match one randrange per level, as
test_table_draw_is_cpython_randrange checks.  _random_images draws raw
images, which random_elements wraps; random_generating_tuple tests them for
generation and wraps only the accepted attempt.

The generation test _generates_images(degree, imgs, order) is _fill on a
membership chain of imgs, with no GeneratingSet, stopped as soon as the
product of the transversal sizes reaches order.  That is exact under one
precondition, which its docstring states with how each caller meets it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional

from .perm import Permutation, conjugation, identity_images, invert_images, parse_perm

DEFAULT_SEARCH_CAP = 10_000
DEFAULT_TUPLE_ATTEMPTS = 64


class BudgetExceeded(RuntimeError):
    """An enumeration, search, or sampling cap was hit before finishing."""


@dataclass(frozen=True)
class GeneratingSet:
    """A degree plus a finite list of generators.  Duplicates and identities
    are permitted; canonical() removes them.  The empty list generates the
    trivial group."""

    degree: int
    gens: tuple = ()

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "gens", tuple(self.gens))
        for g in self.gens:
            if not isinstance(g, Permutation):
                raise ValueError(f"generator is not a permutation: {g!r}")
            if g.degree != self.degree:
                raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")

    def canonical(self) -> "GeneratingSet":
        """gens less duplicates and identities."""
        ident = Permutation.identity(self.degree)
        return GeneratingSet(self.degree, tuple(g for g in dict.fromkeys(self.gens) if g != ident))

    def conjugated_by(self, v: Permutation) -> "GeneratingSet":
        return GeneratingSet(self.degree, tuple(g.conjugated_by(v) for g in self.gens))


def parse_generating_set(text: str, degree: int) -> GeneratingSet:
    gens = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        p = parse_perm(part)
        if p.degree != degree:
            raise ValueError(f"generator degree {p.degree} does not match degree {degree}: {part!r}")
        gens.append(p)
    return GeneratingSet(degree, tuple(gens))


class _Level:
    """One level of a chain, in raw 0-based image tuples.  inv holds the
    inverses of transversal representatives; a sift fills it in the first
    time it reads a point.  build_chain's rebuild of the orbit empties it;
    membership chains keep every representative once made, and so every
    inverse."""

    __slots__ = ("base", "placed", "transversal", "points", "inv")

    def __init__(self, base: int):
        self.base = base          # 0-based point
        self.placed = []          # generators first placed at this level
        self.transversal = {}     # orbit point -> rep mapping base to it
        self.points = ()
        self.inv = {}

    def inverse(self, p: int) -> tuple:
        inv = self.inv.get(p)
        if inv is None:
            inv = self.inv[p] = invert_images(self.transversal[p])
        return inv


def _close_orbit(trans: dict, frontier: list, gens: list):
    """Close the orbit in trans (point -> representative) under gens,
    breadth-first from the frontier points, adding each new point with its
    predecessor's representative times the generator that reached it."""
    while frontier:
        nxt = []
        for p in frontier:
            then = itemgetter(*trans[p])
            for g in gens:
                q = g[p]
                if q not in trans:
                    trans[q] = then(g)
                    nxt.append(q)
        frontier = nxt


class StabilizerChain:
    """Base, strong generators, and transversals for the group generated by
    gens, the distinct non-identity raw images it keeps in arrival order.
    Construct with build_chain(), or membership_chain() for a chain that is
    never sampled from."""

    def __init__(self, degree: int, gens=()):
        self.degree = degree
        self._ident = identity_images(degree)
        unique = dict.fromkeys(gens)
        unique.pop(self._ident, None)
        self.gens = tuple(unique)
        self._levels: list = []
        self._order: Optional[int] = None
        self._table: Optional[tuple] = None

    # -- queries ----------------------------------------------------------

    def order(self) -> int:
        if self._order is None:
            self._order = self._product()
        return self._order

    def strip(self, y: Permutation) -> Permutation:
        """Sift y through the transversals; the residue is the identity
        exactly when y belongs to the group."""
        if len(y._img) != self.degree:
            raise ValueError(f"degree mismatch: {y.degree} vs {self.degree}")
        return Permutation._raw(self._strip(y._img)[0])

    def contains(self, y: Permutation) -> bool:
        if len(y._img) != self.degree:
            raise ValueError(f"degree mismatch: {y.degree} vs {self.degree}")
        return self._strip(y._img)[0] == self._ident

    def random_element(self, rng) -> Permutation:
        """One exactly uniform element, on random_elements(rng, 1)'s draws."""
        return Permutation._raw(self._random_images(rng, 1)[0])

    def random_elements(self, rng, k: int) -> tuple:
        """k independent, exactly uniform elements: per element one uniform
        representative per level, composed deepest first.  rng is a
        random.Random or a RandomTape, which counts one draw per level."""
        return tuple(map(Permutation._raw, self._random_images(rng, k)))

    def _random_images(self, rng, k: int) -> tuple:
        """random_elements(rng, k) as raw image tuples, on the same draws."""
        table = self._table or self._sampling_table()
        if not table:
            return (self._ident,) * k
        n0, w0, reps0, rest = table
        if isinstance(rng, random.Random):
            getrandbits = rng.getrandbits
        else:
            getrandbits = rng.index_draws(k * (1 + len(rest)))
        out = []
        for _ in range(k):
            r = getrandbits(w0)
            while r >= n0:
                r = getrandbits(w0)
            acc = reps0[r]
            for n, w, getters in rest:
                r = getrandbits(w)
                while r >= n:
                    r = getrandbits(w)
                acc = getters[r](acc)
            out.append(acc)
        return tuple(out)

    def _sampling_table(self) -> tuple:
        """(n0, w0, reps0, rest): the first level's table, then (n, w,
        getters) per deeper level; () for the trivial group."""
        if self._table is None:
            reps = [tuple(map(lvl.transversal.__getitem__, lvl.points)) for lvl in self._levels]
            rest = tuple((len(r), len(r).bit_length(), tuple(itemgetter(*t) for t in r)) for r in reps[1:])
            self._table = (len(reps[0]), len(reps[0]).bit_length(), reps[0], rest) if reps else ()
        return self._table

    def conjugated(self, v: Permutation) -> "StabilizerChain":
        """The chain of G^v, for G this chain's group: base and orbit points
        mapped by v, every strong generator and representative conjugated by
        v; its gens are the conjugated strong generators.  Conjugation is a
        homomorphism, so on one stream its random_element draws are this
        chain's draws conjugated by v.  Building it costs one raw
        conjugation per representative and strong generator, about what
        conjugated_by costs on a third to a half as many draws, so it pays
        when more draws than that are taken from it."""
        if len(v._img) != self.degree:
            raise ValueError(f"degree mismatch: {v.degree} vs {self.degree}")
        vi = v._img
        conj = conjugation(vi)
        levels = []
        for lvl in self._levels:
            new = _Level(vi[lvl.base])
            new.placed = [conj(g) for g in lvl.placed]
            new.transversal = {vi[p]: conj(t) for p, t in lvl.transversal.items()}
            new.points = tuple(new.transversal)
            levels.append(new)
        out = StabilizerChain(self.degree, [g for lvl in levels for g in lvl.placed])
        out._levels = levels
        out._order = self._order
        return out

    # -- construction -----------------------------------------------------

    def _product(self) -> int:
        return math.prod(len(l.transversal) for l in self._levels)

    def _strip(self, y: tuple):
        """Sift raw images y: the residue and the index of the level whose
        orbit it left, or the number of levels when it passed them all."""
        for idx, lvl in enumerate(self._levels):
            j = y[lvl.base]
            if j == lvl.base:
                continue
            if j not in lvl.transversal:
                return y, idx
            y = itemgetter(*y)(lvl.inverse(j))
        return y, len(self._levels)

    def _gens_from(self, idx: int) -> list:
        out = []
        for lvl in self._levels[idx:]:
            out.extend(lvl.placed)
        return out

    def _rebuild_orbit(self, idx: int):
        lvl = self._levels[idx]
        trans = {lvl.base: self._ident}
        _close_orbit(trans, [lvl.base], self._gens_from(idx))
        lvl.transversal = trans
        lvl.points = tuple(trans)
        lvl.inv = {}

    def _ingest(self, g: tuple) -> bool:
        residue, idx = self._strip(g)
        if residue == self._ident:
            return False
        if idx == len(self._levels):
            base = next(i for i, j in enumerate(residue) if i != j)
            self._levels.append(_Level(base))
        self._levels[idx].placed.append(residue)
        self._grow_orbits(idx, residue)
        return True

    def _grow_orbits(self, idx: int, g: tuple):
        """Orbits of levels 0..idx once g is placed at level idx, each
        rebuilt breadth-first from its base, so a level's points order and
        representatives, which random_element reads, are a function of its
        strong generators alone."""
        for i in range(idx + 1):
            self._rebuild_orbit(i)

    def _close(self, target: int = 0) -> bool:
        """Repeat full passes until no Schreier generator leaves a residue;
        each placement strictly grows the transversal product, so this ends.
        Stops early and returns True once a placement brings the product to
        target, which never happens for the default 0."""
        ident = self._ident
        changed = True
        while changed:
            changed = False
            idx = 0
            while idx < len(self._levels):
                lvl = self._levels[idx]
                gens = self._gens_from(idx)
                for p in lvl.points:
                    then = itemgetter(*lvl.transversal[p])
                    for g in gens:
                        s = itemgetter(*then(g))(lvl.inverse(g[p]))
                        if s != ident and self._ingest(s):
                            if self._product() == target:
                                return True
                            changed = True
                idx += 1
        self._order = None
        return False


class _MembershipChain(StabilizerChain):
    """A chain that is only asked for its order and for membership.  Its
    orbits grow in place: the new generator is applied to the points
    already there, and only the points it adds are closed breadth-first, so
    the representatives already there and their cached inverses are kept.
    Which representative a point gets then depends on the history of
    placements, so the chain is not for sampling."""

    def _grow_orbits(self, idx: int, g: tuple):
        for i in range(idx + 1):
            lvl = self._levels[i]
            trans = lvl.transversal
            if not trans:
                trans[lvl.base] = self._ident
                lvl.points = (lvl.base,)
            frontier = []
            for p in lvl.points:
                q = g[p]
                if q not in trans:
                    trans[q] = itemgetter(*trans[p])(g)
                    frontier.append(q)
            if frontier:
                _close_orbit(trans, frontier, self._gens_from(i))
                lvl.points = tuple(trans)


def _fill(chain: StabilizerChain, target: int = 0) -> bool:
    """Sift chain.gens in, then close.  True as soon as a placement, while
    ingesting or closing, brings the transversal product to target, which
    never happens for the default 0."""
    for g in chain.gens:
        if chain._ingest(g) and chain._product() == target:
            return True
    return chain._close(target)


def build_chain(a: GeneratingSet) -> StabilizerChain:
    """Deterministic stabilizer chain for the group generated by a."""
    chain = StabilizerChain(a.degree, [g._img for g in a.gens])
    _fill(chain)
    return chain


def membership_chain(a: GeneratingSet) -> StabilizerChain:
    """A chain for the group generated by a that answers order() and
    contains() as build_chain's does, built with less work.  Its
    representatives depend on the history of placements, so sample only
    from build_chain's chains."""
    chain = _MembershipChain(a.degree, [g._img for g in a.gens])
    _fill(chain)
    return chain


def group_equal(x: GeneratingSet, y: GeneratingSet) -> bool:
    """Whether the two sets generate the same subgroup."""
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} vs {y.degree}")
    cx, cy = membership_chain(x), membership_chain(y)
    return all(cx.contains(g) for g in y.gens) and all(cy.contains(g) for g in x.gens)


def _generates_images(degree: int, imgs, order: int) -> bool:
    """Whether the raw image tuples imgs, of this degree and checked where
    they entered the program, generate a group of the given order.

    Precondition: imgs lie in a group G of that order, so True means they
    generate G.  Every caller meets it: random_generating_tuple and
    generating_tuples (which draw from G), conjugacy.response_accepted (which
    checks containment first), InstanceContext.accepted_responses (whose
    mask AND puts imgs inside side^w, and which keeps each verdict for the
    life of its context), nonconjugacy.matched_sides (which first finds a
    U-conjugate of the side, a group of its order, holding every entry)
    and cli.cmd_stats_genlemma (which samples from G).  The test fills a
    membership chain from imgs, less duplicates and identities, and stops
    as soon as the product of the transversal sizes equals order, after a
    placement during ingestion or while closing.
    This is exact, not Monte Carlo: each level's orbit is an orbit of a
    subgroup of the matching stabilizer in H = <imgs>, so the product never
    exceeds |H|, and |H| <= |G|.  It draws nothing from any random stream,
    so which representatives the chain picks cannot show in a transcript."""
    chain = _MembershipChain(degree, imgs)
    return _fill(chain, order) or chain.order() == order


class GeneratingTuple(NamedTuple):
    """A k-tuple that generates the whole target group, and the draws it took."""

    perms: tuple
    attempts: int = 1

    @property
    def k(self) -> int:
        return len(self.perms)


def random_generating_tuple(chain: StabilizerChain, k: int, rng) -> GeneratingTuple:
    """Rejection-sample a uniform element of the set of k-tuples over the
    chain's group that generate it.  For the trivial group the first draw,
    the all-identity tuple, is the unique such tuple."""
    if k < 1:
        raise ValueError("k must be at least 1")
    for attempt in range(1, DEFAULT_TUPLE_ATTEMPTS + 1):
        imgs = chain._random_images(rng, k)
        if _generates_images(chain.degree, imgs, chain.order()):
            return GeneratingTuple(tuple(map(Permutation._raw, imgs)), attempt)
    raise BudgetExceeded(
        f"no generating {k}-tuple found in {DEFAULT_TUPLE_ATTEMPTS} attempts; k may be too small for this group"
    )


def enumerate_elements(chain: StabilizerChain, cap: int = DEFAULT_SEARCH_CAP) -> tuple:
    """All group elements by breadth-first closure of chain.gens, identity
    first, deterministic order.  Independent of the chain's transversal
    structure, so it doubles as an oracle for contains/order."""
    if chain.order() > cap:
        raise BudgetExceeded(f"group order {chain.order()} exceeds cap {cap}")
    gens = chain.gens
    ident = chain._ident
    seen = {ident}
    out = [ident]
    frontier = [ident]
    while frontier:
        layer = []
        for x in frontier:
            then = itemgetter(*x)
            for g in gens:
                y = then(g)
                if y not in seen:
                    seen.add(y)
                    layer.append(y)
        layer.sort()
        if len(seen) > cap:
            raise BudgetExceeded(f"closure exceeded cap {cap}")
        out.extend(layer)
        frontier = layer
    return tuple(map(Permutation._raw, out))


def generating_tuples(chain: StabilizerChain, k: int, cap: int = 4096) -> tuple:
    """Every k-tuple over the chain's group that generates it, deterministic
    order.  Exhaustive, so only usable when order**k stays within cap."""
    if k < 1:
        raise ValueError("k must be at least 1")
    elems = enumerate_elements(chain, cap)
    if len(elems) ** k > cap:
        raise BudgetExceeded(f"{len(elems)}^{k} candidate tuples exceed cap {cap}")
    candidates = itertools.product(elems, repeat=k)
    return tuple(tup for tup in candidates if _generates_images(chain.degree, [p._img for p in tup], len(elems)))


def group_profile(chain: StabilizerChain, cap: int = DEFAULT_SEARCH_CAP) -> Optional[tuple]:
    """Conjugation-invariant fingerprint: the sorted multiset of element
    cycle types.  None when the group is too large to enumerate, meaning
    no information."""
    if chain.order() > cap:
        return None
    return tuple(sorted(x.cycle_type() for x in enumerate_elements(chain, cap)))


def centralizer_in_sym(x: Permutation) -> GeneratingSet:
    """Generators of the centralizer of x in the full symmetric group:
    each cycle of x, plus a pointwise swap of each pair of consecutive
    equal-length cycles."""
    m = x.degree
    key = lambda c: (len(c), c[0])
    cycles = sorted(x.cycles(include_fixed=True), key=key)
    gens = []
    for cyc in cycles:
        if len(cyc) > 1:
            gens.append(Permutation.from_cycles(m, cyc))
    for c1, c2 in zip(cycles, cycles[1:]):
        if len(c1) != len(c2):
            continue
        img = list(range(m))
        for p, q in zip(c1, c2):
            img[p - 1] = q - 1
            img[q - 1] = p - 1
        gens.append(Permutation._raw(tuple(img)))
    return GeneratingSet(m, tuple(gens))

