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

Inside a chain everything is raw images in perm's encoding (bytes up to
degree 256, tuples above), and a * b is the chain's composer applied to a and
perm.table(b): one sift loop (_strip) serves contains, ingestion and
closing, and a Permutation is made only at the public boundary.  A level
makes a representative's inverse table the first time a sift reads it.

Sampling is table-driven: a chain's first draw derives, per level, the orbit
size n, w = n.bit_length() and the representatives in points order.  Each
index is drawn with the loop of CPython's randrange(n), getrandbits(w) until
below n, so the draws and the stream's state match one randrange per level
(test_table_draw_is_cpython_randrange).  A draw takes its indices in level
order, then composes deepest first: the deepest representative is composed
with each shallower level's table in turn.  _random_images draws raw images,
which random_elements wraps.  random_conjugates(rng, k, v) and
random_generating_tuple(chain, k, rng, v) draw from G^v on G's draws, from
the table _conjugated_sampling conjugates by v once per call, or once per
caller that keeps it (InstanceContext.sample_commit, while <U> is small).

There are two exact generation tests for raw images inside G.  When |G|^2
is within DEFAULT_SEARCH_CAP and a walk of G's subgroup lattice stays
within it too, _maximal_masks keeps per element the bitmask of the maximal
subgroups holding it, and a tuple generates G exactly when its masks AND
to 0.  Otherwise _generates_images(degree, imgs, order) fills a membership
chain of imgs and stops once the transversal product reaches order.
_generation_test picks one; the tuple sampler reads G^v's masks and one
interned Permutation per element of G^v, so an attempt wraps nothing.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_
from typing import NamedTuple, Optional

from .perm import Permutation, composer, conjugation, identity_images, inverse_table, parse_perm, raw_images, table
from .perm import is_positive_int

DEFAULT_SEARCH_CAP = 10_000
DEFAULT_TUPLE_ATTEMPTS = 64


class BudgetExceeded(RuntimeError):
    """An enumeration, search, or sampling cap was hit before finishing."""


@dataclass(frozen=True)
class GeneratingSet:
    """A degree plus a finite list of generators.  Duplicates and identities
    are permitted; a chain keeps them out of its gens.  The empty list
    generates the trivial group."""

    degree: int
    gens: tuple = ()

    def __post_init__(self):
        if not is_positive_int(self.degree):
            raise ValueError(f"degree must be an integer at least 1: {self.degree!r}")
        object.__setattr__(self, "gens", tuple(self.gens))
        for g in self.gens:
            if not isinstance(g, Permutation):
                raise ValueError(f"generator is not a permutation: {g!r}")
            if g.degree != self.degree:
                raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")


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
    """One level of a chain, in raw images.  inv holds the inverse tables
    of transversal representatives; a sift fills it in the first time it
    reads a point.  build_chain's rebuild of the orbit empties it;
    membership chains keep every representative once made, and so every
    inverse."""

    __slots__ = ("base", "placed", "transversal", "points", "inv")

    def __init__(self, base: int):
        self.base = base          # 0-based point
        self.placed = []          # generators first placed at this level
        self.transversal = {}     # orbit point -> rep mapping base to it
        self.points = ()
        self.inv = {}

    def inverse(self, p: int):
        inv = self.inv.get(p)
        if inv is None:
            inv = self.inv[p] = inverse_table(self.transversal[p])
        return inv


def _close_orbit(trans: dict, frontier: list, tables: list, then):
    """Close the orbit in trans (point -> representative) under the
    generators' tables, breadth-first from the frontier points: a new point
    gets its predecessor's representative times the generator reaching it."""
    while frontier:
        nxt = []
        for p in frontier:
            rep = trans[p]
            for g in tables:
                q = g[p]
                if q not in trans:
                    trans[q] = then(rep, g)
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
        self._then = composer(degree)
        unique = dict.fromkeys(gens)
        unique.pop(self._ident, None)
        self.gens = tuple(unique)
        self._levels: list = []
        self._order: Optional[int] = None

    # -- queries ----------------------------------------------------------

    def order(self) -> int:
        if self._order is None:
            self._order = self._product()
        return self._order

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

    def random_conjugates(self, rng, k: int, v: Permutation) -> tuple:
        """random_elements(rng, k) conjugated by v, on the same draws: k
        exactly uniform elements of G^v.  Conjugation is a homomorphism, so
        conjugating the sampling table once per call conjugates every draw."""
        return tuple(map(Permutation._raw, self._draw(rng, k, self._conjugated_sampling(v))))

    def _conjugated_sampling(self, v: Permutation) -> tuple:
        """_sampling conjugated by v: its draws are G's conjugated by v."""
        if len(v._img) != self.degree:
            raise ValueError(f"degree mismatch: {v.degree} vs {self.degree}")
        sizes, deepest, shallower = self._sampling
        conj, n = conjugation(v._img), self.degree
        return sizes, list(map(conj, deepest)), [[table(conj(t[:n])) for t in reps] for reps in shallower]

    def _random_images(self, rng, k: int) -> tuple:
        """random_elements(rng, k) as raw images, on the same draws."""
        return self._draw(rng, k, self._sampling)

    @cached_property
    def _sampling(self) -> tuple:
        """(n, w) per level in draw order, the deepest level's representatives
        and each shallower level's tables, deepest first; all empty if no levels."""
        reps = [[lvl.transversal[p] for p in lvl.points] for lvl in self._levels]
        sizes = tuple((len(r), len(r).bit_length()) for r in reps)
        return (sizes, reps[-1], [list(map(table, r)) for r in reps[-2::-1]]) if reps else ((), [], [])

    @cached_property
    def _maximal_masks(self) -> Optional[dict]:
        """Raw images of each element of G, the chain's group, mapped to the
        bitmask of G's maximal subgroups that hold it: k elements generate G
        exactly when their masks AND to 0, since a proper subgroup lies in a
        maximal one (P. Hall, 1936).  Subgroups are bitmasks over element
        indices.  From the trivial group on, the walk extends each subgroup H
        found by one g per right coset Hg outside it, closing <H, g> coset by
        coset over a table of products (Dimino's method); H is maximal when
        every such <H, g> is G.  None, and the group keeps _generates_images,
        when |G|^2, the table's size, or the products the walk reads exceed
        DEFAULT_SEARCH_CAP: C_2^6 (2,825 subgroups) stops within that budget."""
        n = self.order()
        if n * n > DEFAULT_SEARCH_CAP:
            return None
        elems = [p._img for p in enumerate_elements(self)]
        index = {x: i for i, x in enumerate(elems)}
        mul = [[index[self._then(a, table(b))] for b in elems] for a in elems]
        full, budget = (1 << n) - 1, DEFAULT_SEARCH_CAP
        queue, seen, maximal = [(1, ())], {1}, []
        for h, gens in queue:  # grows while it is read
            members = [i for i in range(n) if h >> i & 1]
            coset = lambda x: sum(1 << mul[y][x] for y in members)
            done, top = h, h != full
            for g in range(n):
                if done >> g & 1:
                    continue
                done |= coset(g)
                k, reps, gens_k = h, [0], gens + (g,)
                for r in reps:  # grows while it is read: one per right coset of H
                    for x in map(mul[r].__getitem__, gens_k):
                        if not k >> x & 1:
                            k |= coset(x)
                            reps.append(x)
                budget -= len(reps) * (len(gens_k) + len(members))
                if budget < 0:
                    return None
                if k != full:
                    top = False
                    if k not in seen:
                        seen.add(k)
                        queue.append((k, gens_k))
            if top:
                maximal.append(h)
        return {x: sum(1 << j for j, m in enumerate(maximal) if m >> i & 1) for i, x in enumerate(elems)}

    def _draw(self, rng, k: int, tables: tuple) -> tuple:
        """k raw images drawn from a table of _sampling's shape."""
        sizes, deepest, shallower = tables
        if not sizes:
            return (self._ident,) * k
        getrandbits = rng.getrandbits if isinstance(rng, random.Random) else rng.index_draws(k * len(sizes))
        drawn = []
        append = drawn.append
        for n, w in sizes * k:
            r = getrandbits(w)
            while r >= n:
                r = getrandbits(w)
            append(r)
        then, out = self._then, []
        backwards = reversed(drawn)  # each draw's indices, deepest first
        for r in backwards:
            acc = deepest[r]
            for reps in shallower:
                acc = then(acc, reps[next(backwards)])
            out.append(acc)
        return tuple(reversed(out))

    # -- construction -----------------------------------------------------

    def _product(self) -> int:
        return math.prod(len(l.transversal) for l in self._levels)

    def _strip(self, y):
        """Sift raw images y: the residue and the index of the level whose
        orbit it left, or the number of levels when it passed them all."""
        then = self._then
        for idx, lvl in enumerate(self._levels):
            j = y[lvl.base]
            if j == lvl.base:
                continue
            if j not in lvl.transversal:
                return y, idx
            y = then(y, lvl.inv.get(j) or lvl.inverse(j))
        return y, len(self._levels)

    def _tables_from(self, idx: int) -> list:
        """The tables of the strong generators placed at levels idx on."""
        return [table(g) for lvl in self._levels[idx:] for g in lvl.placed]

    def _rebuild_orbit(self, idx: int):
        lvl = self._levels[idx]
        trans = {lvl.base: self._ident}
        _close_orbit(trans, [lvl.base], self._tables_from(idx), self._then)
        lvl.transversal = trans
        lvl.points = tuple(trans)
        lvl.inv = {}

    def _ingest(self, g) -> bool:
        residue, idx = self._strip(g)
        if residue == self._ident:
            return False
        if idx == len(self._levels):
            base = next(i for i, j in enumerate(residue) if i != j)
            self._levels.append(_Level(base))
        self._levels[idx].placed.append(residue)
        self._grow_orbits(idx, residue)
        return True

    def _grow_orbits(self, idx: int, g):
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
        ident, then = self._ident, self._then
        changed = True
        while changed:
            changed = False
            for idx, lvl in enumerate(self._levels):  # grows while it is read
                tables = self._tables_from(idx)
                for p in lvl.points:
                    rep = lvl.transversal[p]
                    for g in tables:
                        s = then(then(rep, g), lvl.inverse(g[p]))
                        if s != ident and self._ingest(s):
                            if self._product() == target:
                                return True
                            changed = True
        self._order = None
        return False


class _MembershipChain(StabilizerChain):
    """A chain that is only asked for its order and for membership.  Its
    orbits grow in place: the new generator is applied to the points
    already there, and only the points it adds are closed breadth-first, so
    the representatives already there and their cached inverses are kept.
    Which representative a point gets then depends on the history of
    placements, so the chain is not for sampling."""

    def _grow_orbits(self, idx: int, g):
        then, g = self._then, table(g)
        for i, lvl in enumerate(self._levels[:idx + 1]):
            trans = lvl.transversal
            if not trans:
                trans[lvl.base] = self._ident
                lvl.points = (lvl.base,)
            frontier = []
            for p in lvl.points:
                q = g[p]
                if q not in trans:
                    trans[q] = then(trans[p], g)
                    frontier.append(q)
            if frontier:
                _close_orbit(trans, frontier, self._tables_from(i), then)
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
    generate G.  Each caller meets it: the samplers draw from G or G^v,
    generating_tuples enumerates G, response_accepted (which the exact
    checks' InstanceContext.accepted_responses asks too) checks containment
    first, and nonconjugacy.matched_sides's subset test puts imgs inside a
    conjugate of G.  The test fills a membership chain from imgs, less
    duplicates and identities, and stops as soon as the product of the
    transversal sizes equals order, after a placement during ingestion or
    while closing.  This is exact, not Monte Carlo: each level's orbit is
    an orbit of a subgroup of the matching stabilizer in H = <imgs>, so the
    product never exceeds |H|, and |H| <= |G|.  It draws nothing from any
    random stream, so which representatives the chain picks cannot show in
    a transcript."""
    chain = _MembershipChain(degree, imgs)
    return _fill(chain, order) or chain.order() == order


def _generation_test(chain: StabilizerChain, masks: Optional[dict] = None):
    """imgs -> whether raw images imgs, all in G, generate G: the AND of
    their masks where chain._maximal_masks has them, else _generates_images.
    masks, when given, are G^v's, for imgs in G^v."""
    masks = chain._maximal_masks if masks is None else masks
    if masks is None:
        degree, order = chain.degree, chain.order()
        return lambda imgs: _generates_images(degree, imgs, order)
    return lambda imgs: not reduce(and_, map(masks.__getitem__, imgs))


class GeneratingTuple(NamedTuple):
    """A k-tuple that generates the whole target group G^v, and the draws it took."""

    perms: tuple
    attempts: int = 1


def _tuple_tables(chain: StabilizerChain, v: Permutation) -> tuple:
    """What random_generating_tuple samples G^v with: the conjugated
    sampling table, the generation test for its draws and the map that
    wraps the accepted one.  With masks, both read dicts over G^v's
    elements, and the map one interned Permutation per element."""
    sampling, masks = chain._conjugated_sampling(v), chain._maximal_masks
    if masks is None:
        return sampling, _generation_test(chain), lambda imgs: tuple(map(Permutation._raw, imgs))
    conj = conjugation(v._img)
    masks = {conj(x): bits for x, bits in masks.items()}
    perms = {x: Permutation._raw(x) for x in masks}
    return sampling, _generation_test(chain, masks), lambda imgs: tuple(map(perms.__getitem__, imgs))


def random_generating_tuple(chain: StabilizerChain, k: int, rng, v: Permutation, _tables=None) -> GeneratingTuple:
    """Rejection-sample a uniform generating k-tuple of G^v, G the chain's
    group: G's tuple conjugated by v, on its draws and attempts (conjugation
    is an isomorphism).  For the trivial group the first draw, the
    all-identity tuple, is the unique such tuple.  Each attempt is tested
    and the accepted one wrapped by _tuple_tables(chain, v), which _tables
    is when a caller keeps it."""
    if k < 1:
        raise ValueError("k must be at least 1")
    tables, generates, wrap = _tables if _tables is not None else _tuple_tables(chain, v)
    for attempt in range(1, DEFAULT_TUPLE_ATTEMPTS + 1):
        imgs = chain._draw(rng, k, tables)
        if generates(imgs):
            return GeneratingTuple(wrap(imgs), attempt)
    raise BudgetExceeded(
        f"no generating {k}-tuple found in {DEFAULT_TUPLE_ATTEMPTS} attempts; k may be too small for this group"
    )


def enumerate_elements(chain: StabilizerChain, cap: int = DEFAULT_SEARCH_CAP) -> tuple:
    """All group elements by breadth-first closure of chain.gens, identity
    first, deterministic order.  Independent of the chain's transversal
    structure, so it doubles as an oracle for contains/order."""
    if chain.order() > cap:
        raise BudgetExceeded(f"group order {chain.order()} exceeds cap {cap}")
    tables = list(map(table, chain.gens))
    ident, then = chain._ident, chain._then
    seen = {ident}
    out = [ident]
    frontier = [ident]
    while frontier:
        layer = []
        for x in frontier:
            for g in tables:
                y = then(x, g)
                if y not in seen:
                    seen.add(y)
                    layer.append(y)
        layer.sort()
        if len(seen) > cap:
            raise BudgetExceeded(f"closure exceeded cap {cap}")
        out.extend(layer)
        frontier = layer
    return tuple(map(Permutation._raw, out))


def generating_tuples(chain: StabilizerChain, k: int, cap: int = DEFAULT_SEARCH_CAP) -> tuple:
    """Every k-tuple over the chain's group that generates it, deterministic
    order.  Exhaustive, so only usable when order**k stays within cap."""
    if k < 1:
        raise ValueError("k must be at least 1")
    elems = enumerate_elements(chain, cap)
    if len(elems) ** k > cap:
        raise BudgetExceeded(f"{len(elems)}^{k} candidate tuples exceed cap {cap}")
    generates = _generation_test(chain)
    return tuple(tup for tup in itertools.product(elems, repeat=k) if generates([p._img for p in tup]))


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
        gens.append(Permutation._raw(raw_images(img)))
    return GeneratingSet(m, tuple(gens))

