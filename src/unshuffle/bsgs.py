"""Exact computations in finite permutation groups given by generators.

Four ways to an exact group, each with its ``order`` and ``p in group``.
BFS and the chain are independent engines, kept deliberately separate so
they can check each other; the affine engine and the certificate compute
or prove the group without either:

* :func:`_affine_group` answers on d = 2^k points when every generator
  is an affine map x -> rot^j(x) xor b of the k-bit labels, a bit
  rotation followed by a fixed xor, as every shuffle is at 2^k cards.
  After an O(d) check of each generator, elements are pairs (b, j), and
  the order is the number of rotations reached times 2^dim of the xor
  translations, from Schreier's lemma and Gaussian elimination.  It gives
  None on other degrees or other generators.

* :func:`_certified_group` proves that the group is its
  :class:`_SignGroup` with a seeded witness: a giant (A_m or S_m) action
  on the mirror pairs or the points, by Jordan's theorem, and for
  centrally symmetric generators one flip pattern that is not constant.
  A sample costs one O(d) cycle walk, as does a membership test, so it
  answers at thousands of cards where a chain would need gigabytes.  It gives
  None where no witness exists (the shuffle groups at 2n <= 16, 24 and
  2^k, intransitive or imprimitive groups, small degrees).

* :func:`bfs_enumerate` walks the Cayley graph breadth first and returns the
  full element set.  Exact but memory bound; it refuses to grow past
  ``BFS_MAX_ELEMENTS`` elements.
  Elements are packed into bytes and each generator is padded once to a
  256-byte table, so composing an element with a generator is one
  ``bytes.translate`` call, done in C.

* :class:`StabilizerChain` produces a base, strong generating set and
  transversals.  It first sifts seeded product-replacement random elements
  and stops as soon as the product of its orbit sizes reaches the order of
  the :class:`_SignGroup`, an upper bound proved from the generators alone
  (central symmetry, sign and pair sign for the shuffle groups; S_d or A_d
  otherwise).  Meeting the bound certifies the chain complete.  Where the
  random phase stalls below it, a centrally symmetric chain is still
  certified when its orbit sizes multiply to the order of a chain on the
  generators' pair images times the bound's pair kernel (the shuffle
  groups at 2n = 12 and 24).  Only where that pair bound fails too (the
  shuffle groups at 2^k, the pair images at 12 and 24, most other
  generator sets) does the build run the deterministic, incremental
  Schreier-Sims closure instead, in which orbits and transversals grow in
  place and each Schreier generator is sifted once.
  The group order falls out as the product of orbit sizes and membership
  testing is sifting; factorial-scale orders are fine since Python
  integers do not overflow.

The package's one engine policy, the affine engine, then the certificate,
then the chain, is :func:`unshuffle.groups.compute_group`; order and
membership both read the group it returns.  It never runs BFS, which
runs only where a caller calls :func:`bfs_enumerate` itself.

Internally permutations are raw image tuples, composed ("left then right")
and inverted by the kernels of :mod:`unshuffle.perm`, which the chain's
sift calls directly.  The chain build composes with its own generators
instead: each one is stored with an ``operator.itemgetter`` over it and
over its inverse, so g then p is one C call on p, 3x faster than the
kernel at 52 points, and one ``itemgetter`` over an orbit reads all of
g's images on it at once.  BFS packs them into bytes for compact
hashing and translation, which caps that engine at degree
``BFS_MAX_DEGREE`` = 255.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache

from .perm import Permutation, _compose, _cycle_type, _invert, _signs, _wrap

BFS_MAX_DEGREE = 255
# about degree + 80 bytes an element, so at most ~335 MB at 255 points; the
# largest shuffle group BFS checks, <L, R> at 14 cards, has 645,120
BFS_MAX_ELEMENTS = 1_000_000

# Random elements: one product-replacement stream with 11 slots (Celler et
# al. 1995) from a fixed seed, so every build of the same generator list
# gives the same chain and the same certificate.  The chain and the
# certificate both read it from its first sample, since their proofs hold
# for any group element: as the certificate's witness, or as a residue that
# joins the chain.  The chain's random phase takes the bound to be out of
# reach after 30 trivial sifts in a row, and the certificate gives up after
# 150 samples.
_RANDOM_SEED = 20230207
_PR_SLOTS = 11
_TRIVIAL_SIFTS = 30
_CERTIFICATE_SAMPLES = 150


@lru_cache(maxsize=1)
def _factorial(n: int) -> int:
    # n!, kept for the last n: at one deck size every sign bound, the pair
    # images' bound and unshuffle.groups.predict_group ask for the same one,
    # which takes seconds at n = 524287
    return math.factorial(n)


class EnumerationCapExceeded(RuntimeError):
    """BFS cannot enumerate the group: it has more than ``BFS_MAX_ELEMENTS``
    elements or more than ``BFS_MAX_DEGREE`` points; use a StabilizerChain
    instead."""


def _raw(p) -> tuple[int, ...]:
    if isinstance(p, Permutation):
        return p.image
    return Permutation(p).image


def _normalize(generators, degree=None):
    raws = [_raw(g) for g in generators]
    if degree is None:
        if not raws:
            raise ValueError("degree is required when no generators are given")
        degree = len(raws[0])
    if any(len(g) != degree for g in raws):
        raise ValueError("generators must all have the same degree")
    identity = tuple(range(degree))
    return [g for g in raws if g != identity], degree, identity


class Closure:
    """Result of a BFS enumeration: the packed element set of a group."""

    __slots__ = ("degree", "elements")

    def __init__(self, degree: int, elements: set[bytes]):
        self.degree = degree
        self.elements = elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p) -> bool:
        raw = _raw(p)
        return len(raw) == self.degree and bytes(raw) in self.elements

    def __iter__(self) -> Iterator[Permutation]:
        for packed in sorted(self.elements):
            yield _wrap(tuple(packed))

    def __eq__(self, other) -> bool:
        return isinstance(other, Closure) and self.elements == other.elements


def bfs_enumerate(generators: Iterable) -> Closure:
    """Enumerate every element of the group the generators produce.

    Raises :class:`EnumerationCapExceeded` past ``BFS_MAX_DEGREE`` points,
    and as soon as the element count, identity included, passes
    ``BFS_MAX_ELEMENTS``.
    """
    raws, degree, identity = _normalize(generators)
    if degree > BFS_MAX_DEGREE:
        raise EnumerationCapExceeded(
            f"bfs_enumerate packs images into bytes, so it takes at most "
            f"{BFS_MAX_DEGREE} points, not {degree}; use a StabilizerChain"
        )
    # p.translate(table) maps each image x of p to g[x]: the product "p then g"
    tables = [bytes(g) + bytes(256 - degree) for g in raws]
    limit = BFS_MAX_ELEMENTS
    start = bytes(identity)
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for p in frontier:
            for table in tables:
                q = p.translate(table)
                if q not in seen:
                    if len(seen) >= limit:
                        raise EnumerationCapExceeded(
                            f"group has more than {limit} elements; "
                            "enumeration is infeasible, use a StabilizerChain"
                        )
                    seen.add(q)
                    next_frontier.append(q)
        frontier = next_frontier
    return Closure(degree, seen)


class _SignGroup:
    """A group that contains the one the generators produce, proved by an
    O(d) check of each generator: an upper bound with ``order`` and ``in``.

    If every generator is centrally symmetric (i + j = d-1 implies
    image[i] + image[j] = d-1) and d = 2n >= 4 (``paired``), the group lies
    in the hyperoctahedral group B_n of order n! * 2^n.  For n >= 2, B_n
    has four linear characters into {+1, -1}: 1, the sign, the pair sign
    (the sign of the action on the n mirror pairs) and their product, here
    (a, b) for sign^a * pair sign^b.  The group lies in the kernel of each
    one trivial on every generator (``characters``, 1 left out), and these
    kernels meet in a subgroup whose index is their count.  Otherwise the
    group lies in S_d, or in A_d when every generator is even.

    A paired bound's ``kernel``, 2^f, is the order of its own kernel on
    the mirror pairs: the flip vectors on which every kept character is
    +1.  The pair sign is +1 on each flip vector, and the sign is -1 on a
    flip of one pair, a transposition, so a kept character with the sign
    in it (a = 1) keeps the even vectors, f = n - 1, and f = n otherwise.
    The kernel of the pair action on any group inside the bound lies in
    this one.  ``kernel`` is None unless ``paired``.
    """

    __slots__ = ("degree", "paired", "characters", "order", "kernel")

    def __init__(self, raws: list[tuple[int, ...]]):
        # raws are the nonempty image tuples of _normalize, already checked
        d = self.degree = len(raws[0])
        self.paired = d >= 4 and all(_wrap(g).is_centrally_symmetric() for g in raws)
        if self.paired:
            self.characters, size = ((1, 0), (0, 1), (1, 1)), _factorial(d // 2) << d // 2
        else:
            self.characters, size = ((1, 0),) if d >= 2 else (), _factorial(d)
        for g in raws:
            self.characters = self._trivial(g)
        self.order = size // (1 + len(self.characters))
        self.kernel = 1 << (d // 2 - any(a for a, _ in self.characters)) if self.paired else None

    def _trivial(self, g: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        # the characters kept so far that are +1 on g
        sign, pair_sign = _signs(g)
        return tuple((a, b) for a, b in self.characters if sign**a * pair_sign**b == 1)

    def __contains__(self, p) -> bool:
        raw = _raw(p)
        if len(raw) != self.degree or (self.paired and not _wrap(raw).is_centrally_symmetric()):
            return False
        return self._trivial(raw) == self.characters


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % q for q in range(2, math.isqrt(k) + 1))


def _certified_group(generators) -> _SignGroup | None:
    """The :class:`_SignGroup` of the generators, when a seeded witness
    proves that their group, which lies in it, reaches its order; None
    when no witness turns up.

    The test acts on m homes: the n = d/2 mirror pairs when the bound is
    ``paired``, else the d points.
    Let H be the group's action on the homes and G the group itself.

    *Giant image.*  H is transitive (one orbit walk), and a sample h has a
    cycle of prime length p with m/2 < p <= m-3, which exists only for
    m >= 8.  Every other cycle of h is shorter than p, so a power of h is a
    p-cycle c.  Then H is primitive: c permutes the blocks of a block
    system in orbits of length 1 or p.  An orbit of p > m/2 blocks leaves
    blocks of one point; if c fixes every block, the block meeting c's
    support contains all of it, so it has more than m/2 points and is the
    only block.  By Jordan's theorem (Dixon & Mortimer, *Permutation
    Groups*, Thm 3.3E) a primitive group with a p-cycle, p <= m-3,
    contains A_m.

    *Points.*  G = H contains A_d, so |G| is d!/2 when every generator is
    even and d! otherwise: the bound.

    *Pairs.*  G lies in B_n = F_2^n : S_n, and its kernel K on the pairs
    consists of flip vectors.  G normalizes K and permutes its coordinates
    through H, which contains A_n (n >= 8 here).  For a sample g whose
    pair image has order r, g^r lies in K: on each pair cycle of length l
    it flips every pair of the cycle exactly when g^l flips the cycle's
    first pair and r/l is odd.  g commutes with the mirror, so a cycle of
    g that holds its first point's mirror is a pair cycle of half its
    length that g^l flips, and any other, with its mirror twin, is one of
    its own length that g^l fixes; one O(d) walk reads them.  Suppose one
    such vector v is not constant, with v_i = 1 and v_j = 0.  Two of the
    other n-2 >= 3 coordinates agree, say k and l, so the double
    transposition (i j)(k l) in A_n sends v to v + e_i + e_j, and K holds
    e_i + e_j.
    A_n is 2-transitive, so K holds every e_a + e_b and with them the
    even vectors E.  Modulo E, the part of G over A_n lies in
    Z_2 x A_n and maps onto A_n; A_n is perfect (n >= 5), so the derived
    group of that image is 1 x A_n, and G contains E : A_n = [B_n, B_n].
    B_n / [B_n, B_n] is Z_2^2, whose four characters are the ones
    :class:`_SignGroup` counts, so |G| = |B_n| / (the number of them
    trivial on the generators): the bound.  No odd-weight vector is
    needed.

    Samples come from product replacement in a private
    ``random.Random(_RANDOM_SEED)``, at most ``_CERTIFICATE_SAMPLES`` of
    them, so the answer is the same on every run.  Small m, the shuffle
    groups at 2n <= 16, 24 and 2^k, and intransitive or imprimitive groups
    give None.  The caller answers the 2^k decks with :func:`_affine_group`
    before it gets here, and builds a :class:`StabilizerChain` for the rest:
    the shuffle groups at 2n in {6, 10, 12, 14, 24}, and other generators.
    """
    raws, degree, _ = _normalize(generators)
    if not raws:
        return None
    bound = _SignGroup(raws)
    m = degree // 2 if bound.paired else degree
    if not any(map(_is_prime, range(m // 2 + 1, m - 2))):
        return None
    orbit, frontier = {0}, [0]
    for x in frontier:
        for g in raws:
            y = g[x]
            y = y if y < m else degree - 1 - y
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    if len(orbit) < m:
        return None
    giant, kernel = False, not bound.paired
    for g in itertools.islice(_product_replacement(raws), _CERTIFICATE_SAMPLES):
        cycles = _cycle_type(g)
        if bound.paired:
            cycles = [(length // 2, True) if flip else (length, False) for length, flip in cycles]
        giant = giant or any(
            m < 2 * length <= 2 * m - 6 and _is_prime(length) for length, _ in cycles
        )
        if not kernel:
            r = math.lcm(*(length for length, _ in cycles))
            kernel = len({flip and r // length % 2 == 1 for length, flip in cycles}) == 2
        if giant and kernel:
            return bound
    return None


def _product_replacement(generators) -> Iterator[tuple[int, ...]]:
    """Random elements of the group, nearly uniform, by product replacement
    with an accumulator (Celler et al. 1995), from a private
    ``random.Random(_RANDOM_SEED)``: the same stream on every call."""
    rng = random.Random(_RANDOM_SEED)
    slots = [generators[i % len(generators)] for i in range(max(_PR_SLOTS, len(generators)))]
    accumulator = tuple(range(len(generators[0])))
    while True:
        s = rng.randrange(len(slots))
        t = rng.randrange(len(slots) - 1)
        t += t >= s
        h = slots[t] if rng.random() < 0.5 else _invert(slots[t])
        slots[s] = _compose(slots[s], h) if rng.random() < 0.5 else _compose(h, slots[s])
        accumulator = _compose(accumulator, slots[s])
        yield accumulator


def _affine_group(generators) -> _AffineGroup | None:
    """The generated group, with its exact order, when its degree is
    d = 2^k and every generator is an affine map of the k-bit position
    labels whose linear part is a bit rotation; None otherwise.

    Write rot for the left rotation of k bits by one place, so
    rot^j(1) = 2^j, and (b, j) for the map x -> rot^j(x) xor b.  A
    generator g has this form exactly when, with b = g(0) and
    g(1) xor b = 2^j, g(x) = rot^j(x) xor b at every point: an O(d) check.
    These maps form F_2^k : Z_k.  (b, j) followed by (b', j') is
    (rot^j'(b) xor b', j + j' mod k), so pi(b, j) = j is a homomorphism to
    Z_k.  Its kernel in the group G is T, the translations in G, and
    |G| = |pi(G)| * |T|.

    *Image.*  A breadth-first walk from the identity that multiplies by
    each generator on the right reaches every coset of T: G is finite, so
    every element is a product of generators.  It keeps one representative
    r_c for each value c of pi, at most k of them, and pi(G) is the set of
    values reached.

    *Translations.*  By Schreier's lemma T is generated by
    r_c g r_{c+j}^-1 for every value c and generator g = (b, j).  Each
    lies in the kernel of pi, so it is a translation x -> x xor t, and
    translations compose by xor, so T is the F_2-span of these t.
    Gaussian elimination on k-bit integers finds its dimension, and
    |T| = 2^dim.  After the point check the work is O(k^2) integer
    operations per generator.

    At every 2^k deck each of L, R, I, O and V has this form (the tests
    pin the five forms), so <L, R> and <I, O> are answered here.  Other
    degrees, and any generator that fails the check, give None, and the
    caller tries :func:`_certified_group` and then a
    :class:`StabilizerChain`.
    """
    raws, degree, _ = _normalize(generators)
    if degree < 2 or degree & (degree - 1):
        return None
    forms = [_affine_form(g) for g in raws]
    if None in forms:
        return None
    return _AffineGroup(degree.bit_length() - 1, forms)


def _affine_form(g: tuple[int, ...]) -> tuple[int, int] | None:
    # (b, j) when g is x -> rot^j(x) xor b on 2^k points, else None.  Such
    # a map sends x xor 2^i to g(x) xor rot^j(2^i), so its images double
    # from g(0) = b one bit at a time, each step one xor pass in C
    b = g[0]
    j = (g[1] ^ b).bit_length() - 1
    k = len(g).bit_length() - 1
    image = (b,)
    for i in range(k):
        image += tuple(map(operator.xor, image, itertools.repeat(1 << (i + j) % k)))
    return (b, j) if image == g else None


class _AffineGroup:
    """The group of :func:`_affine_group` on 2^k points: one representative
    (b, j) per rotation j in its image, and an xor basis of its
    translations whose vectors have distinct leading bits, largest first.
    p is a member exactly when it is such a map (b, j), j is in the image,
    and p r_j^-1, a translation, lies in the span of the basis."""

    __slots__ = ("k", "reps", "basis", "order")

    def __init__(self, k: int, forms: list[tuple[int, int]]):
        self.k = k
        self.reps = {0: (0, 0)}
        self.basis: list[int] = []
        frontier = [(0, 0)]
        for r in frontier:
            for g in forms:
                e = self._mul(r, g)
                rep = self.reps.get(e[1])
                if rep is None:
                    self.reps[e[1]] = e
                    frontier.append(e)
                    continue
                t = self._reduce(self._mul(e, self._inverse(rep))[0])
                if t:
                    self.basis.append(t)
                    self.basis.sort(reverse=True)
        self.order = len(self.reps) << len(self.basis)

    def __contains__(self, p) -> bool:
        raw = _raw(p)
        form = _affine_form(raw) if len(raw) == 1 << self.k else None
        if form is None or form[1] not in self.reps:
            return False
        return self._reduce(self._mul(form, self._inverse(self.reps[form[1]]))[0]) == 0

    def _rot(self, x: int, j: int) -> int:
        return ((x << j) | (x >> (self.k - j))) & ((1 << self.k) - 1)

    def _mul(self, p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
        # p, then q
        return self._rot(p[0], q[1]) ^ q[0], (p[1] + q[1]) % self.k

    def _inverse(self, p: tuple[int, int]) -> tuple[int, int]:
        j = -p[1] % self.k
        return self._rot(p[0], j), j

    def _reduce(self, t: int) -> int:
        # t less its projection on the basis: 0 exactly when t is in the span
        for v in self.basis:
            t = min(t, t ^ v)
        return t


class StabilizerChain:
    """Base and strong generating set via Schreier-Sims.

    Base points are chosen greedily as the smallest point moved by the
    permutation that forced a new level.  Level i stores the generators of
    the stabilizer of the first i base points with gathers through them and
    their inverses, the orbit of base point i under them as an append-only
    list, and one permutation per orbit point: the inverse v_x of the coset
    representative u_x that maps base[i] to x.  The sift strips with v_x
    directly; the public ``transversals`` view inverts v_x when it is read.
    A generator added to a level extends that level's orbit and inverse
    transversal in place.

    The build first sifts random elements from the seeded product
    replacement stream that :func:`_certified_group` reads, from its first
    element, so reruns on the same generator list produce the identical
    chain.  Each nontrivial residue, which fixes the first j base points and
    sends base point j outside its orbit (or fixes every base point), joins
    levels 0..j.  This stops as soon as the product of the orbit sizes
    equals the order of the generators' :class:`_SignGroup`.  That proves
    the chain complete: every strong generator is a residue of an element of
    the group G, so orbit i lies inside the orbit of base point i under the
    stabilizer in G of the base points before it, and the product of the
    orbit sizes is at most |G|, which is at most the bound.  Equality forces
    every orbit to be full and the stabilizer of the whole base in G to be
    trivial.

    After ``_TRIVIAL_SIFTS`` trivial sifts in a row below the bound, the
    random phase stops.  When the bound is ``paired``, the action pi of G
    on the n mirror pairs can still prove the chain complete:
    |G| = |K| * |pi(G)|, and the kernel K holds at most the bound's
    ``kernel`` elements (see :class:`_SignGroup`).  pi(G) is generated by
    the generators' pair images, so a chain on them, built the same way,
    gives |pi(G)|.  If the product P of the orbit sizes equals
    |pi(G)| * ``kernel``, then P >= |G|, and with P <= |G| from above,
    P = |G|: the chain is complete.  ``kernel`` must divide P for that,
    which costs nothing to test, so a group with a small kernel builds no
    chain on the pairs.

    Where that bound fails too, or is not ``paired``, the random phase is
    thrown away and the deterministic closure runs from scratch instead.
    It closes the levels deepest first, and each (level, generator) pair
    keeps a cursor into the orbit, so every Schreier generator is sifted
    exactly once.

    Either way, on return ``order`` is exact and ``contains`` is a complete
    membership test.
    """

    def __init__(self, generators: Iterable, degree: int | None = None):
        raws, degree, identity = _normalize(generators, degree)
        self.degree = degree
        self._identity = identity
        self._start(raws)
        if raws:
            bound = _SignGroup(raws)
            if not (self._random_fill(raws, bound.order) or self._pair_bound(raws, bound)):
                self._start(raws)
                i = len(self._levels) - 1
                while i >= 0:
                    i = self._close_level(i)
        self.base: tuple[int, ...] = tuple(level.point for level in self._levels)
        self.order: int = math.prod(map(len, self._levels))

    # --- public views ---

    @property
    def strong_generators(self) -> tuple[Permutation, ...]:
        seen = dict.fromkeys(g for level in self._levels for g, _, _ in level.gens)
        return tuple(map(_wrap, seen))

    @property
    def transversals(self) -> tuple[Mapping[int, Permutation], ...]:
        """Per level, orbit point x -> the coset representative mapping the
        base point to x, inverted from the stored v_x when it is read."""
        return tuple(self._levels)

    def contains(self, p) -> bool:
        raw = _raw(p)
        if len(raw) != self.degree:
            return False
        residue, _ = self._sift(raw, 0)
        return residue == self._identity

    __contains__ = contains

    def sift(self, p) -> Permutation:
        """Residue after stripping coset representatives; identity means member."""
        raw = _raw(p)
        if len(raw) != self.degree:
            raise ValueError(f"degree {len(raw)} does not match chain degree {self.degree}")
        residue, _ = self._sift(raw, 0)
        return _wrap(residue)

    # --- construction ---

    def _start(self, raws: list[tuple[int, ...]]) -> None:
        # an empty chain, then each generator on the levels up to and
        # including the first whose base point it moves; one that fixes
        # every base point opens a new level
        self._levels: list[_Level] = []
        for g in raws:
            moved = (i for i, level in enumerate(self._levels) if g[level.point] != level.point)
            self._add_generator(g, 0, next(moved, len(self._levels)))

    def _pair_bound(self, raws: list[tuple[int, ...]], bound: _SignGroup) -> bool:
        # whether the orbit sizes multiply to |pi(G)| times the bound's
        # kernel, as the class docstring proves; the kernel must divide the
        # product first, so a group with a small kernel builds no chain on
        # the pairs
        if not bound.paired:
            return False
        found = math.prod(map(len, self._levels))
        if found % bound.kernel:
            return False
        images = [_wrap(g).pair_permutation() for g in raws]
        return found == StabilizerChain(images, self.degree // 2).order * bound.kernel

    def _random_fill(self, raws: list[tuple[int, ...]], bound: int) -> bool:
        # sift random elements until the orbit sizes multiply to the bound;
        # False if _TRIVIAL_SIFTS sifts in a row were trivial before that
        elements = _product_replacement(raws)
        trivial = 0
        found = math.prod(map(len, self._levels))
        while found < bound:
            if trivial == _TRIVIAL_SIFTS:
                return False
            residue, j = self._sift(next(elements), 0)
            if residue == self._identity:
                trivial += 1
                continue
            trivial = 0
            self._add_generator(residue, 0, j)
            found = math.prod(map(len, self._levels))
        return True

    def _add_generator(self, g: tuple[int, ...], first: int, last: int) -> None:
        # append g to levels first..last, opening level last if the chain
        # ends before it, and grow their orbits in place: old points are
        # moved by g alone, new points by every generator.
        # u_y = u_x h, so v_y = h^-1 v_x, one gather through h's entry.
        if last == len(self._levels):
            self._levels.append(_Level(g, self._identity))
        entry = (g, operator.itemgetter(*g), operator.itemgetter(*_invert(g)))
        for level in self._levels[first : last + 1]:
            gens, orbit, trinv = level.gens, level.orbit, level.trinv
            gens.append(entry)
            level.tested.append(0)
            # an itemgetter of one index returns the item, not a 1-tuple
            images = operator.itemgetter(*orbit)(g) if len(orbit) > 1 else (g[orbit[0]],)
            if all(map(trinv.__contains__, images)):
                continue  # g maps the orbit into itself
            old = len(orbit)
            k = 0
            while k < len(orbit):
                x = orbit[k]
                for h, _, hinv in gens if k >= old else (entry,):
                    y = h[x]
                    if y not in trinv:
                        trinv[y] = hinv(trinv[x])
                        orbit.append(y)
                k += 1

    def _sift(self, p: tuple[int, ...], start: int):
        levels = self._levels
        for i in range(start, len(levels)):
            level = levels[i]
            uinv = level.trinv.get(p[level.point])
            if uinv is None:
                return p, i
            p = _compose(p, uinv)
        return p, len(levels)

    def _close_level(self, i: int) -> int:
        # sift level i's untested Schreier generators, point by point, while
        # every deeper level has sifted all of its own; a nontrivial residue
        # joins levels i+1..j and the build resumes at j, else it moves up.
        # The Schreier generator u_x g v_y is trivial exactly when
        # g v_y = v_x; only a nontrivial one needs u_x, inverted once.
        level = self._levels[i]
        orbit, trinv, gens, tested = level.orbit, level.trinv, level.gens, level.tested
        while True:
            pos = min(tested)
            if pos == len(orbit):
                return i - 1
            x = orbit[pos]
            vx, ux = trinv[x], None
            for k, (g, gather, _) in enumerate(gens):
                if tested[k] != pos:
                    continue
                tested[k] += 1
                gvy = gather(trinv[g[x]])
                if gvy == vx:
                    continue
                ux = ux or _invert(vx)
                residue, j = self._sift(_compose(ux, gvy), i + 1)
                if residue == self._identity:
                    continue
                self._add_generator(residue, i + 1, j)
                return j


class _Level(Mapping):
    """One level of a :class:`StabilizerChain`, laid out as its docstring
    says; gens[k] is a generator g with two gathers, (g, p -> g p,
    p -> g^-1 p), each an ``operator.itemgetter`` shared by every level that
    holds g, and tested[k] counts the orbit points whose Schreier generator
    with g has been sifted.  As a Mapping it is the level's transversal:
    orbit point x -> u_x, inverted from v_x when it is read."""

    __slots__ = ("point", "gens", "orbit", "trinv", "tested")

    def __init__(self, moving: tuple[int, ...], identity: tuple[int, ...]):
        # the base point is the smallest point that moving moves
        self.point = next(i for i, x in enumerate(moving) if x != i)
        self.gens: list[tuple[tuple[int, ...], operator.itemgetter, operator.itemgetter]] = []
        self.orbit = [self.point]
        self.trinv = {self.point: identity}
        self.tested: list[int] = []

    def __getitem__(self, x: int) -> Permutation:
        return _wrap(_invert(self.trinv[x]))

    def __iter__(self) -> Iterator[int]:
        return iter(self.trinv)

    def __len__(self) -> int:
        return len(self.orbit)
