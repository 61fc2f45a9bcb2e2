"""Exact computations in finite permutation groups given by generators.

Two independent engines, kept deliberately separate so they can check each
other:

* :func:`bfs_enumerate` walks the Cayley graph breadth first and returns the
  full element set.  Exact but memory bound; it refuses to grow past a cap.
  Elements are packed into bytes and each generator is padded once to a
  256-byte table, so composing an element with a generator is one
  ``bytes.translate`` call, done in C.

* :class:`StabilizerChain` produces a base, strong generating set and
  transversals.  It first sifts seeded product-replacement random elements
  and stops as soon as the product of its orbit sizes reaches
  :func:`_order_bound`, an upper bound on the group order proved from the
  generators alone (central symmetry, sign and pair sign for the shuffle
  groups; S_d or A_d otherwise).  Meeting the bound certifies the chain
  complete.  When the bound is not met (the shuffle groups at 2n = 12, 24
  and 2^k, most other generator sets) the build runs the deterministic,
  incremental Schreier-Sims closure instead, in which orbits and
  transversals grow in place and each Schreier generator is sifted once.
  The group order falls out as the product of orbit sizes and membership
  testing is sifting; factorial-scale orders are fine since Python
  integers do not overflow.

Every ``engine="auto"`` in the package (:func:`group_order`,
:func:`unshuffle.groups.verify_deck_size`, the command line) means the
chain: its order is certified, so BFS runs only when asked for by name, as
the independent check.

Internally permutations are raw image tuples, composed ("left then right")
and inverted by the kernels of :mod:`unshuffle.perm`, which the chain's
sift and orbit growth call directly.  BFS packs them into bytes for compact
hashing and translation, which caps that engine at degree
``BFS_MAX_DEGREE`` = 255.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Iterator, Sequence

from .perm import Permutation, _compose, _invert, _wrap

DEFAULT_CAP = 10_000_000
BFS_MAX_DEGREE = 255

# The random phase of StabilizerChain: a fixed seed, so every build of the
# same generator list gives the same chain; product replacement with 11
# slots warmed up by 50 steps (Celler et al. 1995); and the run of trivial
# sifts after which the bound is taken to be out of reach.
_RANDOM_SEED = 20230207
_PR_SLOTS = 11
_PR_WARMUP = 50
_TRIVIAL_SIFTS = 30


class EnumerationCapExceeded(RuntimeError):
    """BFS closure grew past the element cap; use a StabilizerChain instead."""


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

    def __init__(self, degree: int, elements: frozenset[bytes]):
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

    def __hash__(self):
        return hash(self.elements)


def bfs_enumerate(generators: Iterable, cap: int = DEFAULT_CAP) -> Closure:
    """Enumerate every element of the group the generators produce.

    Raises :class:`EnumerationCapExceeded` as soon as the element count,
    identity included, passes ``cap``.
    """
    raws, degree, identity = _normalize(generators)
    if degree > BFS_MAX_DEGREE:
        raise ValueError(
            f"bfs_enumerate packs images into bytes; degree must be <= {BFS_MAX_DEGREE}"
        )
    if cap < 1:
        raise _cap_exceeded(cap)
    # p.translate(table) maps each image x of p to g[x]: the product "p then g"
    tables = [bytes(g) + bytes(256 - degree) for g in raws]
    start = bytes(identity)
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for p in frontier:
            for table in tables:
                q = p.translate(table)
                if q not in seen:
                    if len(seen) >= cap:
                        raise _cap_exceeded(cap)
                    seen.add(q)
                    next_frontier.append(q)
        frontier = next_frontier
    return Closure(degree, frozenset(seen))


def _cap_exceeded(cap: int) -> EnumerationCapExceeded:
    return EnumerationCapExceeded(
        f"group has more than {cap} elements; "
        "enumeration is infeasible, use the schreier engine"
    )


def _order_bound(generators) -> int:
    """An upper bound on the order of the group the generators produce,
    proved by an O(d) check of each generator.

    If every generator is centrally symmetric (i + j = d-1 implies
    image[i] + image[j] = d-1) and d = 2n >= 4, the group lies in the
    hyperoctahedral group B_n of order n! * 2^n.  For n >= 2, B_n has four
    linear characters into {+1, -1}: 1, the sign, the pair sign (the sign
    of the action on the n mirror pairs) and their product.  The group lies
    in the kernel of each one that is trivial on every generator, and these
    kernels meet in a subgroup whose index is their count.  Otherwise the
    group lies in S_d, or in A_d when every generator is even.
    """
    perms = [_wrap(_raw(g)) for g in generators]
    d = perms[0].degree
    if d >= 4 and all(p.is_centrally_symmetric() for p in perms):
        signs = [(p.parity(), p.pair_parity()) for p in perms]
        trivial = (
            1
            + all(s == 1 for s, _ in signs)
            + all(t == 1 for _, t in signs)
            + all(s == t for s, t in signs)
        )
        n = d // 2
        return math.factorial(n) * 2**n // trivial
    if d >= 2 and all(p.parity() == 1 for p in perms):
        return math.factorial(d) // 2
    return math.factorial(d)


def _product_replacement(generators, rng: random.Random) -> Iterator[tuple[int, ...]]:
    """Random elements of the group, nearly uniform, by product replacement
    with an accumulator (Celler et al. 1995)."""
    slots = [generators[i % len(generators)] for i in range(max(_PR_SLOTS, len(generators)))]
    accumulator = tuple(range(len(generators[0])))
    for step in itertools.count():
        s = rng.randrange(len(slots))
        t = rng.randrange(len(slots) - 1)
        t += t >= s
        h = slots[t] if rng.random() < 0.5 else _invert(slots[t])
        slots[s] = _compose(slots[s], h) if rng.random() < 0.5 else _compose(h, slots[s])
        accumulator = _compose(accumulator, slots[s])
        if step >= _PR_WARMUP:
            yield accumulator


class StabilizerChain:
    """Base and strong generating set via Schreier-Sims.

    Base points are chosen greedily as the smallest point moved by the
    permutation that forced a new level.  Level i stores the generators of
    the stabilizer of the first i base points, the orbit of base point i
    under them as an append-only list, and a transversal of coset
    representatives (with cached inverses; ``transversal[i][x]`` maps
    base[i] to x).  A generator added to a level extends that level's
    orbit and transversal in place.

    The build first sifts random elements from product replacement, seeded
    with a fixed seed in a private ``random.Random``, so reruns on the same
    generator list produce the identical chain.  Each nontrivial residue,
    which fixes the first j base points and sends base point j outside its
    orbit (or fixes every base point), joins levels 0..j.  This stops as
    soon as the product of the orbit sizes equals :func:`_order_bound`.
    That proves the chain complete: every strong generator is a residue of
    an element of the group G, so orbit i lies inside the orbit of base
    point i under the stabilizer in G of the base points before it, and
    the product of the orbit sizes is at most |G|, which is at most the
    bound.  Equality forces every orbit to be full and the stabilizer of
    the whole base in G to be trivial.

    After ``_TRIVIAL_SIFTS`` trivial sifts in a row below the bound, the
    random phase is thrown away and the deterministic closure runs from
    scratch instead.  It closes the levels deepest first, and each
    (level, generator) pair keeps a cursor into the orbit, so every
    Schreier generator is sifted exactly once.

    Either way, on return ``order`` is exact and ``contains`` is a complete
    membership test.
    """

    def __init__(self, generators: Iterable, degree: int | None = None):
        raws, degree, identity = _normalize(generators, degree)
        self.degree = degree
        self._identity = identity
        self._start(raws)
        if raws and not self._random_fill(raws, _order_bound(raws)):
            self._start(raws)
            i = len(self._points) - 1
            while i >= 0:
                i = self._close_level(i)
        self.base: tuple[int, ...] = tuple(self._points)
        self.order: int = self._orbit_product()

    # --- public views ---

    @property
    def strong_generators(self) -> tuple[Permutation, ...]:
        seen: dict[tuple[int, ...], None] = {}
        for level in self._gens:
            for g in level:
                seen.setdefault(g)
        return tuple(_wrap(g) for g in seen)

    @property
    def transversals(self) -> tuple[dict[int, Permutation], ...]:
        return tuple({x: _wrap(u) for x, u in tr.items()} for tr in self._tr)

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
        # an empty chain, then the generators on the levels they need
        self._points: list[int] = []
        self._gens: list[list[tuple[int, ...]]] = []
        self._tr: list[dict[int, tuple[int, ...]]] = []
        self._trinv: list[dict[int, tuple[int, ...]]] = []
        self._orbits: list[list[int]] = []
        # _tested[i][k]: how many orbit points of level i have had their
        # Schreier generator with _gens[i][k] sifted
        self._tested: list[list[int]] = []
        for g in raws:
            if all(g[b] == b for b in self._points):
                self._add_level(g)
        for g in raws:
            # every generator moves some base point; it belongs to the
            # levels up to and including the first one it moves
            last = next(i for i, b in enumerate(self._points) if g[b] != b)
            self._add_generator(g, 0, last)

    def _orbit_product(self) -> int:
        return math.prod(map(len, self._orbits))

    def _random_fill(self, raws: list[tuple[int, ...]], bound: int) -> bool:
        # sift random elements until the orbit sizes multiply to the bound;
        # False if _TRIVIAL_SIFTS sifts in a row were trivial before that
        elements = _product_replacement(raws, random.Random(_RANDOM_SEED))
        trivial = 0
        while self._orbit_product() < bound:
            if trivial == _TRIVIAL_SIFTS:
                return False
            residue, j = self._sift(next(elements), 0)
            if residue == self._identity:
                trivial += 1
                continue
            trivial = 0
            if j == len(self._points):
                self._add_level(residue)
            self._add_generator(residue, 0, j)
        return True

    def _add_level(self, moving: tuple[int, ...]) -> None:
        point = next(i for i, x in enumerate(moving) if x != i)
        self._points.append(point)
        self._gens.append([])
        self._tr.append({point: self._identity})
        self._trinv.append({point: self._identity})
        self._orbits.append([point])
        self._tested.append([])

    def _add_generator(self, g: tuple[int, ...], first: int, last: int) -> None:
        # append g to levels first..last and grow their orbits in place:
        # old points are moved by g alone, new points by every generator
        for i in range(first, last + 1):
            gens, orbit, tr, trinv = self._gens[i], self._orbits[i], self._tr[i], self._trinv[i]
            gens.append(g)
            self._tested[i].append(0)
            old = len(orbit)
            k = 0
            while k < len(orbit):
                x = orbit[k]
                for h in gens if k >= old else (g,):
                    y = h[x]
                    if y not in tr:
                        v = _compose(tr[x], h)
                        tr[y] = v
                        trinv[y] = _invert(v)
                        orbit.append(y)
                k += 1

    def _sift(self, p: tuple[int, ...], start: int):
        for i in range(start, len(self._points)):
            x = p[self._points[i]]
            uinv = self._trinv[i].get(x)
            if uinv is None:
                return p, i
            p = _compose(p, uinv)
        return p, len(self._points)

    def _close_level(self, i: int) -> int:
        # sift level i's untested Schreier generators, point by point, while
        # every deeper level has sifted all of its own; a nontrivial residue
        # joins levels i+1..j and the build resumes at j, else it moves up
        orbit, tr, trinv, gens, tested = (
            self._orbits[i], self._tr[i], self._trinv[i], self._gens[i], self._tested[i]
        )
        while True:
            pos = min(tested)
            if pos == len(orbit):
                return i - 1
            x = orbit[pos]
            for k, g in enumerate(gens):
                if tested[k] != pos:
                    continue
                tested[k] += 1
                y = g[x]
                ug = _compose(tr[x], g)
                if ug == tr[y]:
                    continue
                residue, j = self._sift(_compose(ug, trinv[y]), i + 1)
                if residue == self._identity:
                    continue
                if j == len(self._points):
                    self._add_level(residue)
                self._add_generator(residue, i + 1, j)
                return j


def _resolve_engine(engine: str) -> str:
    # the package's one engine policy: "auto" builds the stabilizer chain,
    # whose order is certified; BFS runs only when asked for by name
    if engine == "auto":
        return "schreier"
    if engine in ("bfs", "schreier"):
        return engine
    raise ValueError(f"unknown engine {engine!r}")


def group_order(generators: Sequence, cap: int = DEFAULT_CAP, engine: str = "auto") -> int:
    """Order of the generated group by the requested engine.

    A stabilizer chain answers order-only questions quickly at any scale,
    so that is what ``auto`` uses; ask for ``bfs`` when you want the same
    number from the independent engine (it raises
    :class:`EnumerationCapExceeded` past the cap).
    """
    if _resolve_engine(engine) == "bfs":
        return bfs_enumerate(generators, cap).order
    return StabilizerChain(generators).order
