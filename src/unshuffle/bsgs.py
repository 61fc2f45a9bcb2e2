"""Exact computations in finite permutation groups given by generators.

Two independent engines, kept deliberately separate so they can check each
other:

* :func:`bfs_enumerate` walks the Cayley graph breadth first and returns the
  full element set.  Exact but memory bound; it refuses to grow past a cap.
  Elements are packed into bytes and each generator is padded once to a
  256-byte table, so composing an element with a generator is one
  ``bytes.translate`` call, done in C.

* :class:`StabilizerChain` runs a deterministic, incremental Schreier-Sims
  closure, producing a base, strong generating set and transversals.
  Orbits and transversals grow in place as strong generators arrive, and
  each Schreier generator is sifted once.  The group order falls out as
  the product of orbit sizes and membership testing is sifting;
  factorial-scale orders are fine since Python integers do not overflow.

Internally permutations are raw image tuples (BFS packs them into bytes for
compact hashing and translation, which caps that engine at degree
``BFS_MAX_DEGREE`` = 255).  Composition is "left then right" throughout,
matching :mod:`unshuffle.perm`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .perm import Permutation, _wrap

DEFAULT_CAP = 10_000_000
BFS_MAX_DEGREE = 255


class EnumerationCapExceeded(RuntimeError):
    """BFS closure grew past the element cap; use a StabilizerChain instead."""


def _raw(p) -> tuple[int, ...]:
    if isinstance(p, Permutation):
        return p.image
    return Permutation(p).image


def _mul(p, q):
    # apply p then q, raw tuples
    return tuple(map(q.__getitem__, p))


def _inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


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


class StabilizerChain:
    """Base and strong generating set via incremental Schreier-Sims.

    Base points are chosen greedily as the smallest point moved by the
    permutation that forced a new level, so reruns on the same generator
    list produce the identical chain.  Level i stores the generators of the
    stabilizer of the first i base points, the orbit of base point i under
    them as an append-only list, and a transversal of coset representatives
    (with cached inverses; ``transversal[i][x]`` maps base[i] to x).

    The build closes the levels deepest first.  A generator added to a
    level extends that level's orbit and transversal in place, and each
    (level, generator) pair keeps a cursor into the orbit, so every
    Schreier generator is sifted exactly once.  On return ``order`` is
    exact and ``contains`` is a complete membership test.
    """

    def __init__(self, generators: Iterable, degree: int | None = None):
        raws, degree, identity = _normalize(generators, degree)
        self.degree = degree
        self._identity = identity
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

        i = len(self._points) - 1
        while i >= 0:
            i = self._close_level(i)

        self.base: tuple[int, ...] = tuple(self._points)
        order = 1
        for tr in self._tr:
            order *= len(tr)
        self.order: int = order

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
                        v = _mul(tr[x], h)
                        tr[y] = v
                        trinv[y] = _inv(v)
                        orbit.append(y)
                k += 1

    def _sift(self, p: tuple[int, ...], start: int):
        for i in range(start, len(self._points)):
            x = p[self._points[i]]
            uinv = self._trinv[i].get(x)
            if uinv is None:
                return p, i
            p = _mul(p, uinv)
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
                ug = _mul(tr[x], g)
                if ug == tr[y]:
                    continue
                residue, j = self._sift(_mul(ug, trinv[y]), i + 1)
                if residue == self._identity:
                    continue
                if j == len(self._points):
                    self._add_level(residue)
                self._add_generator(residue, i + 1, j)
                return j


def schreier_sims(generators: Iterable, degree: int | None = None) -> StabilizerChain:
    """Convenience constructor for :class:`StabilizerChain`."""
    return StabilizerChain(generators, degree)


def group_order(generators: Sequence, cap: int = DEFAULT_CAP, engine: str = "auto") -> int:
    """Order of the generated group by the requested engine.

    A stabilizer chain answers order-only questions quickly at any scale,
    so that is what ``auto`` uses; ask for ``bfs`` when you want the same
    number from the independent engine (it raises
    :class:`EnumerationCapExceeded` past the cap).
    """
    if engine == "bfs":
        return bfs_enumerate(generators, cap).order
    if engine in ("auto", "schreier"):
        return StabilizerChain(generators).order
    raise ValueError(f"unknown engine {engine!r}")
