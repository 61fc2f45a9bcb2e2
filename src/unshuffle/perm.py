"""Permutations of {0, ..., d-1} stored as image arrays.

Convention used everywhere in this package: ``image[i]`` is the position
that the card currently at position i moves to, and products read left to
right, so ``p * q`` means "do p, then q".  A deck written out top to bottom
shows the *inverse* map: after applying p to a sorted deck, the card label
at position j is ``p.inverse().image[j]``.  Use :meth:`Permutation.arrangement`
for that display form.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable


class _Value:
    """Base of the package's immutable value types, in place of frozen
    dataclasses, whose module and what it imports would cost every fresh
    process several milliseconds.

    A subclass lists its fields in ``__slots__``, sets each once through
    ``object.__setattr__`` in ``__init__``, and returns them in that order
    from ``_values``, which gives ``==`` (same class only), the repr
    ``Name(field=value, ...)`` and ``__reduce__``.  Pickle and copy need
    that reduce, since their default restore of slots goes through the
    ``__setattr__`` that raises.  Each subclass writes out its own
    ``__hash__``, one call cheaper than hashing ``_values()``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Permutation(_Value):
    __slots__ = ("image",)

    image: tuple[int, ...]

    def __init__(self, image: Iterable[int]):
        img = tuple(image)
        d = len(img)
        if d == 0:
            raise ValueError("empty permutation")
        seen = [False] * d
        for x in img:
            # exactly int: a bool is an int subclass, but True,False would
            # not read back from its image text
            if type(x) is not int or not 0 <= x < d or seen[x]:
                raise ValueError(f"not a permutation of 0..{d - 1}: {img!r}")
            seen[x] = True
        object.__setattr__(self, "image", img)

    def _values(self) -> tuple:
        return (self.image,)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.image)

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Permutation([{', '.join(map(str, self.image))}])"

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other."""
        if len(other.image) != len(self.image):
            raise ValueError("degree mismatch")
        return _wrap(_compose(self.image, other.image))

    def inverse(self) -> "Permutation":
        return _wrap(_invert(self.image))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = tuple(range(len(self.image)))
        square = self.image
        while k:
            if k & 1:
                result = _compose(result, square)
            square = _compose(square, square)
            k >>= 1
        return _wrap(result)

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.image))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest element,
        listed in increasing order of that element."""
        out = []
        seen = [False] * len(self.image)
        for start in range(len(self.image)):
            if seen[start] or self.image[start] == start:
                seen[start] = True
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.image[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(length for length, _ in _cycle_type(self.image)))

    def parity(self) -> int:
        """+1 for even, -1 for odd."""
        return _signs(self.image)[0]

    def is_centrally_symmetric(self) -> bool:
        """True when mirror positions stay mirrored: i + j = d-1 implies
        image[i] + image[j] = d-1.  Only even degrees qualify."""
        img, last = self.image, len(self.image) - 1
        return last % 2 == 1 and all(img[i] + img[last - i] == last for i in range(len(img) // 2))

    def pair_permutation(self) -> "Permutation":
        """Collapse a centrally symmetric permutation of 2n points to its
        action on the n mirror pairs {i, 2n-1-i}, indexed by the smaller
        element in each pair."""
        if not self.is_centrally_symmetric():
            raise ValueError("pair action requires a centrally symmetric permutation")
        # image[d-1-i] = d-1-image[i], so the pair of i goes to the smaller one
        n = len(self.image) // 2
        return _wrap(tuple(map(min, self.image[:n], self.image[: n - 1 : -1])))

    def pair_parity(self) -> int:
        """The sign of :meth:`pair_permutation`."""
        if not self.is_centrally_symmetric():
            raise ValueError("pair action requires a centrally symmetric permutation")
        return _signs(self.image)[1]

    def arrangement(self) -> tuple[int, ...]:
        """Card labels top to bottom after applying this shuffle to a sorted
        deck.  This is the inverse of the image map."""
        return self.inverse().image

    # --- text forms (bit-exact, shared with the command line) ---

    def to_image_text(self) -> str:
        return ",".join(map(str, self.image))

    @classmethod
    def from_image_text(cls, text: str) -> "Permutation":
        """Comma-separated images in ASCII digits, each with optional
        ASCII whitespace around it."""
        if not re.fullmatch(r"\s*[0-9]+\s*(,\s*[0-9]+\s*)*", text, re.ASCII):
            raise ValueError(f"bad image text: {text!r}")
        try:
            return cls(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"bad image text: {text!r}") from None

    def to_cycle_text(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    @classmethod
    def from_cycle_text(cls, text: str, degree: int) -> "Permutation":
        """Cycles such as "(0 2)(1 4)", points in ASCII digits separated by
        ASCII whitespace; "()" is the identity."""
        if not re.fullmatch(r"\s*(\([0-9\s]*\))+\s*", text, re.ASCII):
            raise ValueError(f"bad cycle text: {text!r}")
        image = list(range(degree))
        touched = set()
        for body in re.findall(r"\(([^()]*)\)", text):
            points = [int(tok) for tok in body.split()]
            if any(p >= degree for p in points):
                raise ValueError(f"cycle point out of range for degree {degree}")
            if len(set(points)) != len(points) or touched & set(points):
                raise ValueError("cycles are not disjoint")
            touched.update(points)
            for a, b in zip(points, points[1:] + points[:1]):
                image[a] = b
        return cls(image)


def _wrap(img: tuple[int, ...]) -> Permutation:
    # internal fast path: img is already known to be a bijection
    p = object.__new__(Permutation)
    object.__setattr__(p, "image", img)
    return p


def _cycle_type(image: tuple[int, ...]) -> list[tuple[int, bool]]:
    # (length, mirrored) for every cycle of image, fixed points included,
    # by first point x; mirrored when the cycle holds x's mirror d-1-x, that
    # is, when the mirror is seen after the walk but not before it.  The
    # one walk for order, sign, pair sign and the certificate.
    last = len(image) - 1
    seen = [False] * len(image)
    out = []
    for start in range(len(image)):
        if seen[start]:
            continue
        before = seen[last - start]
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = image[j]
            length += 1
        out.append((length, not before and seen[last - start]))
    return out


def _signs(image: tuple[int, ...]) -> tuple[int, int]:
    # (sign, pair sign), each +1 or -1, from one walk.  With c cycles, f of
    # them mirrored, the sign is (-1)^(d-c).  On a centrally symmetric image
    # a pair cycle is one mirrored cycle or two mirror twins, so the d/2
    # pairs make (c+f)/2 pair cycles and the pair sign is (-1)^((d-c-f)/2).
    cycles = _cycle_type(image)
    s = len(image) - len(cycles)
    t = (s - sum(mirrored for _, mirrored in cycles)) // 2
    return -1 if s % 2 else 1, -1 if t % 2 else 1


# The package's one composition kernel and one inverse, on raw image tuples
# of equal length.  Hot loops (the stabilizer chain's sift and orbit growth)
# call them directly, without a Permutation around their operands.


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply p, then q.  A list's __getitem__ has a faster call path than a
    # tuple's, so copying q to a list first is 1.5-1.8x faster at degrees
    # 8 to 2^16 (CPython 3.11.7, 2-vCPU x86-64 VM)
    return tuple(map(list(q).__getitem__, p))


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def random_centrally_symmetric(rng, n: int) -> Permutation:
    """A uniformly random centrally symmetric permutation of 2n points,
    built from a random pair action plus independent mirror flips."""
    top = list(range(n))
    rng.shuffle(top)
    d = 2 * n
    image = [0] * d
    for i in range(n):
        target = top[i] if rng.random() < 0.5 else d - 1 - top[i]
        image[i] = target
        image[d - 1 - i] = d - 1 - target
    return Permutation(image)

