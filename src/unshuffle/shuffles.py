"""The five basic shuffles of an even deck and words built from them.

Positions run 0..2n-1 with 0 the top card.  With n = deck_size // 2:

  L  left shuffle    L(i) = n*i + n - 1  (mod 2n+1)
  R  right shuffle   R(i) = (n-1)*i      (mod 2n-1), except R(0) = 2n-1
  I  in shuffle      I(i) = 2*i + 1      (mod 2n+1)
  O  out shuffle     O(i) = 2*i          (mod 2n-1), except O(2n-1) = 2n-1
  V  reversal        V(i) = 2n - 1 - i

L and R deal the deck alternately into two piles (top card starts the left
pile) and stack the named pile on top; I and O cut exactly in half and
interlace perfectly.  Each closed form is one or two arithmetic
progressions, so every image and every inverse is built in C from
``range`` slices and nothing is cached: L' and R' are the two dealt piles,
stacked, and I' and O' interlace the two halves.  The tests check each
image against the closed forms, each inverse against the inverted image,
and L' and R' against the literal dealing simulation, which is why both
constructions live here.

Words are read left to right in performance order: "RL'" means do R, then
the inverse of L.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .perm import Permutation, _compose, _invert, _wrap

LETTERS = "LRIOV"
MAX_DECK = 1 << 20


@dataclass(frozen=True)
class Step:
    """One shuffle in a word: a letter from LRIOV, possibly inverted."""

    letter: str
    inverted: bool = False

    def __post_init__(self):
        if self.letter not in LETTERS:
            raise ValueError(f"unknown shuffle letter {self.letter!r}")

    def inverse(self) -> "Step":
        return Step(self.letter, not self.inverted)

    def __str__(self) -> str:
        return self.letter + ("'" if self.inverted else "")


Word = tuple[Step, ...]


def parse_word(text: str) -> Word:
    """Parse "RL'V" style notation; whitespace between steps is allowed."""
    steps: list[Step] = []
    for ch in text:
        if ch.isspace():
            continue
        if ch == "'":
            if not steps:
                raise ValueError(f"dangling inverse mark in {text!r}")
            steps[-1] = steps[-1].inverse()
        elif ch in LETTERS:
            steps.append(Step(ch))
        else:
            raise ValueError(f"bad character {ch!r} in shuffle word {text!r}")
    return tuple(steps)


def format_word(word: Word) -> str:
    return "".join(str(s) for s in word)


def as_word(word) -> Word:
    if isinstance(word, str):
        return parse_word(word)
    return tuple(word)


def invert_word(word) -> Word:
    return tuple(s.inverse() for s in reversed(as_word(word)))


def word_power(word, k: int) -> Word:
    w = as_word(word)
    if k < 0:
        w, k = invert_word(w), -k
    return w * k


def check_deck_size(deck_size: int) -> int:
    if not isinstance(deck_size, int) or deck_size < 2 or deck_size % 2:
        raise ValueError(f"deck size must be a positive even integer, got {deck_size!r}")
    if deck_size > MAX_DECK:
        raise ValueError(f"deck size {deck_size} exceeds the supported maximum {MAX_DECK}")
    return deck_size


def _images(letter: str, deck_size: int, inverted: bool = False) -> tuple[int, ...]:
    # two progressions, interleaved (a[0], b[0], a[1], ...) or stacked
    # (a, then b); inverting a shuffle swaps the two forms
    d = deck_size
    n = d // 2
    if letter == "V":
        return tuple(range(d - 1, -1, -1))
    if letter == "L":
        if inverted:
            return (*range(d - 2, -1, -2), *range(d - 1, 0, -2))
        return _interleave(range(n - 1, -1, -1), range(d - 1, n - 1, -1))
    if letter == "R":
        if inverted:
            return (*range(d - 1, 0, -2), *range(d - 2, -1, -2))
        return _interleave(range(d - 1, n - 1, -1), range(n - 1, -1, -1))
    if letter == "I":
        if inverted:
            return _interleave(range(n, d), range(n))
        return (*range(1, d, 2), *range(0, d, 2))
    if letter == "O":
        if inverted:
            return _interleave(range(n), range(n, d))
        return (*range(0, d, 2), *range(1, d, 2))
    raise ValueError(f"unknown shuffle letter {letter!r}")


def _interleave(a: range, b: range) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b))
    out[::2] = a
    out[1::2] = b
    return tuple(out)


def shuffle_permutation(step, deck_size: int) -> Permutation:
    """The permutation a single shuffle performs on a deck of the given size."""
    check_deck_size(deck_size)
    if isinstance(step, str):
        step = Step(step)
    return _wrap(_images(step.letter, deck_size, step.inverted))


def deal_permutation(top_pile: str, deck_size: int) -> Permutation:
    """Literal simulation of dealing into two piles and stacking.

    Cards are dealt one at a time from the top, first card to the left pile,
    alternating; each dealt card lands on top of its pile.  ``top_pile``
    says which pile ends up on top of the other ("left" gives the left
    shuffle, "right" the right shuffle).
    """
    check_deck_size(deck_size)
    if top_pile not in ("left", "right"):
        raise ValueError(f"top_pile must be 'left' or 'right', got {top_pile!r}")
    left = list(range(0, deck_size, 2))
    right = list(range(1, deck_size, 2))
    if top_pile == "left":
        stacked = left[::-1] + right[::-1]
    else:
        stacked = right[::-1] + left[::-1]
    # stacked[position] is the card that lands there; the image map is the
    # inverse of that listing
    return Permutation(_invert(stacked))


def walk_word(word, deck_size: int) -> Iterator[Permutation]:
    """Evaluate a shuffle word step by step: yield the identity, then the
    permutation performed so far after each step.  The deck size is
    checked before the first state is yielded."""
    check_deck_size(deck_size)
    yield _wrap(tuple(range(deck_size)))
    current = None
    for step in as_word(word):
        image = _images(step.letter, deck_size, step.inverted)
        current = image if current is None else _compose(current, image)
        yield _wrap(current)


def word_permutation(word, deck_size: int) -> Permutation:
    """Evaluate a shuffle word (string or Step sequence) on a deck."""
    for current in walk_word(word, deck_size):
        pass
    return current


def multiplicative_order(value: int, modulus: int) -> int:
    """Least r >= 1 with value**r = 1 (mod modulus)."""
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    a = value % modulus
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{value} is not a unit mod {modulus}")
    x, r = a, 1
    while x != 1:
        x = x * a % modulus
        r += 1
    return r


def shuffle_order(letter: str, deck_size: int) -> int:
    """Order of one of the five shuffles from modular arithmetic alone.

    ord(L) = ord(-2 mod 2n+1) and ord(I) = ord(2 mod 2n+1).  With
    r = ord(-2 mod 2n-1), ord(R) is r when r is even and 2r when r is odd.
    ord(O) = ord(2 mod 2n-1), since O fixes the bottom card, and
    ord(V) = 2.  The two-card deck is handled directly (R is the swap and
    O the identity; modulus 1 carries no information).
    """
    check_deck_size(deck_size)
    if letter in ("L", "I"):
        return multiplicative_order(-2 if letter == "L" else 2, deck_size + 1)
    if letter == "R":
        if deck_size == 2:
            return 2
        r = multiplicative_order(-2, deck_size - 1)
        return r if r % 2 == 0 else 2 * r
    if letter == "O":
        return 1 if deck_size == 2 else multiplicative_order(2, deck_size - 1)
    if letter == "V":
        return 2
    raise ValueError(f"unknown shuffle letter {letter!r}")
