"""Solving card-placement problems with shuffle words.

Two classic constructions:

* ``perfect_elmsley_word``: on any even deck, read the target position in
  binary left to right, doing an in shuffle for each 1 and an out shuffle
  for each 0; the top card lands on the target.

* ``unshuffle_swap_word``: on a deck of 2^k cards, any two positions can be
  exchanged by exactly k left/right shuffles.  Writing the bitwise XOR of
  the two positions as x_{k-1}..x_0, the r-th shuffle performed is chosen
  by bit x_r; which letter a bit picks flips with the parity of k.

The driving fact is how L and R act on k-bit position labels: both replace
x_{k-1}..x_0 by the complement of x_{k-1}..x_1 prefixed with the old low
bit (L keeps it, R complements it).  ``binary_shuffle_image`` implements
that rule directly so the tests can check it against the modular closed
forms.
"""

from __future__ import annotations

from .shuffles import MAX_DECK, Step, Word, check_deck_size

MAX_LOG_DECK = MAX_DECK.bit_length() - 1


def index_bits(value: int, width: int) -> tuple[int, ...]:
    """Fixed-width big-endian bits (x_{width-1}, ..., x_0)."""
    if width < 1:
        raise ValueError("width must be positive")
    if not 0 <= value < (1 << width):
        raise ValueError(f"{value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - j)) & 1 for j in range(width))


def bits_index(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def binary_shuffle_image(letter: str, bits) -> tuple[int, ...]:
    """Image of a k-bit position label under L or R on a 2^k deck."""
    bits = tuple(bits)
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError(f"bad bit sequence {bits!r}")
    low = bits[-1]
    complemented_prefix = tuple(1 - b for b in bits[:-1])
    if letter == "L":
        return (low,) + complemented_prefix
    if letter == "R":
        return (1 - low,) + complemented_prefix
    raise ValueError(f"bit rule is defined for 'L' and 'R' only, got {letter!r}")


def unshuffle_swap_word(i: int, j: int, k: int) -> Word:
    """A k-letter word over L and R exchanging positions i and j on 2^k cards.

    The word depends only on i XOR j; for i == j it performs the identity.
    """
    if not 1 <= k <= MAX_LOG_DECK:
        raise ValueError(f"k must be in [1, {MAX_LOG_DECK}], got {k}")
    size = 1 << k
    for name, pos in (("i", i), ("j", j)):
        if not 0 <= pos < size:
            raise ValueError(f"{name}={pos} out of range for a {size}-card deck")
    diff = i ^ j
    if k % 2:
        pick = ("L", "R")  # bit 0 -> L, bit 1 -> R
    else:
        pick = ("R", "L")
    return tuple(Step(pick[(diff >> r) & 1]) for r in range(k))


def perfect_elmsley_word(target: int, deck_size: int) -> Word:
    """An I/O word moving the top card to ``target`` on any even deck.

    Spell target in binary, most significant bit first and without leading
    zeros: 1 means in shuffle, 0 means out shuffle.  Target 0 needs no
    shuffles at all, so the word is empty.
    """
    check_deck_size(deck_size)
    if not 0 <= target < deck_size:
        raise ValueError(f"target {target} out of range for a {deck_size}-card deck")
    if target == 0:
        return ()
    return tuple(Step("I" if ch == "1" else "O") for ch in format(target, "b"))
