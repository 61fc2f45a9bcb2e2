"""Solving card-placement problems with shuffle words.

Two classic constructions:

* ``perfect_elmsley_word``: on any even deck, read the target position in
  binary left to right, doing an in shuffle for each 1 and an out shuffle
  for each 0; the top card lands on the target.

* ``unshuffle_swap_word``: on a deck of 2^k cards, any two positions can be
  exchanged by exactly k left/right shuffles.  Writing the bitwise XOR of
  the two positions as x_{k-1}..x_0, the r-th shuffle performed is chosen
  by bit x_r; which letter a bit picks flips with the parity of k.

The driving fact is how L and R act on the k-bit position labels of a 2^k
deck: as the affine maps (b, j), x -> rot^j(x) xor b with rot the left
rotation by one bit, L = (2^(k-1) - 1, k - 1) and R = (2^k - 1, k - 1).
:func:`unshuffle.bsgs._affine_form` reads these forms off the images, and
the tests pin them at every position.
"""

from __future__ import annotations

from .shuffles import MAX_DECK, Step, Word, check_deck_size

MAX_LOG_DECK = MAX_DECK.bit_length() - 1


def unshuffle_swap_word(i: int, j: int, k: int) -> Word:
    """A k-letter word over L and R exchanging positions i and j on 2^k cards.

    The word is the translation x -> x xor (i xor j), so it depends only on
    i XOR j, and for i == j it performs the identity.  Proof from the
    affine forms of the module docstring: performing (b, j) and then
    (b', j') gives (rot^j'(b) xor b', j + j').  Both letters rotate by
    k - 1, so any k letters rotate by k(k - 1) = 0 (mod k), and the word
    is a translation x -> x xor t.  The k - r letters after step r (from
    1) rotate by (k - 1)(k - r) = r - k (mod k), so the letter performed
    at step r adds rot^(r-k)(b) = rot^r(b) to t.  Since b_R = b_L xor 2^(k-1), swapping L and R at step
    r flips exactly bit r - 1 of t.  All-L words are L^k, the identity when
    k is odd, and all-R words are R^k, the identity when k is even; ``pick``
    starts from that word and swaps the letter at every step whose bit of
    i xor j is set.
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
