"""Closed forms the benchmark checks answers against.

Nothing here imports the package under test.  The shuffle images are the
formulas of the ``unshuffle.shuffles`` docstring evaluated one point at a
time; the group orders, sign table and membership rule are the paper's
closed forms.  ``test_smoke.py`` checks each of them by brute force on
small decks.
"""

from __future__ import annotations

from math import factorial, lcm

FAMILY_LETTERS = {"unshuffle": ("L", "R"), "perfect": ("I", "O")}


def image(letter: str, i: int, d: int) -> int:
    """Where the card at position i goes under one shuffle of a d-card deck."""
    n = d // 2
    if letter == "L":
        return (n * i + n - 1) % (d + 1)
    if letter == "R":
        return d - 1 if i == 0 else ((n - 1) * i) % (d - 1)
    if letter == "I":
        return (2 * i + 1) % (d + 1)
    if letter == "O":
        return d - 1 if i == d - 1 else (2 * i) % (d - 1)
    if letter == "V":
        return d - 1 - i
    raise ValueError(f"unknown shuffle letter {letter!r}")


def preimage(letter: str, j: int, d: int) -> int:
    """The position whose card one shuffle sends to position j."""
    n = d // 2
    if letter == "L":  # n^-1 = -2 (mod 2n+1)
        return (-2 * (j - n + 1)) % (d + 1)
    if letter == "R":  # (n-1)^-1 = -2 (mod 2n-1); R(0) = 2n-1, R(2n-1) = 0
        if j == d - 1:
            return 0
        return (-2 * j) % (d - 1) or d - 1
    if letter == "I":  # 2^-1 = n+1 (mod 2n+1)
        return ((j - 1) * (n + 1)) % (d + 1)
    if letter == "O":  # 2^-1 = n (mod 2n-1)
        return d - 1 if j == d - 1 else (j * n) % (d - 1)
    if letter == "V":
        return d - 1 - j
    raise ValueError(f"unknown shuffle letter {letter!r}")


def word_image(word, i: int, d: int) -> int:
    """Image of position i under a word of (letter, inverted) steps,
    performed left to right."""
    for letter, inverted in word:
        i = preimage(letter, i, d) if inverted else image(letter, i, d)
    return i


def letter_order(letter: str, d: int) -> int:
    """Order of L or R on d cards, by walking two orbits.  L is j -> n*j
    (mod d+1) on j = i+1, so the orbit of position 0 is a longest cycle.
    R swaps 0 and d-1 and is i -> (n-1)*i (mod d-1) on the rest, so the
    orbits of positions 0 and 1 hold the longest cycles."""
    out = 1
    for start in (0, 1):
        i, length = image(letter, start, d), 1
        while i != start:
            i, length = image(letter, i, d), length + 1
        out = lcm(out, length)
    return out


def letter_images(letter: str, d: int) -> tuple[int, ...]:
    return tuple(image(letter, i, d) for i in range(d))


def letter_sign(letter: str, d: int) -> int:
    """Sign of one shuffle from the paper's table by n mod 4, with
    V = LI = RO and V a product of n transpositions."""
    n = d // 2
    sign_l, sign_r = {0: (1, 1), 1: (1, -1), 2: (-1, -1), 3: (-1, 1)}[n % 4]
    sign_v = -1 if n % 2 else 1
    return {"L": sign_l, "R": sign_r, "I": sign_l * sign_v, "O": sign_r * sign_v, "V": sign_v}[
        letter
    ]


def word_sign(word, d: int) -> int:
    out = 1
    for letter, _ in word:
        out *= letter_sign(letter, d)
    return out


def _power_of_two_exponent(m: int) -> int | None:
    return m.bit_length() - 1 if m >= 1 and m & (m - 1) == 0 else None


def group_order(family: str, d: int) -> int:
    """Order of <L, R> or <I, O> on d cards, by the paper's case analysis."""
    n = d // 2
    if d == 12:
        return 2**6 * 120
    if d == 24:
        return 2**11 * 95040
    k = _power_of_two_exponent(d)
    if k is not None:
        return k * 2**k
    extra = {0: n - 2, 1: n - 1, 2: n, 3: n if family == "unshuffle" else n - 1}[n % 4]
    return factorial(n) * 2**extra


def kernel_order(n: int) -> int | None:
    """Order of the kernel of the pair action on <L, R>, where the rule applies."""
    if n <= 1 or _power_of_two_exponent(n) is not None or n in (6, 12):
        return None
    return 2 ** (n - 1) if n % 4 == 0 else 2**n


def sign(img) -> int:
    seen = bytearray(len(img))
    cycles = 0
    for start in range(len(img)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = 1
                j = img[j]
    return 1 if (len(img) - cycles) % 2 == 0 else -1


def centrally_symmetric(img) -> bool:
    last = len(img) - 1
    return len(img) % 2 == 0 and all(img[i] + img[last - i] == last for i in range(len(img)))


def unshuffle_member(img) -> bool:
    """Membership in <L, R> on 2n cards with n = 0 (mod 4), n neither 12
    nor a power of two: centrally symmetric, with sign and pair sign +1."""
    d = len(img)
    n = d // 2
    if n % 4 or n == 12 or _power_of_two_exponent(n) is not None:
        raise ValueError(f"the membership rule does not cover n={n}")
    if not centrally_symmetric(img):
        return False
    pairs = [min(x, d - 1 - x) for x in img[:n]]
    return sign(img) == 1 and sign(pairs) == 1
