"""Shuffle groups: theoretical predictions and mechanical verification.

The two generator families are the unshuffles ``<L, R>`` and the perfect
shuffles ``<I, O>``.  For every even deck size the exact order of each
group is known in closed form; :func:`predict_group` routes a deck size to
the matching case and :func:`verify_deck_sizes` recomputes the order and
reports whether theory and computation agree.  The recomputation proves
the order through :func:`compute_order`, the package's one engine policy:
the affine engine of :func:`unshuffle.bsgs._affine_group` at 2n = 2^k,
the giant-image certificate of :func:`unshuffle.bsgs._certified_order`
where a witness turns up, and a certified stabilizer chain elsewhere
(2n in {6, 10, 12, 14, 24}) or when the chain is asked for by name; BFS
enumeration, the independent engine, also runs only when asked for.  The
prediction never picks the engine.  :func:`group_contains` tests
membership the same way: affinely at 2^k, else by a sift through a chain.

Every element of either family preserves the mirror pairing i <-> 2n-1-i,
so both groups sit inside the group of centrally symmetric permutations
(order n! * 2^n).  Collapsing a symmetric permutation to its action on the
n pairs is a homomorphism; the sign of a shuffle and the sign of its pair
action, tabulated by n mod 4, drive the classification, and the kernel of
the pair action on <L, R> has order 2^(n-1) when n = 0 (mod 4) and 2^n
otherwise (for n > 1, n not a power of two, n not 6 or 12).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from math import factorial
from typing import NamedTuple

# compute_order looks StabilizerChain and bfs_enumerate up in this module,
# where perfbench/tracing.py rebinds them
from .bsgs import (
    DEFAULT_CAP,
    StabilizerChain,
    _affine_group,
    _certified_order,
    bfs_enumerate,
)
from .perm import Permutation
from .shuffles import (
    Step,
    Word,
    as_word,
    check_deck_size,
    invert_word,
    parse_word,
    shuffle_permutation,
    word_power,
)

FAMILIES = {"unshuffle": ("L", "R"), "perfect": ("I", "O")}


def family_generators(family: str, deck_size: int) -> tuple[Permutation, Permutation]:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    a, b = FAMILIES[family]
    return shuffle_permutation(a, deck_size), shuffle_permutation(b, deck_size)


def compute_order(
    generators: Sequence, engine: str = "auto", cap: int = DEFAULT_CAP
) -> tuple[str, int]:
    """The package's one engine policy: the engine that answered and the
    exact order of the generated group.

    Every ``engine="auto"`` in the package (:func:`group_order`,
    :func:`verify_deck_size`, :func:`pair_kernel_order`, the command line)
    means :func:`unshuffle.bsgs._affine_group` on 2^k points, then
    :func:`unshuffle.bsgs._certified_order`, and the stabilizer chain
    where both give None; all three are exact, and the first two answer
    at any scale.  ``schreier`` forces the chain, and ``bfs`` runs the
    enumeration, the independent check, which raises
    :class:`EnumerationCapExceeded` past ``cap`` elements or 255 points.
    Any other engine is a ValueError.
    """
    if engine == "auto":
        affine = _affine_group(generators)
        if affine is not None:
            return "affine", affine.order
        order = _certified_order(generators)
        if order is not None:
            return "certificate", order
        engine = "schreier"
    if engine == "schreier":
        return engine, StabilizerChain(generators).order
    if engine == "bfs":
        return engine, bfs_enumerate(generators, cap).order
    raise ValueError(f"unknown engine {engine!r}")


def group_contains(generators: Sequence, p) -> bool:
    """Whether the generated group contains p: the affine test of
    :func:`unshuffle.bsgs._affine_group` when every generator passes it,
    else a sift through a :class:`StabilizerChain`."""
    affine = _affine_group(generators)
    if affine is not None:
        return affine.contains(p)
    return StabilizerChain(generators).contains(p)


def group_order(generators: Sequence, cap: int = DEFAULT_CAP, engine: str = "auto") -> int:
    """Order of the generated group by the requested engine; see
    :func:`compute_order`."""
    return compute_order(generators, engine, cap)[1]


def power_of_two_exponent(m: int) -> int | None:
    if m >= 1 and m & (m - 1) == 0:
        return m.bit_length() - 1
    return None


@dataclass(frozen=True)
class GroupPrediction:
    family: str
    deck_size: int
    case: str
    order: int
    order_factored: str
    characterization: str


def predict_group(family: str, deck_size: int) -> GroupPrediction:
    """Predicted order and structure of a shuffle group, no enumeration.

    Special deck sizes take precedence: 12, 24, then powers of two; every
    other size routes by n mod 4.  Every even size lands in exactly one
    case.
    """
    check_deck_size(deck_size)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    n = deck_size // 2

    if deck_size == 12:
        return GroupPrediction(
            family, deck_size, "special12", 2**6 * 120, "2^6*120", "Z_2^6 : S_5"
        )
    if deck_size == 24:
        return GroupPrediction(
            family, deck_size, "special24", 2**11 * 95040, "2^11*95040", "Z_2^11 : M_12"
        )
    k = power_of_two_exponent(deck_size)
    if k is not None:
        return GroupPrediction(
            family, deck_size, "power_of_two", k * 2**k, f"{k}*2^{k}", f"Z_2^{k} : Z_{k}"
        )

    residue = n % 4
    if residue == 0:
        order, factored = factorial(n) * 2 ** (n - 2), f"{n}!*2^{n - 2}"
        what = "intersection of the kernels of sign and pair sign"
    elif residue == 1:
        order, factored = factorial(n) * 2 ** (n - 1), f"{n}!*2^{n - 1}"
        what = "kernel of pair sign"
    elif residue == 2:
        order, factored = factorial(n) * 2**n, f"{n}!*2^{n}"
        what = "all centrally symmetric permutations"
    else:
        if family == "unshuffle":
            order, factored = factorial(n) * 2**n, f"{n}!*2^{n}"
            what = "all centrally symmetric permutations"
        else:
            order, factored = factorial(n) * 2 ** (n - 1), f"{n}!*2^{n - 1}"
            what = "kernel of sign times pair sign"
    return GroupPrediction(family, deck_size, f"mod{residue}", order, factored, what)


# sign of L, sign of R, sign of pair action of L, sign of pair action of R,
# keyed by n mod 4
_PARITY_ROWS = {
    0: (1, 1, 1, 1),
    1: (1, -1, 1, 1),
    2: (-1, -1, -1, 1),
    3: (-1, 1, 1, -1),
}


def parity_row(n: int) -> tuple[int, int, int, int]:
    """Predicted signs (L, R, pair action of L, pair action of R)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _PARITY_ROWS[n % 4]


def computed_parity_row(deck_size: int) -> tuple[int, int, int, int]:
    left, right = family_generators("unshuffle", deck_size)
    return (left.parity(), right.parity(), left.pair_parity(), right.pair_parity())


def kernel_rule_applies(n: int) -> bool:
    return n > 1 and power_of_two_exponent(n) is None and n not in (6, 12)


def predicted_kernel_order(n: int) -> int:
    if not kernel_rule_applies(n):
        raise ValueError(f"kernel order rule does not apply to n={n}")
    return 2 ** (n - 1) if n % 4 == 0 else 2**n


def pair_kernel_order(generators, group_order: int | None = None) -> int:
    """Order of the kernel of the pair action on the generated group.

    Computed as |G| / |image| by the first isomorphism theorem.  Each
    order comes from :func:`compute_order`'s ``auto``: the giant-image
    certificate, or a stabilizer chain where the certificate gives none
    (the image at n < 8, for example); pass ``group_order`` if |G| is
    already known.
    """
    gens = list(generators)
    if group_order is None:
        group_order = compute_order(gens)[1]
    images = [g.pair_permutation() for g in gens]
    image_order = compute_order(images)[1]
    if group_order % image_order:
        raise ValueError("group order is not divisible by pair-image order")
    return group_order // image_order


# --- classic generator words over the perfect shuffles ---


def diaconis_words(
    deck_size: int | None = None,
    k: int | None = None,
    r_values=None,
) -> dict[str, Word]:
    """The c, w, b, c' and h(r) words over in/out shuffles.

    These are the workhorses of the classic perfect-shuffle analysis: for
    odd half-deck sizes, c and w generate every permutation fixing the top
    half of the deck whose restriction there is even.  The strings read
    left to right in performance order; evaluating them that way is what
    makes the top-half invariance hold (the tests check it).

    ``k`` defaults to the exponent of 2 in the deck size and ``r_values``
    to 1..k-1; b and h(r) are the only words that depend on them.
    """
    if k is None:
        if deck_size is None:
            raise ValueError("need a deck size or an explicit k")
        check_deck_size(deck_size)
        k = (deck_size & -deck_size).bit_length() - 1
    if k < 1:
        raise ValueError("k must be a positive integer")
    if r_values is None:
        r_values = range(1, k)

    c = parse_word("O") + word_power("I'OIO'", 2) + parse_word("O'")
    w = (
        parse_word("O'I")
        + invert_word(c)
        + parse_word("O'I")
        + word_power(c, 2)
        + parse_word("I'O")
        + invert_word(c)
        + parse_word("I'O")
    )
    b = word_power(word_power("I", k) + word_power("O'", k) + parse_word("I'O"), -2)
    out: dict[str, Word] = {
        "c": c,
        "w": w,
        "b": b,
        "c'": parse_word("O") + b + parse_word("O'"),
    }
    for r in r_values:
        if not 1 <= r:
            raise ValueError(f"r must be positive, got {r}")
        out[f"h({r})"] = word_power("O'", r) + word_power("I", r)
    return out


class SubstitutionResult(NamedTuple):
    word: Word
    leading_reversal: bool


_UNSHUFFLE_FORMS = {
    # I = V L^-1 and O = V R^-1, performed inverse first since V is last
    ("I", False): (Step("L", True), Step("V")),
    ("I", True): (Step("V"), Step("L")),
    ("O", False): (Step("R", True), Step("V")),
    ("O", True): (Step("V"), Step("R")),
    ("V", False): (Step("V"),),
    ("V", True): (Step("V"),),
}


def substitute_unshuffles(word) -> SubstitutionResult:
    """Rewrite a word over I, O, V as one over L and R.

    V commutes with every shuffle here and squares to the identity, so the
    reversals introduced by I = VL' and O = VR' cancel in pairs.  An odd
    number survives as a single leading V; the result is flagged so callers
    know the word did not reduce to pure unshuffles.
    """
    expanded: list[Step] = []
    for step in as_word(word):
        expanded.extend(_UNSHUFFLE_FORMS.get((step.letter, step.inverted), (step,)))
    reversals = sum(1 for s in expanded if s.letter == "V")
    kept = tuple(s for s in expanded if s.letter != "V")
    if reversals % 2:
        return SubstitutionResult((Step("V"),) + kept, True)
    return SubstitutionResult(kept, False)


# --- verification records ---


def decimal_text(value: int) -> str:
    """The decimal digits of an integer of any size.  ``str`` refuses ints
    longer than ``sys.get_int_max_str_digits()``, 4300 digits by default,
    which the group orders pass from 2n = 2848 on.  Past that limit the
    integer is split into high and low bit halves, each converted to an
    exact ``Decimal`` and recombined as high * 2**half + low, in
    subquadratic time (CPython 3.12's ``_pylong.int_to_decimal_string``);
    ``str(Decimal(value))`` is quadratic and took minutes for the
    2.9-million-digit order at 2n = 1048574."""
    try:
        return str(value)
    except ValueError:
        # imported only when needed: the import alone takes about 2 ms
        import decimal

    powers: dict[int, decimal.Decimal] = {}

    def power(bits: int) -> decimal.Decimal:
        # 2**bits, kept: each depth of the split needs at most two of them
        if bits <= 128:
            return decimal.Decimal(1 << bits)
        if bits not in powers:
            half = bits >> 1
            powers[bits] = power(half) * power(bits - half)
        return powers[bits]

    def convert(v: int, bits: int) -> decimal.Decimal:
        if bits <= 128:
            return decimal.Decimal(v)
        half = bits >> 1
        high = v >> half
        return convert(v - (high << half), half) + convert(high, bits - half) * power(half)

    with decimal.localcontext() as context:
        context.prec = decimal.MAX_PREC
        context.Emax = decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        digits = str(convert(abs(value), abs(value).bit_length()))
    return "-" + digits if value < 0 else digits


@dataclass(frozen=True)
class VerificationRecord:
    two_n: int
    family: str
    engine_used: str
    computed_order: int
    predicted_order: int
    predicted_order_factored: str
    match: bool
    parities: tuple[int, int, int, int]
    kernel_order_computed: int | None = None
    kernel_order_predicted: int | None = None

    def to_fields(self) -> dict:
        """Serialization dict, fixed key order, orders as decimal strings."""
        fields: dict = {
            "two_n": self.two_n,
            "family": self.family,
            "engine_used": self.engine_used,
            "computed_order": decimal_text(self.computed_order),
            "predicted_order": decimal_text(self.predicted_order),
            "predicted_order_factored": self.predicted_order_factored,
            "match": self.match,
            "parities": {
                "sign_L": self.parities[0],
                "sign_R": self.parities[1],
                "pair_sign_L": self.parities[2],
                "pair_sign_R": self.parities[3],
            },
        }
        if self.kernel_order_computed is not None:
            fields["kernel_order_computed"] = decimal_text(self.kernel_order_computed)
            fields["kernel_order_predicted"] = decimal_text(self.kernel_order_predicted)
        return fields


def verify_deck_size(
    deck_size: int, family: str, engine: str = "auto", cap: int = DEFAULT_CAP
) -> VerificationRecord:
    """Recompute one group order and compare against the prediction.

    ``match`` says that three things agree: the computed order with the
    predicted one, the computed signs with :func:`parity_row`, and, where
    the kernel is computed (the unshuffle family wherever
    :func:`kernel_rule_applies`), its order with the predicted one.  The
    engine is :func:`compute_order`'s; ``engine_used`` names the one
    that answered.  The prediction only supplies the expected value, never
    the engine.  A forced ``bfs`` run past the cap or the byte limit
    (more than 255 cards) raises :class:`unshuffle.bsgs.EnumerationCapExceeded`,
    as :func:`compute_order` does, so a sweep stops at its first such record.
    """
    prediction = predict_group(family, deck_size)
    gens = family_generators(family, deck_size)
    engine_used, computed = compute_order(gens, engine, cap)

    n = deck_size // 2
    kernel_computed = kernel_predicted = None
    if family == "unshuffle" and kernel_rule_applies(n):
        kernel_computed = pair_kernel_order(gens, group_order=computed)
        kernel_predicted = predicted_kernel_order(n)

    parities = computed_parity_row(deck_size)
    return VerificationRecord(
        two_n=deck_size,
        family=family,
        engine_used=engine_used,
        computed_order=computed,
        predicted_order=prediction.order,
        predicted_order_factored=prediction.order_factored,
        match=(
            computed == prediction.order
            and parities == parity_row(n)
            and kernel_computed == kernel_predicted
        ),
        parities=parities,
        kernel_order_computed=kernel_computed,
        kernel_order_predicted=kernel_predicted,
    )


def verify_deck_sizes(
    deck_sizes, engine: str = "auto", cap: int = DEFAULT_CAP
) -> list[VerificationRecord]:
    """Verification records for both families at each deck size, sorted by
    deck size then family name, so equal inputs give identical output."""
    sizes = sorted({check_deck_size(s) for s in deck_sizes})
    records = []
    for deck_size in sizes:
        for family in sorted(FAMILIES):
            records.append(verify_deck_size(deck_size, family, engine=engine, cap=cap))
    return records


def records_to_json(records) -> str:
    records = list(records)
    if not records:
        raise ValueError("no verification records to serialize")
    return json.dumps([r.to_fields() for r in records], indent=2) + "\n"


def write_report(records, path) -> None:
    text = records_to_json(records)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
