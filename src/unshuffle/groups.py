"""Shuffle groups: theoretical predictions and mechanical verification.

The two generator families are the unshuffles ``<L, R>`` and the perfect
shuffles ``<I, O>``.  For every even deck size the exact order of each
group is known in closed form; :func:`predict_group` routes a deck size to
the matching case and :func:`verify_deck_sizes` recomputes the order and
reports whether theory and computation agree.  :func:`group_order` and
:func:`group_contains` read the group that :func:`compute_group`, the
package's one engine policy, returns; so does the recomputation for
<L, R>, and <I, O> is <L, R>'s group or read off its proof wherever one
of two rules proves it (``_deck_groups``).  None of them takes an engine
argument: a caller that wants one engine builds a
:class:`unshuffle.bsgs.StabilizerChain` or calls
:func:`unshuffle.bsgs.bfs_enumerate` itself.

Every element of either family preserves the mirror pairing i <-> 2n-1-i,
so both groups sit inside the group of centrally symmetric permutations
(order n! * 2^n).  Collapsing a symmetric permutation to its action on the
n pairs is a homomorphism.  The sign of a shuffle and the sign of its pair
action drive the classification: ``_RESIDUES`` holds the signs, index and
structure for each n mod 4, and :func:`predict_group` reads the order of
the kernel of the pair action off the same row.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

# compute_group looks StabilizerChain up in this module, where
# perfbench/tracing.py rebinds it; bfs_enumerate is not called here,
# and is bound only because tracing.py rebinds it here too
from .bsgs import (
    StabilizerChain,
    _affine_group,
    _certified_group,
    _factorial,
    _SignGroup,
    bfs_enumerate,  # noqa: F401
)
from .perm import Permutation, _signs, _Value
from .shuffles import (
    Step,
    Word,
    as_word,
    check_deck_size,
    invert_word,
    parse_word,
    shuffle_order,
    shuffle_permutation,
    word_power,
)

FAMILIES = {"unshuffle": ("L", "R"), "perfect": ("I", "O")}


def family_generators(family: str, deck_size: int) -> tuple[Permutation, Permutation]:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    a, b = FAMILIES[family]
    return shuffle_permutation(a, deck_size), shuffle_permutation(b, deck_size)


def compute_group(generators: Sequence):
    """The package's one engine policy: the engine that answered and the
    generated group, which has its exact ``order`` and ``p in group``.

    It tries :func:`unshuffle.bsgs._affine_group` on 2^k points, then
    :func:`unshuffle.bsgs._certified_group`, and builds the stabilizer
    chain (``"schreier"``) where both give None.  All three are exact, and
    the first two answer at any scale.  :func:`group_order`,
    :func:`group_contains`, :func:`pair_kernel_order`, the command line
    and :func:`verify_deck_size`'s <L, R> all read this group.
    """
    group = _affine_group(generators)
    if group is not None:
        return "affine", group
    group = _certified_group(generators)
    if group is not None:
        return "certificate", group
    return "schreier", StabilizerChain(generators)


def group_contains(generators: Sequence, p) -> bool:
    """Whether the generated group contains p; see :func:`compute_group`."""
    return p in compute_group(generators)[1]


def group_order(generators: Sequence) -> int:
    """Order of the generated group; see :func:`compute_group`."""
    return compute_group(generators)[1].order


def power_of_two_exponent(m: int) -> int | None:
    if m >= 1 and m & (m - 1) == 0:
        return m.bit_length() - 1
    return None


# The paper's classification of <L, R> off the special sizes, by n mod 4:
# the predicted signs (L, R, pair action of L, pair action of R), log2 of
# the group's index in the n! * 2^n centrally symmetric permutations, and
# its structure, the subgroup that the sign characters trivial on L and R
# cut out.  The pair signs are also I's and O's, since V fixes every pair.
# <I, O> is the same group except at n = 3 (mod 4), where it has index 2:
# see predict_group.
_RESIDUES = {
    0: ((1, 1, 1, 1), 2, "intersection of the kernels of sign and pair sign"),
    1: ((1, -1, 1, 1), 1, "kernel of pair sign"),
    2: ((-1, -1, -1, 1), 0, "all centrally symmetric permutations"),
    3: ((-1, 1, 1, -1), 0, "all centrally symmetric permutations"),
}


class GroupPrediction(_Value):
    __slots__ = (
        "family", "deck_size", "case", "order", "order_factored", "characterization",
        "kernel_order",
    )

    def __init__(
        self, family: str, deck_size: int, case: str, order: int, order_factored: str,
        characterization: str, kernel_order: int | None = None,
    ):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "deck_size", deck_size)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "order_factored", order_factored)
        object.__setattr__(self, "characterization", characterization)
        object.__setattr__(self, "kernel_order", kernel_order)

    def _values(self) -> tuple:
        return (
            self.family, self.deck_size, self.case, self.order, self.order_factored,
            self.characterization, self.kernel_order,
        )

    def __hash__(self) -> int:
        return hash((
            self.family, self.deck_size, self.case, self.order, self.order_factored,
            self.characterization, self.kernel_order,
        ))


def predict_group(family: str, deck_size: int) -> GroupPrediction:
    """Predicted order and structure of a shuffle group, no enumeration.

    Special deck sizes take precedence: 12, 24, then powers of two; every
    other size reads the row of ``_RESIDUES`` for n mod 4.  Every even size
    lands in exactly one case.

    Off the special sizes ``kernel_order`` is the order |G| / |H| of the
    kernel of the pair action, H its image: H is S_n, or A_n when both
    predicted pair signs are +1, so |K| = 2^(n - log index), doubled in
    that case.  At 12, 24 and 2^k it is None.
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
    signs, log_index, what = _RESIDUES[residue]
    if family == "perfect" and residue == 3:
        log_index, what = 1, "kernel of sign times pair sign"
    order, factored = _factorial(n) << (n - log_index), f"{n}!*2^{n - log_index}"
    kernel = 1 << (n - log_index + (signs[2:] == (1, 1)))
    return GroupPrediction(family, deck_size, f"mod{residue}", order, factored, what, kernel)


def parity_row(n: int) -> tuple[int, int, int, int]:
    """Predicted signs (L, R, pair action of L, pair action of R)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _RESIDUES[n % 4][0]


def computed_parity_row(deck_size: int) -> tuple[int, int, int, int]:
    return _row([_signs(g.image, True) for g in family_generators("unshuffle", deck_size)])


def _row(signs: list[tuple[int, int]]) -> tuple[int, int, int, int]:
    # L's and R's (sign, pair sign) as the sign row (L, R, pair L, pair R)
    (sign_l, pair_l), (sign_r, pair_r) = signs
    return sign_l, sign_r, pair_l, pair_r


def pair_kernel_order(generators, group=None) -> int:
    """Order of the kernel K of the pair action pi on the generated group G.

    ``group`` is the group that :func:`compute_group` returned for the
    generators, and is computed when it is not given.  Where it has a
    ``kernel``, it is the certificate's :class:`unshuffle.bsgs._SignGroup`
    on mirror pairs, G is that bound group, and |K| is that ``kernel``.
    For any other group, |K| = |G| / |pi(G)| by the first isomorphism
    theorem, with |pi(G)| computed from the generators' pair images by
    :func:`compute_group`: the affine engine on 2^k pairs, the
    certificate, or a stabilizer chain (the image at n < 8, for example).
    """
    gens = list(generators)
    if group is None:
        group = compute_group(gens)[1]
    if getattr(group, "kernel", None) is not None:
        return group.kernel
    images = [g.pair_permutation() for g in gens]
    image_order = compute_group(images)[1].order
    if group.order % image_order:
        raise ValueError("group order is not divisible by pair-image order")
    return group.order // image_order


# --- classic generator words over the perfect shuffles ---


def diaconis_words(deck_size: int) -> dict[str, Word]:
    """The c, w, b, c' and h(r) words over in/out shuffles.

    These are the workhorses of the classic perfect-shuffle analysis: for
    odd half-deck sizes, c and w generate every permutation fixing the top
    half of the deck whose restriction there is even.  The strings read
    left to right in performance order; evaluating them that way is what
    makes the top-half invariance hold (the tests check it).

    b and h(r) depend on k, the exponent of 2 in the deck size; r runs
    over 1..k-1.
    """
    check_deck_size(deck_size)
    k = (deck_size & -deck_size).bit_length() - 1

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
    for r in range(1, k):
        out[f"h({r})"] = word_power("O'", r) + word_power("I", r)
    return out


# a namedtuple, not a typing.NamedTuple: importing typing would cost every
# fresh process several milliseconds
SubstitutionResult = namedtuple("SubstitutionResult", ["word", "leading_reversal"])


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
    """The decimal digits of an integer of any size.  Ints of at most 2126
    bits go through ``str``, which never refuses them: 2**2126 < 10**640,
    and 640 is the smallest limit ``sys.set_int_max_str_digits`` takes.
    Longer ones, the group orders from 2n = 554 on, are split into bit
    halves down to that bound, each half an exact ``Decimal``, recombined
    as high * 2**half + low in subquadratic time (CPython 3.12's
    ``_pylong.int_to_decimal_string``).  So neither the digits nor the time
    depend on the limit or the CPython patch level; with no limit, ``str``
    took over two minutes for the 2.9-million-digit order at 2n = 1048574."""
    if value.bit_length() <= 2126:
        return str(value)
    import decimal  # only here: the import alone takes about 2 ms

    powers: dict[int, decimal.Decimal] = {}

    def power(bits: int) -> decimal.Decimal:
        # 2**bits, kept: each depth of the split needs at most two of them
        if bits <= 2126:
            return decimal.Decimal(1 << bits)
        if bits not in powers:
            half = bits >> 1
            powers[bits] = power(half) * power(bits - half)
        return powers[bits]

    def convert(v: int, bits: int) -> decimal.Decimal:
        if bits <= 2126:
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


class VerificationRecord(_Value):
    __slots__ = (
        "two_n", "family", "engine_used", "computed_order", "predicted_order",
        "predicted_order_factored", "match", "parities", "kernel_order_computed",
        "kernel_order_predicted",
    )

    def __init__(
        self, two_n: int, family: str, engine_used: str, computed_order: int,
        predicted_order: int, predicted_order_factored: str, match: bool,
        parities: tuple[int, int, int, int], kernel_order_computed: int | None = None,
        kernel_order_predicted: int | None = None,
    ):
        object.__setattr__(self, "two_n", two_n)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "engine_used", engine_used)
        object.__setattr__(self, "computed_order", computed_order)
        object.__setattr__(self, "predicted_order", predicted_order)
        object.__setattr__(self, "predicted_order_factored", predicted_order_factored)
        object.__setattr__(self, "match", match)
        object.__setattr__(self, "parities", parities)
        object.__setattr__(self, "kernel_order_computed", kernel_order_computed)
        object.__setattr__(self, "kernel_order_predicted", kernel_order_predicted)

    def _values(self) -> tuple:
        return (
            self.two_n, self.family, self.engine_used, self.computed_order,
            self.predicted_order, self.predicted_order_factored, self.match, self.parities,
            self.kernel_order_computed, self.kernel_order_predicted,
        )

    def __hash__(self) -> int:
        return hash((
            self.two_n, self.family, self.engine_used, self.computed_order,
            self.predicted_order, self.predicted_order_factored, self.match, self.parities,
            self.kernel_order_computed, self.kernel_order_predicted,
        ))

    def to_fields(self) -> dict:
        """Serialization dict, fixed key order, orders as decimal strings."""
        computed, predicted = _digits(self.computed_order, self.predicted_order)
        fields: dict = {
            "two_n": self.two_n,
            "family": self.family,
            "engine_used": self.engine_used,
            "computed_order": computed,
            "predicted_order": predicted,
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
            fields["kernel_order_computed"], fields["kernel_order_predicted"] = _digits(
                self.kernel_order_computed, self.kernel_order_predicted
            )
        return fields


def _digits(computed: int, predicted: int) -> tuple[str, str]:
    # one conversion when the two agree, as they do in a matching record
    text = decimal_text(computed)
    return text, (text if predicted == computed else decimal_text(predicted))


# kept for the last deck size, so both families' records there share one
# proof and one sign row, and nothing carries over to the next size
@lru_cache(maxsize=1)
def _deck_groups(deck_size: int) -> tuple[dict[str, tuple], tuple[int, int, int, int], tuple]:
    """Each family's engine and group at one deck size, the sign row and
    the unshuffles L and R, as :func:`verify_deck_size` reports them.

    <L, R> is :func:`compute_group`'s.  <I, O> comes from the first of
    three rules that applies, each a proof of the group it gives:

    1. *Same group.*  If V lies in <I> and in <L, R>, then <I, O> is
       <L, R>, with its engine and group.  I = V L^-1 and O = V R^-1 lie
       in <L, R>, and L = I^-1 V and R = O^-1 V lie in <I, O>.  I sends
       i+1 to 2(i+1) and V sends it to -(i+1), both mod m = 2n+1, so
       I^j = V exactly when 2^j = -1 (mod m).  With r the order of I,
       which is that of 2 mod m, the cyclic group of the powers of 2
       holds an element of order 2 only when r is even, and then only
       2^(r/2).  So V lies in <I> exactly when 2^(r//2) = -1 (mod m), and
       this arithmetic runs before the membership test.  It holds at 2,
       4, 12, 24, every 2^k and about a third of the other sizes, and
       never at n = 3 (mod 4), where <I, O> has index 2: there
       m = 7 (mod 8), so the Jacobi symbols are (2/m) = +1 and
       (-1/m) = -1, and no power of 2 is -1 (mod m).
    2. *Commutator lemma.*  Otherwise, if the certificate proved <L, R>,
       <I, O> is its own :class:`unshuffle.bsgs._SignGroup` by the lemma
       below, and its record names the certificate.  The certificate
       answers only on m >= 8 pairs, so n >= 5, and only with the bound,
       so <L, R> is its bound.  That bound's characters come from the
       signs the certificate walked, without building I or O: sign and
       pair sign are homomorphisms on B_n, and V is the n transpositions
       (i 2n-1-i), each of which fixes its pair.  So I = V L^-1 has
       sign (-1)^n sign(L) and the pair sign of L, and O = V R^-1 likewise
       from R.
    3. *Engine policy.*  Otherwise <I, O> is ``compute_group``'s: at
       2n = 6 and 14, the only rule that builds I and O.

    The sign row is :func:`computed_parity_row`'s, read off the signs
    that the certificate's bound walked where it answered, so there L and
    R are walked once, and I and O not at all.

    *Lemma.*  Let B_n be the centrally symmetric permutations and
    B_n' = [B_n, B_n] = E : A_n, with E the even flip vectors.  B_n / B_n'
    is Z_2^2, whose four characters are the ones ``_SignGroup`` counts,
    and B_n' is perfect for n >= 5.  A group G in B_n contains B_n'
    exactly when G equals its sign bound.  The bound, the intersection of
    the kernels of the characters trivial on G's generators, contains
    B_n', so G contains B_n' when it is the bound.  Conversely, a group
    between B_n' and B_n is the preimage of a subgroup of Z_2^2, which is
    cut out by the characters trivial on it, so G is then its bound.
    V is the mirror i -> 2n-1-i itself, with which every element of B_n
    commutes, so V is central in B_n.  I = V L^-1 and
    O = V R^-1, so <I, O><V> = <L, R><V> = M, and since V is central, all
    three groups have the same commutator subgroup [M, M].  If <L, R>
    contains B_n', then <I, O> contains [M, M], which contains
    [B_n', B_n'] = B_n'.  The argument holds with the families swapped, so
    <L, R> contains B_n' exactly when <I, O> does, each exactly when it
    equals its bound.  So where <L, R> falls below its bound, <I, O> does
    too, and :func:`unshuffle.bsgs._certified_group`, which answers only
    with the bound, would give None for it.
    """
    unshuffles = family_generators("unshuffle", deck_size)
    engine, group = compute_group(unshuffles)
    r = shuffle_order("I", deck_size)
    if pow(2, r // 2, deck_size + 1) == deck_size and shuffle_permutation("V", deck_size) in group:
        derived = engine, group
    elif engine == "certificate":
        v_sign = -1 if deck_size // 2 % 2 else 1
        derived = engine, _SignGroup(deck_size, True, [(v_sign * s, p) for s, p in group.signs])
    else:
        derived = compute_group(family_generators("perfect", deck_size))
    signs = group.signs if engine == "certificate" else [_signs(g.image, True) for g in unshuffles]
    return {"unshuffle": (engine, group), "perfect": derived}, _row(signs), unshuffles


def verify_deck_size(deck_size: int, family: str) -> VerificationRecord:
    """Recompute one group order and compare against the prediction.

    ``match`` says that three things agree: the computed order with the
    predicted one, the computed signs with :func:`parity_row`, and, where
    the kernel is computed (the unshuffle family wherever
    :func:`predict_group` gives a ``kernel_order``), its order with the
    predicted one.  The group and the signs come from one record per deck
    size, ``_deck_groups``: :func:`compute_group`'s group for <L, R>, and
    for <I, O> mostly <L, R>'s own or read off its proof, so a call for
    either family proves <L, R> first.  ``engine_used`` names the engine
    that answered; the prediction only supplies the expected value.
    """
    prediction = predict_group(family, deck_size)
    families, parities, unshuffles = _deck_groups(deck_size)
    engine_used, group = families[family]

    kernel_predicted = prediction.kernel_order if family == "unshuffle" else None
    kernel_computed = None if kernel_predicted is None else pair_kernel_order(unshuffles, group)

    return VerificationRecord(
        two_n=deck_size,
        family=family,
        engine_used=engine_used,
        computed_order=group.order,
        predicted_order=prediction.order,
        predicted_order_factored=prediction.order_factored,
        match=(
            group.order == prediction.order
            and parities == parity_row(deck_size // 2)
            and kernel_computed == kernel_predicted
        ),
        parities=parities,
        kernel_order_computed=kernel_computed,
        kernel_order_predicted=kernel_predicted,
    )


def verify_deck_sizes(deck_sizes) -> list[VerificationRecord]:
    """Verification records for both families at each deck size, sorted by
    deck size then family name, so equal inputs give identical output."""
    sizes = sorted({check_deck_size(s) for s in deck_sizes})
    records = []
    for deck_size in sizes:
        for family in sorted(FAMILIES):
            records.append(verify_deck_size(deck_size, family))
    return records
