import collections
import contextlib
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unshuffle import bsgs, groups, perm
from unshuffle.bsgs import StabilizerChain, bfs_enumerate
from unshuffle.groups import (
    FAMILIES,
    VerificationRecord,
    compute_group,
    computed_parity_row,
    decimal_text,
    diaconis_words,
    family_generators,
    pair_kernel_order,
    parity_row,
    power_of_two_exponent,
    predict_group,
    substitute_unshuffles,
    verify_deck_size,
    verify_deck_sizes,
)
from unshuffle.perm import random_centrally_symmetric
from unshuffle.shuffles import (
    MAX_DECK,
    Step,
    format_word,
    shuffle_order,
    shuffle_permutation,
    word_permutation,
)


def evaluate(word, size):
    return word_permutation(word, size)


# CPython before 3.10.7 has no int string limit
needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit"
)


@contextlib.contextmanager
def int_str_limit(digits):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def decimal_calls(monkeypatch):
    # every decimal.Decimal made while the test runs, for decimal_text's split
    import decimal

    calls, real = [], decimal.Decimal
    monkeypatch.setattr(decimal, "Decimal", lambda v: calls.append(v) or real(v))
    return calls


class TestFamilies:
    def test_generators_frozen(self):
        left, right = family_generators("unshuffle", 6)
        assert left.image == (2, 5, 1, 4, 0, 3)
        assert right.image == (5, 2, 4, 1, 3, 0)
        inn, out = family_generators("perfect", 6)
        assert inn.image == (1, 3, 5, 0, 2, 4)
        assert out.image == (0, 2, 4, 1, 3, 5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_generators("riffle", 6)
        with pytest.raises(ValueError):
            predict_group("riffle", 6)

    def test_power_of_two_exponent(self):
        assert power_of_two_exponent(1) == 0
        assert power_of_two_exponent(2) == 1
        assert power_of_two_exponent(1024) == 10
        assert power_of_two_exponent(12) is None
        assert power_of_two_exponent(0) is None


ALL = "all centrally symmetric permutations"
BOTH_KERNELS = "intersection of the kernels of sign and pair sign"


class TestPredictions:
    # (family, deck size) -> (case, order, factored form, characterization)
    FROZEN = {
        ("unshuffle", 2): ("power_of_two", 2, "1*2^1", "Z_2^1 : Z_1"),
        ("perfect", 2): ("power_of_two", 2, "1*2^1", "Z_2^1 : Z_1"),
        ("unshuffle", 4): ("power_of_two", 8, "2*2^2", "Z_2^2 : Z_2"),
        ("unshuffle", 6): ("mod3", 48, "3!*2^3", ALL),
        ("perfect", 6): ("mod3", 24, "3!*2^2", "kernel of sign times pair sign"),
        ("unshuffle", 8): ("power_of_two", 24, "3*2^3", "Z_2^3 : Z_3"),
        ("perfect", 8): ("power_of_two", 24, "3*2^3", "Z_2^3 : Z_3"),
        ("unshuffle", 10): ("mod1", 1920, "5!*2^4", "kernel of pair sign"),
        ("perfect", 10): ("mod1", 1920, "5!*2^4", "kernel of pair sign"),
        ("unshuffle", 12): ("special12", 7680, "2^6*120", "Z_2^6 : S_5"),
        ("perfect", 12): ("special12", 7680, "2^6*120", "Z_2^6 : S_5"),
        ("unshuffle", 14): ("mod3", 645120, "7!*2^7", ALL),
        ("perfect", 14): ("mod3", 322560, "7!*2^6", "kernel of sign times pair sign"),
        ("unshuffle", 16): ("power_of_two", 64, "4*2^4", "Z_2^4 : Z_4"),
        ("unshuffle", 20): ("mod2", 3715891200, "10!*2^10", ALL),
        ("perfect", 20): ("mod2", 3715891200, "10!*2^10", ALL),
        ("unshuffle", 24): ("special24", 194641920, "2^11*95040", "Z_2^11 : M_12"),
        ("perfect", 24): ("special24", 194641920, "2^11*95040", "Z_2^11 : M_12"),
        # the first n = 0 (mod 4) off the special sizes: 8, 16 and 32 are
        # powers of two, and 24 is special
        ("unshuffle", 40): ("mod0", math.factorial(20) * 2**18, "20!*2^18", BOTH_KERNELS),
        ("perfect", 40): ("mod0", math.factorial(20) * 2**18, "20!*2^18", BOTH_KERNELS),
        ("unshuffle", 52): ("mod2", math.factorial(26) * 2**26, "26!*2^26", ALL),
        ("perfect", 52): ("mod2", math.factorial(26) * 2**26, "26!*2^26", ALL),
    }

    @pytest.mark.parametrize("family, size", sorted(FROZEN))
    def test_frozen(self, family, size):
        case, order, factored, characterization = self.FROZEN[(family, size)]
        got = predict_group(family, size)
        assert got.case == case
        assert got.order == order
        assert got.order_factored == factored
        assert got.characterization == characterization
        assert got.family == family and got.deck_size == size

    def test_special_sizes_take_precedence(self):
        # 12 and 24 would otherwise land in the mod-residue cases, and 16
        # would land in mod0; the special routing must win
        assert predict_group("unshuffle", 12).case == "special12"
        assert predict_group("unshuffle", 24).case == "special24"
        assert predict_group("unshuffle", 16).case == "power_of_two"

    @pytest.mark.parametrize("size", range(2, 101, 2))
    def test_every_size_routes_somewhere(self, size):
        for family in FAMILIES:
            got = predict_group(family, size)
            assert got.order >= 1
            # the group sits inside the centrally symmetric permutations
            n = size // 2
            assert math.factorial(n) * 2**n % got.order == 0

    def test_families_differ_only_at_mod3(self):
        for size in range(2, 101, 2):
            a = predict_group("unshuffle", size)
            b = predict_group("perfect", size)
            if a.case == "mod3":
                assert a.order == 2 * b.order
            else:
                assert a.order == b.order

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            predict_group("unshuffle", 7)


class TestParities:
    def test_rows_frozen(self):
        assert parity_row(4) == (1, 1, 1, 1)
        assert parity_row(5) == (1, -1, 1, 1)
        assert parity_row(6) == (-1, -1, -1, 1)
        assert parity_row(7) == (-1, 1, 1, -1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parity_row(0)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_computed_matches_predicted(self, n):
        assert computed_parity_row(2 * n) == parity_row(n)

    def test_computed_row_walks_each_generator_once(self, monkeypatch):
        # one cycle walk of L and one of R give both signs of each
        walked = []
        walk = perm._cycle_type
        monkeypatch.setattr(perm, "_cycle_type", lambda image: walked.append(image) or walk(image))
        assert computed_parity_row(58) == parity_row(29)
        left, right = family_generators("unshuffle", 58)
        assert walked == [left.image, right.image]

    def test_computed_once_per_size_in_a_sweep(self, monkeypatch):
        # both families' records at one size share the computed row, which
        # is kept in the one per-size record
        calls = []
        monkeypatch.setattr(
            groups, "computed_parity_row", lambda d: calls.append(d) or computed_parity_row(d)
        )
        groups._deck_groups.cache_clear()
        verify_deck_sizes([18, 20, 22])
        assert calls == [18, 20, 22]


def kernel_order(n: int, family: str = "unshuffle") -> int | None:
    return predict_group(family, 2 * n).kernel_order


class TestKernel:
    def test_rule_applicability(self):
        assert kernel_order(3) is not None
        assert kernel_order(20) is not None
        assert kernel_order(24) is not None
        # powers of two and the two exceptional sizes have no kernel rule
        for n in (1, 2, 4, 6, 8, 12, 16):
            assert kernel_order(n) is None

    def test_predicted_orders(self):
        assert kernel_order(3) == 8
        assert kernel_order(5) == 32
        assert kernel_order(20) == 2**19
        assert kernel_order(24) == 2**23
        # <I, O> at n = 3 (mod 4) has half the kernel, the same pair image
        assert kernel_order(3, "perfect") == 4
        assert kernel_order(7, "perfect") == 2**6

    def test_predicted_rejects_inapplicable(self):
        # 2n = 12, 24 and 2^k, for either family
        for family in FAMILIES:
            for n in (6, 12, 16):
                assert kernel_order(n, family) is None

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_computed_matches_predicted(self, n):
        gens = family_generators("unshuffle", 2 * n)
        assert pair_kernel_order(gens) == kernel_order(n)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_both_families_off_the_special_sizes(self, family):
        checked = 0
        for size in range(6, 61, 2):
            predicted = predict_group(family, size).kernel_order
            if predicted is None:
                continue
            assert pair_kernel_order(family_generators(family, size)) == predicted, size
            checked += 1
        # [6, 60] without 8, 12, 16, 24 and 32
        assert checked == 23

    def test_hundred_cards(self):
        gens = family_generators("unshuffle", 100)
        assert pair_kernel_order(gens) == kernel_order(50) == 2**50

    def test_two_thousand_cards(self):
        # the group and its pair image are both certified, no chain needed
        gens = family_generators("unshuffle", 2002)
        assert pair_kernel_order(gens) == kernel_order(1001) == 2**1001

    def test_known_group_order_shortcut(self):
        gens = family_generators("unshuffle", 6)
        assert pair_kernel_order(gens, group=compute_group(gens)[1]) == 8

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_certificate_gives_the_pair_image(self, family):
        # the kernel read off the certified bound group, against the group
        # order over the order computed from the pair images
        for size in range(18, 61, 2):
            gens = family_generators(family, size)
            engine, group = compute_group(gens)
            if engine != "certificate":
                continue
            images = [g.pair_permutation() for g in gens]
            image_order = compute_group(images)[1].order
            assert pair_kernel_order(gens, group) == group.kernel, size
            assert group.kernel == group.order // image_order, size

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_special_sizes_through_the_chain(self, family):
        # Z_2^6 : S_5 and Z_2^11 : M_12, each as its kernel over its image
        assert pair_kernel_order(family_generators(family, 12)) == 2**6
        assert pair_kernel_order(family_generators(family, 24)) == 2**11

    def test_one_certificate_per_deck_size(self, monkeypatch):
        # both records at a size rest on <L, R>'s certificate, which runs
        # once even at 24, where it fails; at 32 the affine engine answers
        # both families first
        calls = collections.Counter()
        true_certificate = groups._certified_group

        def certificate(gens):
            calls[len(gens[0])] += 1
            return true_certificate(gens)

        monkeypatch.setattr(groups, "_certified_group", certificate)
        groups._deck_groups.cache_clear()
        records = verify_deck_sizes(range(18, 61, 2))
        assert calls == {size: 1 for size in range(18, 61, 2) if size != 32}
        certified = [r for r in records if r.engine_used == "certificate"]
        # [18, 60] without 24 and 32, for both families
        assert len(certified) == 40
        kernels = [r.kernel_order_computed for r in certified if r.family == "unshuffle"]
        assert None not in kernels


def deck_group(size, family="perfect"):
    """One family's group as verify_deck_size reads it: (engine, group)."""
    _, engine, group = groups._deck_groups(size)[0][family]
    return engine, group


def reversal_power(size):
    """I^(r//2), r the order of I, and V: equal exactly when V lies in <I>,
    since <I> is cyclic and V has order 2."""
    r = shuffle_order("I", size)
    return shuffle_permutation("I", size) ** (r // 2), shuffle_permutation("V", size)


def members(group, elements):
    return [p in group for p in elements]


def sample_elements(size, count=40):
    """L, R, I, O and V, the swap of cards 0 and 1, which is not centrally
    symmetric, then seeded random centrally symmetric elements."""
    rng = random.Random(size)
    letters = [shuffle_permutation(x, size) for x in "LRIOV"]
    swap = perm.Permutation.from_cycle_text("(0 1)", size)
    return letters + [swap] + [random_centrally_symmetric(rng, size // 2) for _ in range(count)]


class TestOneProofPerDeckSize:
    """<I, O> by the three rules of groups._deck_groups: <L, R>'s group,
    read off <L, R>'s proof by the lemma there, or the engine policy."""

    def test_reversal_in_the_in_shuffle_by_arithmetic(self):
        # rule 1's test: V is a power of I exactly when 2^(r//2) = -1
        # (mod 2n+1), and never at n = 3 (mod 4)
        found = 0
        for size in range(2, 2001, 2):
            arithmetic = pow(2, shuffle_order("I", size) // 2, size + 1) == size
            power, reversal = reversal_power(size)
            assert arithmetic == (power == reversal), size
            assert not (arithmetic and size // 2 % 4 == 3), size
            found += arithmetic
        assert 0 < found < 1000

    def test_same_group_exactly_where_v_is_a_power_of_i(self):
        # rule 1 over [2, 200] and 2^k up to 1024, where V lies in <L, R>
        # at every size: 12, 24 and every 2^k among the sizes it answers
        for size in [*range(2, 201, 2), 256, 512, 1024]:
            power, reversal = reversal_power(size)
            _, group = deck_group(size, "unshuffle")
            assert reversal in group, size
            assert (deck_group(size)[1] is group) == (power == reversal), size
            if size in (12, 24) or power_of_two_exponent(size) is not None:
                assert power == reversal, size

    def test_derived_group_is_the_certified_one(self):
        for size in range(18, 401, 2):
            if size == 24 or power_of_two_exponent(size) is not None:
                continue
            engine, derived = deck_group(size)
            certified = groups._certified_group(family_generators("perfect", size))
            assert engine == "certificate", size
            assert derived.order == certified.order, size
            assert derived.characters == certified.characters, size

    @pytest.mark.parametrize("size", [18, 20, 22, 40, 102, 398])
    def test_membership_agrees(self, size):
        # n = 9, 10, 11 and 20 cover every n mod 4 against a chain too
        _, derived = deck_group(size)
        gens = family_generators("perfect", size)
        elements = sample_elements(size)
        found = members(derived, elements)
        assert found == members(groups._certified_group(gens), elements)
        if size <= 40:
            assert found == members(StabilizerChain(gens), elements)
        assert True in found and False in found

    @pytest.mark.parametrize("size", [10, 14])
    def test_chain_sizes_agree_with_a_chain(self, size):
        # at 10 <I, O> is <L, R>'s chain (rule 1); at 14 neither rule
        # answers, and the engine policy builds a chain of its own
        engine, derived = deck_group(size)
        chain = StabilizerChain(family_generators("perfect", size))
        assert engine == "schreier"
        assert derived.order == chain.order == predict_group("perfect", size).order
        elements = sample_elements(size)
        assert members(derived, elements) == members(chain, elements)

    @pytest.mark.parametrize("size", [12, 24])
    def test_no_certificate_below_the_bound(self, size):
        # <L, R> falls below its bound, so by the lemma <I, O> does too and
        # its certificate cannot succeed; <I, O> is <L, R>'s chain (rule 1)
        # and decides membership as a chain of I and O does
        gens = family_generators("perfect", size)
        assert groups._certified_group(gens) is None
        engine, derived = deck_group(size)
        assert engine == "schreier"
        assert derived.order == predict_group("perfect", size).order
        elements = sample_elements(size)
        assert members(derived, elements) == members(StabilizerChain(gens), elements)

    def test_engine_work_over_the_sweep(self, monkeypatch):
        # over [2, 52]: one certificate per deck size off 2^k, and two at 6
        # and 14, where <I, O> runs the engine policy (rule 3); <I, O>
        # chains only there.  The <L, R> chains at 6, 10 and 14 take their
        # kernel from a certificate and a chain on their 3, 5 and 7 pairs
        certificates, chains = collections.Counter(), []
        true_certificate, true_chain = groups._certified_group, groups.StabilizerChain

        def certificate(gens):
            certificates[len(gens[0])] += 1
            return true_certificate(gens)

        def chain(gens):
            chains.append(tuple(gens))
            return true_chain(gens)

        def built(family):
            return [
                len(gens[0])
                for gens in chains
                if len(gens[0]) % 2 == 0 and gens == family_generators(family, len(gens[0]))
            ]

        monkeypatch.setattr(groups, "_certified_group", certificate)
        monkeypatch.setattr(groups, "StabilizerChain", chain)
        groups._deck_groups.cache_clear()
        assert all(r.match for r in verify_deck_sizes(range(2, 53, 2)))
        off_two_powers = [d for d in range(6, 53, 2) if power_of_two_exponent(d) is None]
        assert certificates == {
            3: 1, 5: 1, 7: 1, **{d: 1 + (d in (6, 14)) for d in off_two_powers}
        }
        assert built("perfect") == [6, 14]
        assert built("unshuffle") == [6, 10, 12, 14, 24]
        assert sorted(len(gens[0]) for gens in chains) == [3, 5, 6, 6, 7, 10, 12, 14, 14, 24]

    def test_one_factorial_per_deck_size(self, monkeypatch):
        # both sign bounds and both predictions share one n!
        calls = []
        true_factorial = math.factorial
        monkeypatch.setattr(math, "factorial", lambda n: calls.append(n) or true_factorial(n))
        bsgs._factorial.cache_clear()
        groups._deck_groups.cache_clear()
        verify_deck_sizes([2002])
        assert calls == [1001]


class TestClassicWords:
    def test_frozen_strings(self):
        # 24 = 2^3 * 3, so k = 3
        words = diaconis_words(24)
        assert format_word(words["c"]) == "OI'OIO'I'OIO'O'"
        assert len(words["w"]) == 48
        assert format_word(words["w"]) == (
            "O'IOOI'O'IOI'O'IO'O'IOI'OIO'I'OIO'O'OI'OIO'I'OIO'O'I'OOOI'O'IOI'O'IO'I'O"
        )
        assert format_word(words["b"]) == "O'IOOOI'I'I'O'IOOOI'I'I'"
        assert format_word(words["c'"]) == "O" + format_word(words["b"]) + "O'"
        assert format_word(words["h(1)"]) == "O'I"
        assert format_word(words["h(2)"]) == "O'O'II"
        assert set(words) == {"c", "w", "b", "c'", "h(1)", "h(2)"}

    def test_small_k(self):
        # an odd half-deck gives k = 1 and no h(r)
        for size in (6, 10):
            words = diaconis_words(size)
            assert format_word(words["b"]) == "O'IOI'O'IOI'"
            assert set(words) == {"c", "w", "b", "c'"}

    def test_k_from_deck_size(self):
        # k is the exponent of 2 in the deck size: 48 = 2^4 * 3, 40 = 2^3 * 5
        assert format_word(diaconis_words(48)["b"]) == "O'IOOOOI'I'I'I'O'IOOOOI'I'I'I'"
        assert diaconis_words(40)["b"] == diaconis_words(24)["b"]
        assert set(diaconis_words(16)) == {"c", "w", "b", "c'", "h(1)", "h(2)", "h(3)"}

    def test_rejects(self):
        for bad in (None, 0, 7, -2, 6.0, "6", MAX_DECK + 2):
            with pytest.raises(ValueError):
                diaconis_words(bad)

    def test_first_return_word_frozen(self):
        # h(1) first appears at 12 = 2^2 * 3 cards
        got = evaluate(diaconis_words(12)["h(1)"], 6)
        assert got.image == (1, 0, 3, 2, 5, 4)

    @pytest.mark.parametrize("n", [5, 7])
    def test_top_half_invariance(self, n):
        # for odd half-deck sizes, c and w must shuffle the top half of the
        # deck among itself (performance-order evaluation is what makes
        # this work)
        words = diaconis_words(deck_size=2 * n)
        for name in ("c", "w"):
            p = evaluate(words[name], 2 * n)
            assert all(p(i) < n for i in range(n)), name

    @pytest.mark.parametrize("size", range(6, 51, 4))
    def test_c_and_w_generate_the_even_top_half(self, size):
        # for odd n, c and w act on the top half as A_n, and the mirror half
        # follows by central symmetry, so <c, w> has order n!/2
        words = diaconis_words(deck_size=size)
        gens = [evaluate(words[name], size) for name in ("c", "w")]
        assert compute_group(gens)[1].order == math.factorial(size // 2) // 2

    def test_c_and_w_land_in_the_perfect_group(self):
        closure = bfs_enumerate(family_generators("perfect", 10))
        words = diaconis_words(deck_size=10)
        assert evaluate(words["c"], 10) in closure
        assert evaluate(words["w"], 10) in closure


class TestSubstitution:
    def test_frozen(self):
        got = substitute_unshuffles("O'I")
        assert format_word(got.word) == "RL'"
        assert got.leading_reversal is False

        got = substitute_unshuffles("I")
        assert format_word(got.word) == "VL'"
        assert got.leading_reversal is True

        got = substitute_unshuffles("V")
        assert format_word(got.word) == "V"
        assert got.leading_reversal is True

        got = substitute_unshuffles("VV")
        assert got.word == ()
        assert got.leading_reversal is False

    def test_unshuffle_letters_pass_through(self):
        got = substitute_unshuffles("LR'")
        assert format_word(got.word) == "LR'"
        assert got.leading_reversal is False

    def test_result_avoids_faro_letters(self):
        words = diaconis_words(12)
        for word in words.values():
            rewritten = substitute_unshuffles(word).word
            assert all(s.letter in "LRV" for s in rewritten)

    @given(
        st.lists(
            st.tuples(st.sampled_from("IOV"), st.booleans()).map(lambda t: Step(*t)),
            max_size=10,
        ).map(tuple),
        st.integers(min_value=1, max_value=40).map(lambda n: 2 * n),
    )
    @settings(max_examples=150)
    def test_substitution_preserves_permutation(self, word, size):
        got = substitute_unshuffles(word)
        assert evaluate(got.word, size) == evaluate(word, size)
        if not got.leading_reversal:
            assert all(s.letter in "LR" for s in got.word)

    @given(
        st.lists(
            st.tuples(st.sampled_from("LRIOV"), st.booleans()).map(lambda t: Step(*t)),
            max_size=10,
        ).map(tuple),
        st.integers(min_value=1, max_value=40).map(lambda n: 2 * n),
    )
    def test_substitution_handles_mixed_words(self, word, size):
        got = substitute_unshuffles(word)
        assert evaluate(got.word, size) == evaluate(word, size)

    @pytest.mark.parametrize("size", [10, 24])
    def test_classic_words_rewrite_exactly(self, size):
        for name, word in diaconis_words(deck_size=size).items():
            got = substitute_unshuffles(word)
            assert evaluate(got.word, size) == evaluate(word, size), name


class TestVerification:
    @pytest.mark.parametrize("engine, used", [("auto", "schreier"), ("bfs", "bfs")])
    def test_small_deck_engine(self, engine, used):
        # the policy builds the certified chain even where BFS would fit;
        # BFS, called directly, gives the same order and kernel
        gens = family_generators("unshuffle", 6)
        if engine == "bfs":
            engine_used, group = "bfs", bfs_enumerate(gens)
        else:
            engine_used, group = compute_group(gens)
        assert engine_used == used
        assert group.order == 48
        assert pair_kernel_order(gens, group) == 8
        record = verify_deck_size(6, "unshuffle")
        assert record.engine_used == "schreier"
        assert record.computed_order == group.order
        assert record.predicted_order == 48
        assert record.match is True
        assert record.parities == (-1, 1, 1, -1)
        assert record.kernel_order_computed == 8
        assert record.kernel_order_predicted == 8

    def test_large_deck_uses_chain(self):
        # a chain built directly agrees where the policy has a certificate
        record = verify_deck_size(18, "perfect")
        assert record.engine_used == "certificate"
        chain = StabilizerChain(family_generators("perfect", 18))
        assert chain.order == record.computed_order == record.predicted_order
        assert chain.order == math.factorial(9) * 2**8
        assert record.kernel_order_computed is None

    def test_auto_certifies_off_the_special_sizes(self):
        # engine_used is "affine" at 16 and 32, "schreier" at 14 and 24 and
        # "certificate" everywhere else, and each record's order and kernel
        # agree with a chain built directly
        for size in range(14, 37, 2):
            for family in FAMILIES:
                record = verify_deck_size(size, family)
                expected = {16: "affine", 32: "affine", 14: "schreier", 24: "schreier"}.get(
                    size, "certificate"
                )
                assert record.engine_used == expected, (size, family)
                assert record.match, (size, family)
                gens = family_generators(family, size)
                chain = StabilizerChain(gens)
                assert record.computed_order == chain.order, (size, family)
                if record.kernel_order_computed is not None:
                    kernel = pair_kernel_order(gens, chain)
                    assert record.kernel_order_computed == kernel, (size, family)

    def test_kernel_reported_only_when_rule_applies(self):
        assert verify_deck_size(12, "unshuffle").kernel_order_computed is None
        assert verify_deck_size(10, "unshuffle").kernel_order_computed == 32
        assert verify_deck_size(10, "perfect").kernel_order_computed is None

    def test_auto_past_byte_limit_is_affine(self):
        # 256 = 2^8 cards, past BFS's byte packing: auto answers with the
        # affine engine
        record = verify_deck_size(256, "perfect")
        assert record.engine_used == "affine"
        assert record.computed_order == record.predicted_order == 2048

    def test_sweep_orders_and_dedupes(self):
        records = verify_deck_sizes([6, 6, 4])
        assert [(r.two_n, r.family) for r in records] == [
            (4, "perfect"),
            (4, "unshuffle"),
            (6, "perfect"),
            (6, "unshuffle"),
        ]
        assert all(r.match for r in records)


class TestReports:
    def test_to_fields_frozen(self):
        record = VerificationRecord(
            two_n=6,
            family="unshuffle",
            engine_used="schreier",
            computed_order=48,
            predicted_order=48,
            predicted_order_factored="3!*2^3",
            match=True,
            parities=(-1, 1, 1, -1),
            kernel_order_computed=8,
            kernel_order_predicted=8,
        )
        assert record.to_fields() == {
            "two_n": 6,
            "family": "unshuffle",
            "engine_used": "schreier",
            "computed_order": "48",
            "predicted_order": "48",
            "predicted_order_factored": "3!*2^3",
            "match": True,
            "parities": {"sign_L": -1, "sign_R": 1, "pair_sign_L": 1, "pair_sign_R": -1},
            "kernel_order_computed": "8",
            "kernel_order_predicted": "8",
        }

    def test_one_conversion_per_matching_pair(self, monkeypatch):
        converted = []
        true_text = groups.decimal_text
        monkeypatch.setattr(groups, "decimal_text", lambda v: converted.append(v) or true_text(v))
        record = verify_deck_size(2002, "unshuffle")
        assert record.match
        fields = record.to_fields()
        assert converted == [record.computed_order, record.kernel_order_computed]
        assert fields["predicted_order"] == fields["computed_order"] == str(record.computed_order)
        assert fields["kernel_order_predicted"] == str(record.kernel_order_predicted)
        # orders that differ are converted apart
        converted.clear()
        wrong = VerificationRecord(
            record.two_n,
            record.family,
            record.engine_used,
            record.computed_order,
            record.predicted_order + 1,
            record.predicted_order_factored,
            record.match,
            record.parities,
            record.kernel_order_computed,
            record.kernel_order_predicted,
        )
        assert wrong.to_fields()["predicted_order"] == str(record.predicted_order + 1)
        assert len(converted) == 3

    def test_orders_serialize_as_strings(self):
        record = verify_deck_size(52, "unshuffle")
        fields = record.to_fields()
        assert fields["computed_order"] == str(math.factorial(26) * 2**26)
        assert isinstance(fields["predicted_order"], str)

    def test_orders_past_the_int_string_limit(self):
        # from 2n = 2848 on the orders have more than the 4300 digits str()
        # converts by default
        fields = verify_deck_size(2848, "perfect").to_fields()
        assert fields["match"] is True
        assert len(fields["computed_order"]) > 4300
        assert fields["computed_order"] == fields["predicted_order"]
        assert decimal_text(10**5000) == "1" + "0" * 5000

    @needs_int_limit
    def test_decimal_text_past_the_limit_matches_str(self):
        # below the limit str() answers; above it the split conversion must
        # give the same digits, which str() gives once the limit is raised
        values = [10**4299 + 7, 3**9013, -(7**5087), 5**71529 - 1, 2**166096 + 12345]
        texts = [decimal_text(v) for v in values]
        with int_str_limit(60_000):
            assert texts == [str(v) for v in values]

    @needs_int_limit
    def test_decimal_text_path_is_chosen_by_size_not_limit(self, decimal_calls):
        # with the limit lifted str() would answer, in quadratic time; a
        # 5003-digit order still goes through the split
        order = predict_group("unshuffle", 3250).order
        with int_str_limit(0):
            text = decimal_text(order)
            assert text == str(order) and len(text) == 5003
        assert decimal_calls

    @needs_int_limit
    def test_decimal_text_under_the_smallest_limit(self):
        values = [10**699 + 7, 3**9012]
        with int_str_limit(640):
            texts = [decimal_text(v) for v in values]
        assert texts == [str(v) for v in values]
        assert [len(t) for t in texts] == [700, 4300]

    @needs_int_limit
    def test_decimal_text_at_the_2126_bit_bound(self, decimal_calls):
        # 2**2126 < 10**640: the largest str() path and the smallest split
        with int_str_limit(0):
            for v in (2**2126 - 1, -(2**2126 - 1)):
                assert decimal_text(v) == str(v)
            assert not decimal_calls
            for v in (2**2126, -(2**2126)):
                decimal_calls.clear()
                assert decimal_text(v) == str(v)
                assert decimal_calls

    def test_records_to_json(self, run_cli, tmp_path):
        # the verify report holds each record's to_fields, in sweep order,
        # and ends in one newline
        path = tmp_path / "report.json"
        assert run_cli("verify", "--min", 4, "--max", 6, "--out", path)[0] == 0
        text = path.read_text(encoding="utf-8")
        assert text.endswith("]\n")
        parsed = json.loads(text)
        assert [entry["two_n"] for entry in parsed] == [4, 4, 6, 6]
        assert parsed == [r.to_fields() for r in verify_deck_sizes([4, 6])]

    def test_write_report_is_stable(self, run_cli, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli("verify", "--min", 4, "--max", 6, "--out", first)[0] == 0
        assert run_cli("verify", "--min", 4, "--max", 6, "--out", second)[0] == 0
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text(encoding="utf-8"))
