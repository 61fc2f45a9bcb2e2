import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unshuffle.perm import Permutation, _compose, _invert
from unshuffle.shuffles import (
    LETTERS,
    MAX_DECK,
    Step,
    _gather,
    as_word,
    check_deck_size,
    deal_permutation,
    format_word,
    invert_word,
    multiplicative_order,
    parse_word,
    shuffle_order,
    shuffle_permutation,
    walk_deck,
    word_permutation,
    word_power,
)

# Hand-dealt six-card decks, worked out with physical cards.  The deck
# 0,1,2,3,4,5 becomes 4,2,0,5,3,1 under L and 5,3,1,4,2,0 under R; the
# image maps below are the inverses of those arrangements.
SIX_CARD_IMAGES = {
    "L": (2, 5, 1, 4, 0, 3),
    "R": (5, 2, 4, 1, 3, 0),
    "I": (1, 3, 5, 0, 2, 4),
    "O": (0, 2, 4, 1, 3, 5),
    "V": (5, 4, 3, 2, 1, 0),
}

deck_sizes = st.integers(min_value=1, max_value=100).map(lambda n: 2 * n)


def words(alphabet=LETTERS, max_size=10):
    step = st.tuples(st.sampled_from(alphabet), st.booleans()).map(lambda t: Step(*t))
    return st.lists(step, max_size=max_size).map(tuple)


class TestSingleShuffles:
    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_six_cards_frozen(self, letter):
        assert shuffle_permutation(letter, 6).image == SIX_CARD_IMAGES[letter]

    def test_two_cards(self):
        # degenerate deck: dealing one card per pile, L restacks in order
        assert shuffle_permutation("L", 2).is_identity()
        assert shuffle_permutation("R", 2).image == (1, 0)
        assert shuffle_permutation("I", 2).image == (1, 0)
        assert shuffle_permutation("O", 2).is_identity()

    def test_six_card_arrangements(self):
        assert shuffle_permutation("L", 6).arrangement() == (4, 2, 0, 5, 3, 1)
        assert shuffle_permutation("R", 6).arrangement() == (5, 3, 1, 4, 2, 0)

    def test_step_objects_and_inverses(self):
        assert shuffle_permutation(Step("L"), 6).image == SIX_CARD_IMAGES["L"]
        inv = shuffle_permutation(Step("L", inverted=True), 6)
        assert inv == shuffle_permutation("L", 6).inverse()
        assert inv.image == (4, 2, 0, 5, 3, 1)

    def test_step_rejects_other_letters(self):
        with pytest.raises(ValueError, match="unknown shuffle letter 'X'"):
            Step("X")

    @pytest.mark.parametrize("bad", ["", "IO", "LR"])
    def test_step_takes_exactly_one_letter(self, bad):
        # "IO" is a substring of LRIOV, but it would print as IO and parse
        # back as two steps
        with pytest.raises(ValueError, match="unknown shuffle letter"):
            Step(bad)
        with pytest.raises(ValueError, match="unknown shuffle letter"):
            shuffle_permutation(bad, 6)

    @pytest.mark.parametrize("size", [2, 4, 6, 8, 10, 26, 52, 100])
    def test_closed_forms_match_dealing(self, size):
        assert shuffle_permutation("L", size) == deal_permutation("left", size)
        assert shuffle_permutation("R", size) == deal_permutation("right", size)

    @pytest.mark.parametrize("size", [2, 4, 6, 8, 12, 52, 100])
    def test_closed_forms_match_interleaving(self, size):
        # literal faro: cut in half, alternate cards from the two halves
        n = size // 2
        out_arrangement = [c for i in range(n) for c in (i, n + i)]
        in_arrangement = [c for i in range(n) for c in (n + i, i)]
        for letter, arrangement in (("O", out_arrangement), ("I", in_arrangement)):
            image = [0] * size
            for position, card in enumerate(arrangement):
                image[card] = position
            assert shuffle_permutation(letter, size) == Permutation(image)

    def test_reversal(self):
        for size in (2, 8, 50):
            assert shuffle_permutation("V", size).image == tuple(reversed(range(size)))

    @given(deck_sizes)
    def test_all_shuffles_centrally_symmetric(self, size):
        for letter in LETTERS:
            assert shuffle_permutation(letter, size).is_centrally_symmetric()

    def test_deal_permutation_validates(self):
        with pytest.raises(ValueError):
            deal_permutation("middle", 6)


def point_forms(size):
    """The modular closed forms of the module docstring, one point at a
    time, and their inverses, keyed by step text ("L", "L'", ...).  The
    inverses use n * -2 = 1 (mod 2n+1), (n-1) * -2 = 1 (mod 2n-1), and
    2 * (n+1) = 1 (mod 2n+1) and 2 * n = 1 (mod 2n-1); R swaps 0 and 2n-1."""
    n = size // 2
    return {
        "L": lambda i: (n * i + n - 1) % (size + 1),
        "R": lambda i: size - 1 if i == 0 else (n - 1) * i % (size - 1),
        "I": lambda i: (2 * i + 1) % (size + 1),
        "O": lambda i: size - 1 if i == size - 1 else 2 * i % (size - 1),
        "V": lambda i: size - 1 - i,
        "L'": lambda j: -2 * (j - n + 1) % (size + 1),
        "R'": lambda j: 0 if j == size - 1 else size - 1 if j == 0 else -2 * j % (size - 1),
        "I'": lambda j: (j - 1) * (n + 1) % (size + 1),
        "O'": lambda j: size - 1 if j == size - 1 else n * j % (size - 1),
        "V'": lambda j: size - 1 - j,
    }


def closed_form(letter, size):
    """The modular closed forms of the module docstring, point by point."""
    return tuple(map(point_forms(size)[letter], range(size)))


def dealt_piles(size):
    """Deal a sorted deck card by card, the top card to the left pile,
    each card landing on top of its pile; each pile listed top to bottom."""
    left, right = [], []
    for card in range(size):
        (left if card % 2 == 0 else right).insert(0, card)
    return left, right


ALL_SIZES = range(2, 1001, 2)


class TestImages:
    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_forward_images_are_the_closed_forms(self, letter):
        for size in ALL_SIZES:
            assert shuffle_permutation(letter, size).image == closed_form(letter, size), size

    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_inverted_images_invert_the_forward_ones(self, letter):
        for size in ALL_SIZES:
            inverse = shuffle_permutation(Step(letter, inverted=True), size).image
            assert inverse == _invert(shuffle_permutation(letter, size).image), size

    def test_inverse_unshuffles_stack_the_dealt_piles(self):
        # the stacked deck listing is the arrangement, which is the inverse
        # image map that deal_permutation inverts
        for size in ALL_SIZES:
            left, right = dealt_piles(size)
            inverse_left = shuffle_permutation(Step("L", inverted=True), size)
            inverse_right = shuffle_permutation(Step("R", inverted=True), size)
            assert inverse_left.image == tuple(left + right), size
            assert inverse_right.image == tuple(right + left), size
            assert inverse_left == deal_permutation("left", size).inverse()
            assert inverse_right == deal_permutation("right", size).inverse()

    def test_gather_reads_any_sequence_at_the_image(self):
        # x[s(i)] is "do s, then x"; a random x shows the slices take x's
        # entries, not their positions.  At 2 and 4 cards the n-1 slice
        # bounds reach 0
        rng = random.Random(17)
        for size in range(2, 201, 2):
            x = tuple(rng.sample(range(size), size))
            for letter in LETTERS:
                for inverted in (False, True):
                    image = shuffle_permutation(Step(letter, inverted), size).image
                    expected = _compose(image, x)
                    assert tuple(_gather(x, letter, inverted)) == expected, (letter, inverted, size)

    def test_no_image_is_kept(self):
        # a cache of images at this size would keep about 0.6 MB per entry
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(20):
                step = Step(LETTERS[k % 5], inverted=k % 2 == 1)
                shuffle_permutation(step, (1 << 14) + 2 * k)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20


class TestDeckSizeValidation:
    @pytest.mark.parametrize("bad", [0, 1, 7, -2, 2.0, "6", MAX_DECK + 2])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_deck_size(bad)

    def test_accepts(self):
        assert check_deck_size(2) == 2
        assert check_deck_size(MAX_DECK) == MAX_DECK


TWELVE_STEPS = "LRIOVL'R'I'O'VRL"


class TestWords:
    def test_parse_frozen(self):
        assert parse_word("RL'V") == (Step("R"), Step("L", True), Step("V"))
        assert parse_word("") == ()
        assert parse_word(" I O ") == (Step("I"), Step("O"))

    @pytest.mark.parametrize("bad", ["'", "L x", "lr", "2L"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_word(bad)

    def test_repeated_primes_toggle(self):
        assert parse_word("L''") == (Step("L"),)
        assert parse_word("L'''") == (Step("L", True),)

    @given(words())
    def test_format_parse_round_trip(self, word):
        assert parse_word(format_word(word)) == word

    def test_as_word_accepts_both_forms(self):
        assert as_word("RL'") == as_word((Step("R"), Step("L", True)))

    @given(words(max_size=6), deck_sizes)
    def test_word_is_product_of_steps(self, word, size):
        expected = Permutation.identity(size)
        for step in word:
            expected = expected * shuffle_permutation(step, size)
        assert word_permutation(word, size) == expected

    @given(words(max_size=6), deck_sizes)
    def test_walk_visits_every_prefix(self, word, size):
        prefix = Permutation.identity(size)
        expected = [prefix.arrangement()]
        for step in word:
            prefix = prefix * shuffle_permutation(step, size)
            expected.append(prefix.arrangement())
        assert [tuple(deck) for deck in walk_deck(word, size)] == expected

    @given(words(max_size=6), deck_sizes)
    def test_invert_word_evaluates_to_inverse(self, word, size):
        assert word_permutation(invert_word(word), size) == word_permutation(word, size).inverse()

    @given(words(max_size=4), st.integers(min_value=-3, max_value=3), deck_sizes)
    def test_word_power(self, word, k, size):
        assert word_permutation(word_power(word, k), size) == word_permutation(word, size) ** k

    def test_empty_word_is_identity(self):
        assert word_permutation("", 8).is_identity()

    @pytest.mark.parametrize("size", [2, 4, (1 << 14) + 2, 1 << 16])
    def test_right_to_left_gathers_match_the_walk(self, size):
        # word_permutation gathers right to left from the image; walk_deck
        # gathers left to right from the deck.  Sampled points also follow
        # the closed forms step by step
        p = word_permutation(TWELVE_STEPS, size)
        assert p.arrangement() == tuple(list(walk_deck(TWELVE_STEPS, size))[-1])
        forms = point_forms(size)
        for i in random.Random(size).sample(range(size), min(size, 200)):
            j = i
            for step in parse_word(TWELVE_STEPS):
                j = forms[str(step)](j)
            assert p(i) == j, i

    def test_word_builds_no_image(self):
        # gathers share x's int objects, so the peak stays within twice the
        # result; building each step's image and composing it takes 2.4x
        size = 1 << 16
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = word_permutation(TWELVE_STEPS, size)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.degree == size
        assert peak - before < 2 * (kept - before)

    def test_performance_order_is_left_to_right(self):
        # "RL" must mean R first: card 0 goes to 5 under R, then 5 to 3 under L
        p = word_permutation("RL", 6)
        assert p(0) == 3


class TestIdentities:
    @pytest.mark.parametrize("size", [2, 4, 6, 8, 10, 12, 52, 104])
    def test_reversal_factorizations(self, size):
        v = shuffle_permutation("V", size)
        assert word_permutation("LI", size) == v
        assert word_permutation("IL", size) == v
        assert word_permutation("RO", size) == v
        assert word_permutation("OR", size) == v

    @pytest.mark.parametrize("size", [2, 6, 12, 52])
    def test_faros_in_terms_of_unshuffles(self, size):
        assert shuffle_permutation("I", size) == word_permutation("L'V", size)
        assert shuffle_permutation("O", size) == word_permutation("R'V", size)

    @given(words(max_size=5), deck_sizes)
    def test_reversal_is_central(self, word, size):
        v = (Step("V"),)
        assert word_permutation(word + v, size) == word_permutation(v + word, size)

    @given(deck_sizes)
    def test_reversal_is_involution(self, size):
        assert word_permutation("VV", size).is_identity()


class TestStayStack:
    @given(words(max_size=12), deck_sizes)
    @settings(max_examples=200)
    def test_every_word_centrally_symmetric(self, word, size):
        assert word_permutation(word, size).is_centrally_symmetric()


class TestOrders:
    def test_multiplicative_order_frozen(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(-2, 9) == 3
        assert multiplicative_order(1, 5) == 1
        assert multiplicative_order(-2, 53) == 52

    def test_multiplicative_order_rejects(self):
        with pytest.raises(ValueError):
            multiplicative_order(2, 1)
        with pytest.raises(ValueError):
            multiplicative_order(6, 9)

    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=-20, max_value=20))
    def test_multiplicative_order_is_annihilating(self, modulus, value):
        if math.gcd(value, modulus) != 1:
            with pytest.raises(ValueError):
                multiplicative_order(value, modulus)
        else:
            r = multiplicative_order(value, modulus)
            assert pow(value, r, modulus) == 1 % modulus
            assert all(pow(value, s, modulus) != 1 % modulus for s in range(1, r))

    def test_multiplicative_order_matches_stepping(self):
        # the orders of the shuffles' values and two others, against the
        # powers stepped through one by one, at every modulus in [2, 2000]
        for modulus in range(2, 2001):
            for value in (2, -2, 3, 7):
                if math.gcd(value, modulus) != 1:
                    continue
                x, r = value % modulus, 1
                while x != 1 % modulus:
                    x, r = x * value % modulus, r + 1
                assert multiplicative_order(value, modulus) == r, (value, modulus)

    def test_orders_at_a_million_cards(self):
        orders = {"L": 1048572, "R": 1048570, "I": 1048572, "O": 1048570}
        assert {letter: shuffle_order(letter, 1048572) for letter in orders} == orders

    def test_standard_deck(self):
        assert shuffle_order("L", 52) == 52
        assert shuffle_order("R", 52) == 8

    def test_small_decks(self):
        assert shuffle_order("L", 2) == 1
        assert shuffle_order("R", 2) == 2
        assert shuffle_order("L", 6) == 6
        assert shuffle_order("R", 6) == 4

    @pytest.mark.parametrize("size", [2, 4, 6, 8, 10, 12, 14, 16, 52, 104, 500])
    def test_formula_matches_cycle_structure(self, size):
        for letter in "LRIOV":
            assert shuffle_order(letter, size) == shuffle_permutation(letter, size).order()

    def test_rejects_other_letters(self):
        with pytest.raises(ValueError):
            shuffle_order("X", 8)
