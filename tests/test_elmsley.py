import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unshuffle.elmsley import MAX_LOG_DECK, perfect_elmsley_word, unshuffle_swap_word
from unshuffle.perm import Permutation
from unshuffle.shuffles import format_word, shuffle_permutation, word_permutation


def xor_permutation(mask: int, degree: int) -> Permutation:
    return Permutation(x ^ mask for x in range(degree))


def letter_form(letter: str, k: int) -> tuple[int, int]:
    # the module docstring's affine form (b, j) of L or R on 2^k cards
    return (2 ** (k - 1) - 1 if letter == "L" else 2**k - 1), k - 1


def affine_image(form, k: int, x: int) -> int:
    # x -> rot^j(x) xor b on k-bit labels, rot the left rotation by one bit
    b, j = form
    return (((x << j) | (x >> (k - j))) & ((1 << k) - 1)) ^ b


def affine_then(p, q, k: int):
    # performing p and then q: (rot^jq(bp) xor bq, jp + jq)
    return affine_image(q, k, p[0]), (p[1] + q[1]) % k


class TestBitRule:
    """The affine forms the swap word's proof starts from."""

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("letter", "LR")
    def test_matches_modular_form(self, letter, k):
        # the form agrees with the mod 2n+1 / mod 2n-1 closed forms at every
        # position, and its k-th power, composed in the affine algebra, is
        # the k-th power of the shuffle: the identity exactly when pick
        # starts from this letter (L at odd k, R at even k)
        size = 1 << k
        form = letter_form(letter, k)
        p = shuffle_permutation(letter, size)
        assert p.image == tuple(affine_image(form, k, x) for x in range(size))
        power = (0, 0)
        for _ in range(k):
            power = affine_then(power, form, k)
        assert word_permutation(letter * k, size).image == tuple(
            affine_image(power, k, x) for x in range(size)
        )
        assert (power == (0, 0)) == (letter == ("L" if k % 2 else "R"))

    def test_frozen_three_bit_example(self):
        assert shuffle_permutation("L", 8)(0b101) == 0b101
        assert shuffle_permutation("R", 8)(0b101) == 0b001
        # b_R = b_L xor 2^(k-1): L and R differ in the top bit of every image
        for k in range(1, 9):
            left, right = (shuffle_permutation(x, 1 << k) for x in "LR")
            assert all(left(x) ^ right(x) == 2 ** (k - 1) for x in range(1 << k))


class TestSwapWords:
    def test_frozen_instances(self):
        assert format_word(unshuffle_swap_word(0, 5, 3)) == "RLR"
        assert format_word(unshuffle_swap_word(6, 11, 4)) == "LRLL"
        assert format_word(unshuffle_swap_word(0, 0, 3)) == "LLL"

    @pytest.mark.parametrize("k", range(1, 6))
    def test_exhaustive_small(self, k):
        # the word must exchange cards i and j; what it does besides is not
        # promised, but in fact every card moves by the same xor mask
        size = 1 << k
        for i in range(size):
            for j in range(size):
                word = unshuffle_swap_word(i, j, k)
                assert len(word) == k
                assert all(s.letter in "LR" and not s.inverted for s in word)
                p = word_permutation(word, size)
                assert p(i) == j and p(j) == i
                assert p == xor_permutation(i ^ j, size)

    @given(st.integers(min_value=6, max_value=10), st.integers(min_value=0, max_value=2**32))
    def test_random_large(self, k, seed):
        rng = random.Random(seed)
        size = 1 << k
        i, j = rng.randrange(size), rng.randrange(size)
        p = word_permutation(unshuffle_swap_word(i, j, k), size)
        assert p(i) == j and p(j) == i
        assert p == xor_permutation(i ^ j, size)

    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda k: st.tuples(st.just(k),
                            st.integers(min_value=0, max_value=2**k - 1),
                            st.integers(min_value=0, max_value=2**k - 1),
                            st.integers(min_value=0, max_value=2**k - 1))
    ))
    def test_word_depends_only_on_xor(self, kabx):
        k, a, b, x = kabx
        # shifting both endpoints by the same XOR mask keeps the word
        assert unshuffle_swap_word(a, b, k) == unshuffle_swap_word(a ^ x, b ^ x, k)

    def test_rejects(self):
        with pytest.raises(ValueError):
            unshuffle_swap_word(0, 1, 0)
        with pytest.raises(ValueError):
            unshuffle_swap_word(0, 1, MAX_LOG_DECK + 1)
        with pytest.raises(ValueError):
            unshuffle_swap_word(0, 8, 3)
        with pytest.raises(ValueError):
            unshuffle_swap_word(-1, 0, 3)


class TestPerfectElmsley:
    def test_frozen_instances(self):
        assert format_word(perfect_elmsley_word(5, 8)) == "IOI"
        assert perfect_elmsley_word(0, 8) == ()
        assert format_word(perfect_elmsley_word(1, 8)) == "I"
        assert format_word(perfect_elmsley_word(6, 52)) == "IIO"

    @pytest.mark.parametrize("size", [2, 4, 6, 8, 10, 16, 30, 64])
    def test_all_targets(self, size):
        for target in range(size):
            word = perfect_elmsley_word(target, size)
            assert word_permutation(word, size)(0) == target

    def test_word_length_is_bit_length(self):
        for target in range(1, 64):
            assert len(perfect_elmsley_word(target, 64)) == target.bit_length()

    def test_rejects(self):
        with pytest.raises(ValueError):
            perfect_elmsley_word(8, 8)
        with pytest.raises(ValueError):
            perfect_elmsley_word(-1, 8)
        with pytest.raises(ValueError):
            perfect_elmsley_word(0, 7)
