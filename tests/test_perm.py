import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unshuffle.perm import Permutation, _cycle_type, _signs, random_centrally_symmetric


def perms(max_degree=30):
    return (
        st.integers(min_value=1, max_value=max_degree)
        .flatmap(lambda d: st.permutations(list(range(d))))
        .map(Permutation)
    )


@st.composite
def perm_pairs(draw, max_degree=20):
    d = draw(st.integers(min_value=1, max_value=max_degree))
    p = Permutation(draw(st.permutations(list(range(d)))))
    q = Permutation(draw(st.permutations(list(range(d)))))
    return p, q


@st.composite
def perm_triples(draw, max_degree=15):
    d = draw(st.integers(min_value=1, max_value=max_degree))
    return tuple(
        Permutation(draw(st.permutations(list(range(d))))) for _ in range(3)
    )


@st.composite
def symmetric_pairs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return random_centrally_symmetric(rng, n), random_centrally_symmetric(rng, n)


class TestConstruction:
    def test_identity(self):
        assert Permutation.identity(4).image == (0, 1, 2, 3)
        assert Permutation.identity(1).is_identity()

    def test_identity_needs_positive_degree(self):
        with pytest.raises(ValueError):
            Permutation.identity(0)

    @pytest.mark.parametrize(
        "bad",
        [[], [0, 0], [1, 2], [0, 2], [-1, 0], [0.5, 1.5]],
    )
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    @pytest.mark.parametrize("bad", [[True, False], [0, True]])
    def test_rejects_bool_entries(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_immutable(self):
        p = Permutation([1, 0])
        with pytest.raises(AttributeError):
            p.image = (0, 1)

    def test_equality_and_hash(self):
        assert Permutation([1, 0]) == Permutation((1, 0))
        assert Permutation([1, 0]) != Permutation([0, 1])
        assert len({Permutation([1, 0]), Permutation([1, 0])}) == 1


class TestComposition:
    def test_left_to_right(self):
        # p sends 0 to 1, q sends 1 to 2, so p*q sends 0 to 2
        p = Permutation([1, 0, 2])
        q = Permutation([0, 2, 1])
        assert (p * q)(0) == 2

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation([1, 0]) * Permutation([0, 1, 2])

    @given(perm_triples())
    def test_associative(self, ps):
        p, q, r = ps
        assert (p * q) * r == p * (q * r)

    @given(perms())
    def test_identity_neutral(self, p):
        e = Permutation.identity(p.degree)
        assert p * e == p
        assert e * p == p

    @given(perms())
    def test_inverse_cancels(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_inverse_frozen(self):
        assert Permutation([2, 5, 1, 4, 0, 3]).inverse().image == (4, 2, 0, 5, 3, 1)

    @given(perm_pairs())
    def test_inverse_antihomomorphism(self, pq):
        p, q = pq
        assert (p * q).inverse() == q.inverse() * p.inverse()


class TestPowers:
    @given(perms(), st.integers(min_value=-6, max_value=6))
    def test_pow_matches_repeated_product(self, p, k):
        base = p if k >= 0 else p.inverse()
        expected = Permutation.identity(p.degree)
        for _ in range(abs(k)):
            expected = expected * base
        assert p**k == expected

    @given(perms(max_degree=12), st.integers(-8, 8), st.integers(-8, 8))
    def test_pow_adds_exponents(self, p, a, b):
        assert p**a * p**b == p ** (a + b)

    def test_pow_zero_and_negative_one(self):
        p = Permutation([2, 5, 1, 4, 0, 3])
        assert (p**0).is_identity()
        assert p**-1 == p.inverse()


class TestCyclesAndOrder:
    def test_cycles_frozen(self):
        assert Permutation([2, 5, 1, 4, 0, 3]).cycles() == [(0, 2, 1, 5, 3, 4)]
        assert Permutation([1, 0, 2, 4, 3]).cycles() == [(0, 1), (3, 4)]
        assert Permutation.identity(5).cycles() == []

    def test_order_frozen(self):
        assert Permutation([2, 5, 1, 4, 0, 3]).order() == 6
        assert Permutation([5, 2, 4, 1, 3, 0]).order() == 4
        assert Permutation.identity(7).order() == 1

    @given(perms(max_degree=8))
    def test_order_is_least_annihilating_exponent(self, p):
        k = p.order()
        assert (p**k).is_identity()
        for smaller in range(1, k):
            assert not (p**smaller).is_identity()

    @given(perms())
    def test_order_matches_cycle_lcm(self, p):
        lengths = [len(c) for c in p.cycles()]
        assert p.order() == math.lcm(*lengths) if lengths else p.order() == 1


def brute_cycle_type(image):
    # every cycle as a point set, found by applying image until it returns,
    # by smallest point, with whether the set holds that point's mirror
    d = len(image)
    cycles = {}
    for x in range(d):
        cycle, y = {x}, image[x]
        while y != x:
            cycle.add(y)
            y = image[y]
        cycles[min(cycle)] = cycle
    return [(len(c), d - 1 - first in c) for first, c in sorted(cycles.items())]


def brute_pair_cycle_type(p):
    # every cycle of the pair permutation as a set, by smallest pair x, with
    # whether p to the cycle's length sends x to its mirror, not to itself
    pairs = p.pair_permutation().image
    out, seen = [], set()
    for x in range(len(pairs)):
        if x in seen:
            continue
        cycle, y = {x}, pairs[x]
        while y != x:
            cycle.add(y)
            y = pairs[y]
        seen |= cycle
        out.append((len(cycle), (p ** len(cycle))(x) != x))
    return out


class CountedImage(tuple):
    """An image tuple that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        type(self).reads += 1
        return tuple.__getitem__(self, i)


class TestCycleType:
    def test_two_points(self):
        assert list(_cycle_type((0, 1))) == [(1, False), (1, False)]
        assert list(_cycle_type((1, 0))) == [(2, True)]

    def test_middle_point_is_its_own_mirror(self):
        assert list(_cycle_type((0,))) == [(1, True)]
        assert list(_cycle_type((2, 1, 0))) == [(2, True), (1, True)]

    def test_mostly_fixed_points(self):
        image = list(range(50))
        image[3], image[46] = 46, 3  # a mirrored 2-cycle
        image[5], image[7], image[9] = 7, 9, 5  # an unmirrored 3-cycle
        expected = brute_cycle_type(image)
        assert list(_cycle_type(tuple(image))) == expected
        assert len(expected) == 50 - 1 - 2
        assert sorted(expected, reverse=True)[:2] == [(3, False), (2, True)]

    @given(perms(max_degree=60))
    def test_matches_brute_force(self, p):
        assert list(_cycle_type(p.image)) == brute_cycle_type(p.image)

    @given(symmetric_pairs(max_n=30))
    def test_matches_brute_force_on_symmetric(self, pq):
        for p in pq:
            assert list(_cycle_type(p.image)) == brute_cycle_type(p.image)

    @pytest.mark.parametrize("n", [1, 2, 3, 13, 100])
    def test_pair_walk_matches_brute_force(self, n):
        # (pair length, flipped) per pair cycle, against the pair
        # permutation's cycles and a power of p, with the identity and V
        rng = random.Random(n)
        identity, reversal = Permutation.identity(2 * n), Permutation(range(2 * n - 1, -1, -1))
        assert list(_cycle_type(identity.image, True)) == [(1, False)] * n
        assert list(_cycle_type(reversal.image, True)) == [(1, True)] * n
        images = [identity, reversal] + [random_centrally_symmetric(rng, n) for _ in range(40)]
        flips = set()
        for p in images:
            pair_cycles = list(_cycle_type(p.image, True))
            assert pair_cycles == brute_pair_cycle_type(p)
            # one step per pair, and the sign and pair sign of the point walk
            assert sum(length for length, _ in pair_cycles) == n
            assert _signs(p.image, True) == _signs(p.image) == (p.parity(), p.pair_parity())
            flips.update(flip for _, flip in pair_cycles)
        assert flips == {False, True}

    @pytest.mark.parametrize("paired", [False, True])
    def test_lazy(self, paired):
        # the first cycle, a fixed point, comes out after one read
        CountedImage.reads = 0
        walk = _cycle_type(CountedImage(range(1000)), paired)
        assert next(walk) == (1, False) and CountedImage.reads == 1
        assert len(list(walk)) == (499 if paired else 999)


class TestParity:
    def test_parity_frozen(self):
        assert Permutation.identity(6).parity() == 1
        assert Permutation([1, 0, 2]).parity() == -1
        assert Permutation([1, 2, 0]).parity() == 1
        # a 6-cycle is odd
        assert Permutation([2, 5, 1, 4, 0, 3]).parity() == -1

    @given(perm_pairs())
    def test_parity_is_homomorphism(self, pq):
        p, q = pq
        assert (p * q).parity() == p.parity() * q.parity()

    @given(perms())
    def test_parity_of_inverse(self, p):
        assert p.inverse().parity() == p.parity()


class TestCentralSymmetry:
    def test_detection(self):
        assert Permutation([3, 2, 1, 0]).is_centrally_symmetric()
        assert Permutation([2, 5, 1, 4, 0, 3]).is_centrally_symmetric()
        assert not Permutation([1, 0, 2, 3]).is_centrally_symmetric()
        # odd degree never qualifies
        assert not Permutation([1, 0, 2]).is_centrally_symmetric()

    def test_pair_permutation_frozen(self):
        assert Permutation([2, 5, 1, 4, 0, 3]).pair_permutation().image == (2, 0, 1)
        assert Permutation([3, 2, 1, 0]).pair_permutation().image == (0, 1)

    def test_pair_permutation_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Permutation([1, 0, 2, 3]).pair_permutation()

    def test_pair_parity_frozen(self):
        # pair images (2, 0, 1), a 3-cycle; (0, 1); (1, 0); and (0,)
        assert Permutation([2, 5, 1, 4, 0, 3]).pair_parity() == 1
        assert Permutation([3, 2, 1, 0]).pair_parity() == 1
        assert Permutation([1, 0, 3, 2]).pair_parity() == -1
        assert Permutation([1, 0]).pair_parity() == 1
        # one flipped pair: an odd permutation whose pair action is trivial
        flip = Permutation([3, 1, 2, 0])
        assert (flip.parity(), flip.pair_parity()) == (-1, 1)

    def test_pair_parity_is_sign_of_pair_permutation(self):
        rng = random.Random(14)
        for n in range(1, 61):
            for _ in range(5):
                p = random_centrally_symmetric(rng, n)
                assert p.pair_parity() == p.pair_permutation().parity(), p

    def test_pair_parity_rejects_asymmetric(self):
        for image in ([1, 0, 2, 3], [1, 0, 2], [0]):
            with pytest.raises(ValueError):
                Permutation(image).pair_parity()

    @given(symmetric_pairs())
    def test_symmetric_permutations_closed_under_product(self, pq):
        p, q = pq
        assert (p * q).is_centrally_symmetric()
        assert p.inverse().is_centrally_symmetric()

    @given(symmetric_pairs())
    def test_pair_action_is_homomorphism(self, pq):
        p, q = pq
        assert (p * q).pair_permutation() == p.pair_permutation() * q.pair_permutation()

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=2**32))
    def test_random_generator_always_symmetric(self, n, seed):
        p = random_centrally_symmetric(random.Random(seed), n)
        assert p.degree == 2 * n
        assert p.is_centrally_symmetric()

    def test_random_generator_deterministic_given_seed(self):
        a = random_centrally_symmetric(random.Random(7), 5)
        b = random_centrally_symmetric(random.Random(7), 5)
        assert a == b


class TestArrangement:
    def test_frozen(self):
        assert Permutation([2, 5, 1, 4, 0, 3]).arrangement() == (4, 2, 0, 5, 3, 1)

    @given(perms())
    def test_arrangement_is_inverse_image(self, p):
        arr = p.arrangement()
        assert all(arr[p(i)] == i for i in range(p.degree))


class TestTextForms:
    def test_image_text_round_trip(self):
        p = Permutation([2, 5, 1, 4, 0, 3])
        assert p.to_image_text() == "2,5,1,4,0,3"
        assert Permutation.from_image_text("2,5,1,4,0,3") == p
        assert Permutation.from_image_text(" 1,0 ") == Permutation([1, 0])

    @pytest.mark.parametrize(
        "bad",
        ["", "1,2,x", "0;1", "1 0", "\u0661,0", "\uff11,0", "+1,0", "1_0,0", "1,0\u2003", "0,0"],
    )
    def test_image_text_rejects(self, bad):
        # "0,0" parses as numbers but sends both positions to 0
        with pytest.raises(ValueError, match="bad image text"):
            Permutation.from_image_text(bad)

    def test_cycle_text_frozen(self):
        assert Permutation([2, 5, 1, 4, 0, 3]).to_cycle_text() == "(0 2 1 5 3 4)"
        assert Permutation([1, 0, 2, 4, 3]).to_cycle_text() == "(0 1)(3 4)"
        assert Permutation.identity(4).to_cycle_text() == "()"

    def test_cycle_text_parsing(self):
        assert Permutation.from_cycle_text("(0 2 1 5 3 4)", 6).image == (2, 5, 1, 4, 0, 3)
        assert Permutation.from_cycle_text("()", 3).is_identity()
        assert Permutation.from_cycle_text("(0 1)(3 4)", 5) == Permutation([1, 0, 2, 4, 3])

    @pytest.mark.parametrize(
        "bad, degree",
        [
            ("(0 9)", 4), ("(0 1)(1 2)", 4), ("(0 0)", 4), ("0 1", 2), ("(0 1", 2), ("", 2),
            ("(\u0661 2)", 4), ("(0\u20031)", 4), ("(0 1) (2 3)", 4),
        ],
    )
    def test_cycle_text_rejects(self, bad, degree):
        with pytest.raises(ValueError):
            Permutation.from_cycle_text(bad, degree)

    @given(perms(max_degree=12))
    def test_cycle_text_round_trip(self, p):
        assert Permutation.from_cycle_text(p.to_cycle_text(), p.degree) == p

    @given(perms(max_degree=40))
    def test_image_text_round_trip_property(self, p):
        assert Permutation.from_image_text(p.to_image_text()) == p

