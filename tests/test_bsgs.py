import functools
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup

from unshuffle.bsgs import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    StabilizerChain,
    _affine_form,
    _affine_group,
    _certified_order,
    _order_bound,
    bfs_enumerate,
)
from unshuffle.elmsley import binary_shuffle_image, bits_index, index_bits
from unshuffle.groups import (
    FAMILIES,
    compute_order,
    family_generators,
    group_contains,
    group_order,
    power_of_two_exponent,
    predict_group,
)
from unshuffle.perm import Permutation, random_centrally_symmetric
from unshuffle.shuffles import shuffle_permutation, word_permutation

S3_GENS = [Permutation([1, 0, 2]), Permutation([0, 2, 1])]
A4_GENS = [Permutation([1, 2, 0, 3]), Permutation([0, 2, 3, 1])]


def symmetric_gens(n):
    cycle = Permutation(list(range(1, n)) + [0])
    swap = Permutation([1, 0] + list(range(2, n)))
    return [swap, cycle]


@st.composite
def generator_sets(draw):
    """1-3 generators of degree 2..7.  At even degree each one is either
    centrally symmetric or arbitrary, so the chain meets both kinds of
    order bound and, when the bound is out of reach, its fallback."""
    degree = draw(st.integers(min_value=2, max_value=7))
    gens = []
    for symmetric in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        if symmetric and degree % 2 == 0:
            gens.append(random_centrally_symmetric(draw(st.randoms()), degree // 2))
        else:
            gens.append(Permutation(draw(st.permutations(list(range(degree))))))
    return gens


@st.composite
def certifiable_sets(draw):
    """1-3 generators, either all centrally symmetric on 5..12 pairs or
    arbitrary on 5..16 points: sizes where a witness can exist, so the
    certificate answers for most draws and the chain checks it."""
    rng = draw(st.randoms(use_true_random=False))
    count = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=5, max_value=12))
        return [random_centrally_symmetric(rng, n) for _ in range(count)]
    d = draw(st.integers(min_value=5, max_value=16))
    return [Permutation(rng.sample(range(d), d)) for _ in range(count)]


def symmetric_lift(pair_image, flips, n):
    """The centrally symmetric permutation of 2n points that acts on the
    mirror pairs as pair_image and flips the pairs whose index is in flips."""
    d = 2 * n
    image = [0] * d
    for i in range(n):
        x = pair_image[i]
        image[i] = d - 1 - x if i in flips else x
        image[d - 1 - i] = d - 1 - image[i]
    return Permutation(image)


def psl27_on_projective_line():
    # x -> x + 1, x -> 2x and x -> -1/x on F_7 and infinity (point 7)
    inverse = {x: pow(x, -1, 7) for x in range(1, 7)}
    shift = [(x + 1) % 7 for x in range(7)] + [7]
    scale = [(2 * x) % 7 for x in range(7)] + [7]
    flip = [7] + [(-inverse[x]) % 7 for x in range(1, 7)] + [0]
    return [Permutation(shift), Permutation(scale), Permutation(flip)]


def sympy_order(gens):
    return PermutationGroup([SymPerm(list(g.image)) for g in gens]).order()


class TestBfs:
    def test_symmetric_group(self):
        closure = bfs_enumerate(S3_GENS)
        assert closure.order == 6
        assert closure.degree == 3
        assert set(closure) == set(Permutation(img) for img in
                                   [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])

    def test_contains(self):
        closure = bfs_enumerate(A4_GENS)
        assert closure.order == 12
        assert Permutation([1, 2, 0, 3]) in closure
        # odd permutations are outside the alternating group
        assert Permutation([1, 0, 2, 3]) not in closure

    def test_identity_only(self):
        closure = bfs_enumerate([Permutation.identity(4)])
        assert closure.order == 1

    def test_closure_equality(self):
        assert bfs_enumerate(S3_GENS) == bfs_enumerate(list(reversed(S3_GENS)))
        assert bfs_enumerate(S3_GENS) != bfs_enumerate(A4_GENS)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            bfs_enumerate(symmetric_gens(6), cap=100)

    def test_cap_boundary(self):
        # exactly at the cap is allowed
        assert bfs_enumerate(S3_GENS, cap=6).order == 6
        with pytest.raises(EnumerationCapExceeded):
            bfs_enumerate(S3_GENS, cap=5)
        # the identity is an element too
        assert bfs_enumerate([Permutation.identity(2)], cap=1).order == 1
        with pytest.raises(EnumerationCapExceeded):
            bfs_enumerate([Permutation.identity(2)], cap=0)

    def test_byte_boundary(self):
        # 255 is the last degree whose images fit the 256-byte translate table
        cycle = Permutation(list(range(1, 255)) + [0])
        closure = bfs_enumerate([cycle])
        assert closure.degree == 255
        assert closure.order == 255
        assert set(closure) == {cycle**k for k in range(255)}
        chain = StabilizerChain([cycle])
        outsiders = [
            Permutation([1, 0] + list(range(2, 255))),
            Permutation(list(reversed(range(255)))),
            Permutation(list(range(2, 255)) + [1, 0]),
        ]
        for p in outsiders:
            assert not chain.contains(p)
            assert p not in closure
        assert cycle**7 in closure and chain.contains(cycle**7)

    def test_degree_limit(self):
        big = Permutation(list(range(1, 256)) + [0])
        with pytest.raises(EnumerationCapExceeded):
            bfs_enumerate([big])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            bfs_enumerate([Permutation([1, 0]), Permutation([0, 1, 2])])

    def test_membership_degree_mismatch(self):
        closure = bfs_enumerate(S3_GENS)
        assert Permutation([1, 0]) not in closure
        assert Permutation([1, 0, 2, 3]) not in closure
        # images past 255 cannot be packed into bytes; still just not a member
        assert Permutation(list(range(1, 300)) + [0]) not in closure


class TestStabilizerChain:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_symmetric_group_order(self, n):
        assert StabilizerChain(symmetric_gens(n)).order == math.factorial(n)

    def test_alternating_group(self):
        chain = StabilizerChain(A4_GENS)
        assert chain.order == 12
        assert chain.contains(Permutation([1, 2, 0, 3]))
        assert not chain.contains(Permutation([1, 0, 2, 3]))

    def test_cyclic_group(self):
        rotation = Permutation([1, 2, 3, 4, 0])
        assert StabilizerChain([rotation]).order == 5

    def test_trivial_group(self):
        chain = StabilizerChain([], degree=5)
        assert chain.order == 1
        assert chain.base == ()
        assert chain.contains(Permutation.identity(5))
        assert not chain.contains(Permutation([1, 0, 2, 3, 4]))

    def test_degree_required_without_generators(self):
        with pytest.raises(ValueError):
            StabilizerChain([])

    def test_membership_degree_mismatch(self):
        chain = StabilizerChain(S3_GENS)
        assert not chain.contains(Permutation([1, 0]))

    def test_sift_residue(self):
        chain = StabilizerChain(A4_GENS)
        assert chain.sift(Permutation([0, 2, 3, 1])).is_identity()
        residue = chain.sift(Permutation([1, 0, 2, 3]))
        assert not residue.is_identity()

    def test_sift_degree_mismatch(self):
        chain = StabilizerChain(S3_GENS)
        for p in (Permutation([1, 0]), Permutation([1, 0, 2, 3])):
            with pytest.raises(ValueError):
                chain.sift(p)
            assert not chain.contains(p)

    def test_in_operator(self):
        chain = StabilizerChain(S3_GENS)
        assert Permutation([2, 1, 0]) in chain

    def test_deterministic_rebuild(self):
        # 24 falls back to the closure; 20 and 52 stop at the order bound
        for size in (20, 24, 52):
            gens = [shuffle_permutation("L", size), shuffle_permutation("R", size)]
            a = StabilizerChain(gens)
            b = StabilizerChain(gens)
            assert a.base == b.base
            assert a.order == b.order
            assert [sorted(tr) for tr in a.transversals] == [sorted(tr) for tr in b.transversals]
            assert a.strong_generators == b.strong_generators

    def test_global_random_state_untouched(self):
        state = random.getstate()
        StabilizerChain(family_generators("unshuffle", 52))
        StabilizerChain(family_generators("unshuffle", 24))
        assert random.getstate() == state

    def test_base_points_are_moved(self):
        chain = StabilizerChain(symmetric_gens(5))
        assert len(set(chain.base)) == len(chain.base)
        # orbit sizes multiply to the order
        sizes = [len(tr) for tr in chain.transversals]
        assert math.prod(sizes) == 120

    def test_strong_generators_generate_same_group(self):
        chain = StabilizerChain(A4_GENS)
        regenerated = StabilizerChain(chain.strong_generators)
        assert regenerated.order == chain.order

    def test_transversal_maps_base_to_point(self):
        chain = StabilizerChain(symmetric_gens(5))
        for b, tr in zip(chain.base, chain.transversals):
            for x, u in tr.items():
                assert u(b) == x


@functools.cache
def shuffle_chain(family, size):
    return StabilizerChain(family_generators(family, size))


@pytest.mark.parametrize("size", [20, 30, 52])
@pytest.mark.parametrize("family", ["unshuffle", "perfect"])
class TestShuffleChainInvariants:
    def test_transversals_map_base_point_and_fix_earlier_base(self, family, size):
        chain = shuffle_chain(family, size)
        for i, (b, tr) in enumerate(zip(chain.base, chain.transversals)):
            for x, u in tr.items():
                assert u(b) == x
                assert all(u(c) == c for c in chain.base[:i])

    def test_order_matches_prediction(self, family, size):
        assert shuffle_chain(family, size).order == predict_group(family, size).order

    def test_strong_generators_rebuild_same_order(self, family, size):
        chain = shuffle_chain(family, size)
        assert StabilizerChain(chain.strong_generators).order == chain.order


class TestPinnedShuffleChains:
    # The 2n = 52 chains that criterion 13 and the benchmark's exact counts
    # rely on; a change to the build that alters them shows here first.
    BASES = {
        "unshuffle": (*range(14), 15, 14, 16, 17, 18, 19, 22, 20, 21, 23, 24, 25),
        "perfect": tuple(range(26)),
    }
    STRONG_GENERATORS = {"unshuffle": 41, "perfect": 40}

    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    def test_chain_at_52(self, family):
        chain = shuffle_chain(family, 52)
        assert chain.base == self.BASES[family]
        assert len(chain.strong_generators) == self.STRONG_GENERATORS[family]
        assert [len(tr) for tr in chain.transversals] == list(range(52, 0, -2))
        assert chain.order == math.factorial(26) * 2**26

    def test_memory_at_100(self):
        # one stored 100-tuple per orbit point keeps about 2.4 MB; a
        # representative and its inverse per point would keep 4.5 MB
        gens = family_generators("perfect", 100)
        tracemalloc.start()
        try:
            chain = StabilizerChain(gens)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert chain.order == predict_group("perfect", 100).order
        assert kept <= 3_000_000


# even sizes in [4, 80] whose shuffle groups are smaller than their order
# bound; 2n = 4 is a power of two, but <L, R> is all of B_2 there
SPECIAL_SIZES = [
    d for d in range(8, 81, 2) if d in (12, 24) or power_of_two_exponent(d) is not None
]


class TestOrderBound:
    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    def test_equals_prediction_off_special_sizes(self, family):
        for size in range(4, 81, 2):
            if size not in SPECIAL_SIZES:
                bound = _order_bound(family_generators(family, size))
                assert bound == predict_group(family, size).order, size

    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    @pytest.mark.parametrize("size", SPECIAL_SIZES)
    def test_exceeds_prediction_at_special_sizes(self, family, size):
        assert _order_bound(family_generators(family, size)) > predict_group(family, size).order

    def test_arbitrary_generators(self):
        assert _order_bound(symmetric_gens(6)) == math.factorial(6)
        assert _order_bound(A4_GENS) == 12
        # odd degree, and the reversal of 2 points (degree below 4)
        assert _order_bound([Permutation([1, 2, 0])]) == 3
        assert _order_bound([Permutation([1, 0])]) == 2

    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    def test_pair_images(self, family):
        # at 2n = 52 a pair sign is -1, so S_26; at 56 both are +1, so A_28
        for size, bound in ((52, math.factorial(26)), (56, math.factorial(28) // 2)):
            images = [g.pair_permutation() for g in family_generators(family, size)]
            assert _order_bound(images) == bound
            assert StabilizerChain(images).order == bound


class TestCertificate:
    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    def test_agrees_with_prediction(self, family):
        # a witness turns up at every even 2n in [4, 400] except 2n <= 16,
        # 24 and the powers of two, where the groups fall short of the bound
        for size in range(4, 401, 2):
            order = _certified_order(family_generators(family, size))
            if size <= 16 or size == 24 or power_of_two_exponent(size) is not None:
                assert order is None, size
            else:
                assert order == predict_group(family, size).order, size

    @given(certifiable_sets())
    @settings(max_examples=60, deadline=None)
    def test_matches_forced_chain(self, gens):
        order = _certified_order(gens)
        if order is not None:
            assert order == StabilizerChain(gens).order == _order_bound(gens)

    def test_answers_exactly_when_the_bound_is_reached(self):
        # the property above is not vacuous: random pairs of generators at
        # these sizes mostly reach their bound (S_d or A_d; B_n or one of
        # its index-2 or index-4 subgroups), and the certificate answers
        # for every one that does
        rng = random.Random(7)
        answered = 0
        for _ in range(10):
            points = [Permutation(rng.sample(range(16), 16)) for _ in range(2)]
            pairs = [random_centrally_symmetric(rng, 12) for _ in range(2)]
            for gens in (points, pairs):
                order, chain = _certified_order(gens), StabilizerChain(gens)
                if chain.order == _order_bound(gens):
                    assert order == chain.order
                    answered += 1
                else:
                    assert order is None
        assert answered >= 15

    def test_psl27_is_not_a_giant(self):
        # primitive on 8 points with 7-cycles, but 7 > 8 - 3 and the group
        # has no element of order 5, so Jordan's theorem gives nothing
        gens = psl27_on_projective_line()
        assert _certified_order(gens) is None
        assert StabilizerChain(gens).order == 168

    def test_diagonal_symmetric_group_has_no_kernel_witness(self):
        # S_10 acting on the pairs without flips: a giant pair image, but
        # every g^k is the identity, so the kernel is trivial
        n = 10
        gens = [
            symmetric_lift([1, 0] + list(range(2, n)), (), n),
            symmetric_lift(list(range(1, n)) + [0], (), n),
        ]
        assert _certified_order(gens) is None
        assert StabilizerChain(gens).order == math.factorial(n)

    def test_intransitive_pair_image(self):
        # B_8 on the first 8 of 9 pairs: 5-cycles and non-constant kernel
        # vectors, but the last pair is fixed, so the pair image is no giant
        n = 9
        fixed = [8]
        gens = [
            symmetric_lift([1, 0] + list(range(2, 8)) + fixed, (), n),
            symmetric_lift(list(range(1, 8)) + [0] + fixed, (), n),
            symmetric_lift(list(range(n)), (0,), n),
        ]
        assert _certified_order(gens) is None
        assert StabilizerChain(gens).order == math.factorial(8) * 2**8

    def test_trivial_and_tiny_groups(self):
        assert _certified_order([Permutation.identity(9)]) is None
        assert _certified_order(symmetric_gens(7)) is None  # no prime in (3.5, 4]
        assert _certified_order(symmetric_gens(8)) == math.factorial(8)
        assert _certified_order(A4_GENS) is None

    def test_global_random_state_untouched(self):
        state = random.getstate()
        _certified_order(family_generators("unshuffle", 52))
        _certified_order(family_generators("perfect", 32))
        assert random.getstate() == state


def affine_image(form, k, x):
    # x -> rot^j(x) xor b on k-bit labels, rot the left rotation by one bit
    b, j = form
    return (((x << j) | (x >> (k - j))) & ((1 << k) - 1)) ^ b


LETTER_PAIRS = ["".join(pair) for pair in itertools.combinations("LRIOV", 2)]


class TestAffine:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_letter_forms(self, k):
        d = 2**k
        forms = {
            "L": (2 ** (k - 1) - 1, k - 1),
            "R": (2**k - 1, k - 1),
            "I": (1, 1),
            "O": (0, 1),
            "V": (2**k - 1, 0),
        }
        for letter, form in forms.items():
            image = shuffle_permutation(letter, d).image
            assert _affine_form(image) == form, letter
            assert image == tuple(affine_image(form, k, x) for x in range(d)), letter
        for letter in "LR":
            for x in range(d):
                got = bits_index(binary_shuffle_image(letter, index_bits(x, k)))
                assert got == affine_image(forms[letter], k, x), (letter, x)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_chain(self, k):
        for letters in LETTER_PAIRS + ["LRIOV", "LV", "IV"]:
            gens = [shuffle_permutation(x, 2**k) for x in letters]
            assert _affine_group(gens).order == StabilizerChain(gens).order, letters
        for family in FAMILIES:
            assert _affine_group(family_generators(family, 2**k)).order == k * 2**k

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_sympy(self, k):
        for letters in LETTER_PAIRS + ["LRIOV"]:
            gens = [shuffle_permutation(x, 2**k) for x in letters]
            assert _affine_group(gens).order == sympy_order(gens), letters

    def test_non_affine_generators_fall_through(self):
        transposition = Permutation.from_cycle_text("(0 1)", 16)
        gens = [*family_generators("unshuffle", 16), transposition]
        assert _affine_group(gens) is None
        assert compute_order(gens) == ("certificate", math.factorial(16))
        gens = [shuffle_permutation("L", 32), Permutation.from_cycle_text("(0 1)", 32)]
        assert _affine_group(gens) is None
        assert compute_order(gens) == ("schreier", StabilizerChain(gens).order)
        assert StabilizerChain(gens).order == sympy_order(gens)

    def test_only_powers_of_two(self):
        # L and R are no affine maps off 2^k, and the degree test comes first
        assert _affine_group(family_generators("unshuffle", 24)) is None
        assert _affine_group([Permutation.identity(12)]) is None
        assert _affine_group([Permutation.identity(1)]) is None

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_mixed_and_identity_generators(self, k):
        d = 2**k
        mixed = [shuffle_permutation(x, d) for x in "LI"]
        assert compute_order(mixed) == ("affine", StabilizerChain(mixed).order)
        assert compute_order([Permutation.identity(d)]) == ("affine", 1)
        assert not group_contains([Permutation.identity(d)], mixed[0])
        assert group_contains([Permutation.identity(d)], Permutation.identity(d))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_membership_matches_chain(self, k):
        d = 2**k
        rng = random.Random(k)
        for letters in ["LR", "IO", "LI", "LV", "OV"]:
            gens = [shuffle_permutation(x, d) for x in letters]
            chain = StabilizerChain(gens)
            members = [word_permutation("".join(rng.choices(letters, k=9)), d) for _ in range(6)]
            # affine maps of every rotation: members or not by their b and j
            forms = [(rng.randrange(d), j) for j in range(k)]
            affine = [Permutation([affine_image(f, k, x) for x in range(d)]) for f in forms]
            others = [Permutation(rng.sample(range(d), d)) for _ in range(4)]
            others.append(Permutation.from_cycle_text(f"(0 {d - 1})", d))
            verdicts = [group_contains(gens, p) for p in members + affine + others]
            assert verdicts == [chain.contains(p) for p in members + affine + others]
            assert all(verdicts[: len(members)]), letters
            if k > 2:  # on 4 cards the groups hold a third of S_4 and (0 3)
                assert not any(verdicts[len(members) + len(affine) :]), letters

    def test_membership_degree_mismatch(self):
        gens = family_generators("perfect", 16)
        assert not group_contains(gens, Permutation.identity(8))
        assert not group_contains(gens, Permutation.identity(17))

    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    def test_a_million_cards(self, family):
        gens = family_generators(family, 2**20)
        assert compute_order(gens) == ("affine", 20 * 2**20)


class TestFallback:
    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    @pytest.mark.parametrize("size", [12, 24, 32, 64])
    def test_special_sizes(self, family, size):
        gens = family_generators(family, size)
        chain = StabilizerChain(gens)
        order = predict_group(family, size).order
        assert chain.order == order < _order_bound(gens)
        rng = random.Random(size)
        letters = FAMILIES[family]
        members = [word_permutation("".join(rng.choices(letters, k=12)), size) for _ in range(8)]
        arbitrary = [Permutation(rng.sample(range(size), size)) for _ in range(8)]
        symmetric = [random_centrally_symmetric(rng, size // 2) for _ in range(8)]
        if size == 24:  # 195 million elements: words are members, random ones are not
            assert all(chain.contains(p) for p in members)
            assert not any(chain.contains(p) for p in arbitrary + symmetric)
            return
        closure = bfs_enumerate(gens)
        assert closure.order == order
        for p in members + arbitrary + symmetric:
            assert chain.contains(p) == (p in closure)

    def test_random_phase_gives_up_below_the_bound(self):
        raws = [g.image for g in family_generators("unshuffle", 24)]
        chain = StabilizerChain(raws)
        chain._start(raws)
        assert not chain._random_fill(raws, _order_bound(raws))

    @given(st.randoms(use_true_random=False), st.integers(2, 8), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_closure_agrees_with_the_random_phase(self, rng, pairs, count):
        gens = [random_centrally_symmetric(rng, pairs) for _ in range(count)]
        chain = StabilizerChain(gens)
        # the deterministic closure alone, on the same generators
        closure = StabilizerChain(gens)
        closure._start([g.image for g in gens if not g.is_identity()])
        i = len(closure.transversals) - 1
        while i >= 0:
            i = closure._close_level(i)
        assert math.prod(map(len, closure.transversals)) == chain.order
        identity = Permutation.identity(2 * pairs)
        members = [math.prod(rng.choices(gens, k=5), start=identity) for _ in range(4)]
        symmetric = [random_centrally_symmetric(rng, pairs) for _ in range(8)]
        arbitrary = [Permutation(rng.sample(range(2 * pairs), 2 * pairs)) for _ in range(4)]
        for p in members + symmetric + arbitrary:
            assert closure.contains(p) == chain.contains(p)

    def test_single_unshuffle(self):
        left = shuffle_permutation("L", 52)
        chain = StabilizerChain([left])
        closure = bfs_enumerate([left])
        assert chain.order == closure.order == 52
        rng = random.Random(52)
        candidates = [left**k for k in range(0, 60, 7)] + [shuffle_permutation("R", 52)]
        candidates += [random_centrally_symmetric(rng, 26) for _ in range(8)]
        for p in candidates:
            assert chain.contains(p) == (p in closure)


@pytest.mark.parametrize("size", [100, 130, 200])
@pytest.mark.parametrize("family", ["unshuffle", "perfect"])
def test_large_deck_orders(family, size):
    gens = family_generators(family, size)
    chain = StabilizerChain(gens)
    assert chain.order == predict_group(family, size).order
    assert all(chain.contains(g) for g in gens)
    assert not chain.contains(Permutation([1, 0] + list(range(2, size))))


class TestEnginesAgree:
    @given(generator_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bfs_equals_chain(self, gens, data):
        closure = bfs_enumerate(gens)
        chain = StabilizerChain(gens)
        assert closure.order == chain.order
        assert all(p in chain for p in closure)
        # random permutations of the same degree, mostly non-members
        others = st.lists(st.permutations(list(range(gens[0].degree))), min_size=1, max_size=8)
        for img in data.draw(others):
            p = Permutation(img)
            assert (p in chain) == (p in closure)

    @given(generator_sets())
    @settings(max_examples=40, deadline=None)
    def test_order_matches_sympy(self, gens):
        assert StabilizerChain(gens).order == sympy_order(gens)

    @pytest.mark.parametrize("size", [6, 8, 10, 12, 14, 16])
    @pytest.mark.parametrize("letters", ["LR", "IO"])
    def test_shuffle_groups_match_sympy(self, size, letters):
        gens = [shuffle_permutation(s, size) for s in letters]
        assert StabilizerChain(gens).order == sympy_order(gens)
        assert bfs_enumerate(gens).order == sympy_order(gens)

    def test_chain_membership_matches_closure(self):
        gens = [shuffle_permutation(s, 8) for s in "IO"]
        closure = bfs_enumerate(gens)
        chain = StabilizerChain(gens)
        for p in closure:
            assert p in chain
        # a deterministic slice of the ambient symmetric group, mostly
        # non-members, must get the same verdict from both engines
        for img in _sampled_images(8):
            p = Permutation(img)
            assert (p in chain) == (p in closure)


def _sampled_images(degree):
    from itertools import islice, permutations

    return islice(permutations(range(degree)), 0, None, 997)


class TestDispatch:
    def test_group_order_engines(self):
        gens = symmetric_gens(5)
        assert group_order(gens) == 120
        assert group_order(gens, engine="bfs") == 120
        assert group_order(gens, engine="schreier") == 120

    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    def test_group_order_at_ten_thousand_cards(self, family):
        # a chain at this size would need gigabytes; the certificate is O(d)
        # a sample
        gens = family_generators(family, 10002)
        assert group_order(gens) == predict_group(family, 10002).order

    def test_group_order_bad_engine(self):
        with pytest.raises(ValueError):
            group_order(S3_GENS, engine="magic")

    def test_group_order_respects_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            group_order(symmetric_gens(7), cap=1000, engine="bfs")
        # the chain engine has no cap to hit
        assert group_order(symmetric_gens(7), cap=1000) == math.factorial(7)

    def test_default_cap_value(self):
        assert DEFAULT_CAP == 10_000_000
