import functools
import hashlib
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup

from unshuffle import bsgs
from unshuffle.bsgs import (
    EnumerationCapExceeded,
    StabilizerChain,
    _affine_form,
    _affine_group,
    _certified_group,
    _SignGroup,
    bfs_enumerate,
)
from unshuffle.groups import (
    FAMILIES,
    compute_group,
    family_generators,
    group_contains,
    group_order,
    power_of_two_exponent,
    predict_group,
)
from unshuffle.perm import Permutation, random_centrally_symmetric
from unshuffle.shuffles import shuffle_order, shuffle_permutation, word_permutation

S3_GENS = [Permutation([1, 0, 2]), Permutation([0, 2, 1])]
A4_GENS = [Permutation([1, 2, 0, 3]), Permutation([0, 2, 3, 1])]


def engine_and_order(gens):
    engine, group = compute_group(gens)
    return engine, group.order


def certified_order(gens):
    group = _certified_group(gens)
    return None if group is None else group.order


def sign_bound(gens):
    # _SignGroup takes the image tuples that _normalize produces
    return _SignGroup([g.image for g in gens]).order


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

    def test_cap(self, bfs_limit):
        bfs_limit(100)
        with pytest.raises(EnumerationCapExceeded):
            bfs_enumerate(symmetric_gens(6))
        # <L, R> at 18 cards, 9! * 2^9 elements, is past the unpatched limit
        # too (test_cli's test_forced_bfs_stops_in_bounded_memory)
        message = "more than 100 elements; enumeration is infeasible, use a StabilizerChain"
        with pytest.raises(EnumerationCapExceeded, match=message):
            bfs_enumerate(family_generators("unshuffle", 18))

    def test_cap_boundary(self, bfs_limit):
        # exactly at the limit is allowed
        bfs_limit(6)
        assert bfs_enumerate(S3_GENS).order == 6
        bfs_limit(5)
        with pytest.raises(EnumerationCapExceeded):
            bfs_enumerate(S3_GENS)
        # the identity is an element too
        bfs_limit(1)
        assert bfs_enumerate([Permutation.identity(2)]).order == 1

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
        # the first deck size past the byte packing
        message = "at most 255 points, not 256; use a StabilizerChain"
        with pytest.raises(EnumerationCapExceeded, match=message):
            bfs_enumerate(family_generators("perfect", 256))

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
        # 24 stalls below the sign bound and is proved by the pair bound;
        # 20 and 52 stop at the sign bound
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
        "unshuffle": (*range(14), 15, 14, 16, 17, 18, 20, 19, 21, 22, 23, 24, 25),
        "perfect": (*range(15), 16, 15, *range(17, 26)),
    }
    STRONG_GENERATORS = {"unshuffle": 42, "perfect": 39}

    # SHA-256 of each whole chain (chain_digest), so a faster build must
    # give the same chains byte for byte: 12 and 24 are proved by the pair
    # bound, 52 and 66 are the benchmark's chain builds, 56 is the
    # benchmark's query chain, and <L, R> at 1024 runs the closure
    DIGESTS = {
        ("unshuffle", 12): "e6e2c9fd4d2021858845e8d7865542f2587be8ebdc62e62269745e93f06badec",
        ("unshuffle", 24): "124e68c3428b52e59e135f9d64a7c70585ce663b73c48c035b91f6b4266c9198",
        ("unshuffle", 52): "035692f34bfc43bbee92816da049450828cc35fa7c79c391b9a0a7c39413d19d",
        ("unshuffle", 56): "87054f7a06e7053e970edbee1e1e3ae473f045032127818ed282ad3aed2989a3",
        ("unshuffle", 66): "b0a41448ada11f2425668aa8e0529064b4eaba8c58e2fa247deca472011afbe2",
        ("unshuffle", 1024): "f56f2acbabcd637e5082d4f6c822621563e0a4ef65838e4e9ceb1f11ec47cb16",
        ("perfect", 12): "b5fb6eff019f87899e494ec8fd6844bc2b2870b54bad9e7f990e987f20ea502b",
        ("perfect", 24): "4ac96830cae2f60783dcde597b64dfccdfa4467b098fb32b99d6f0c9077e0c7b",
        ("perfect", 52): "81aafd3e3e96e9740905616f6b60c13d9dd80640d9e78459111e1210ed0f6266",
        ("perfect", 56): "1edb07fb9489d3531be362b9ffa4896c7dbe42e4072fbceab9aec5e259c0bab2",
        ("perfect", 66): "541bbe46cd427e14c72fdae3440fe30bc7338107525d4749b41623d13a755cb9",
    }

    @staticmethod
    def chain_digest(chain):
        # base, strong generators and every transversal's sorted
        # (point, representative image) pairs
        data = (
            chain.base,
            [g.image for g in chain.strong_generators],
            [sorted((x, u.image) for x, u in tr.items()) for tr in chain.transversals],
        )
        return hashlib.sha256(repr(data).encode()).hexdigest()

    @pytest.mark.parametrize("family, size", sorted(DIGESTS))
    def test_whole_chain(self, family, size):
        chain = shuffle_chain(family, size)
        assert self.chain_digest(chain) == self.DIGESTS[family, size]

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


class TestGatherEdgeCases:
    """Chains whose levels open on a one-point orbit or have two or three
    points, checked against the BFS closure: order, every transversal, and
    membership of every permutation of the degree."""

    @pytest.mark.parametrize(
        "images",
        [
            [(1, 0)],
            [(1, 0, 2)],
            [(0, 2, 1)],
            # the second generator fixes base point 0 and opens a level on 2
            [(1, 0, 2, 3), (0, 1, 3, 2)],
            [(1, 0, 2, 3), (0, 2, 1, 3)],
            [(0, 1, 2, 4, 3)],
        ],
    )
    def test_matches_bfs(self, images):
        gens = [Permutation(g) for g in images]
        chain = StabilizerChain(gens)
        closure = bfs_enumerate(gens)
        assert chain.order == closure.order
        for i, (b, tr) in enumerate(zip(chain.base, chain.transversals)):
            fixing = [p for p in closure if all(p(c) == c for c in chain.base[:i])]
            assert set(tr) == {p(b) for p in fixing}
            for x, u in tr.items():
                assert u in closure
                assert u(b) == x
        degree = len(images[0])
        for image in itertools.permutations(range(degree)):
            p = Permutation(image)
            assert chain.contains(p) == (p in closure)


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
                bound = sign_bound(family_generators(family, size))
                assert bound == predict_group(family, size).order, size

    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    @pytest.mark.parametrize("size", SPECIAL_SIZES)
    def test_exceeds_prediction_at_special_sizes(self, family, size):
        assert sign_bound(family_generators(family, size)) > predict_group(family, size).order

    def test_arbitrary_generators(self):
        assert sign_bound(symmetric_gens(6)) == math.factorial(6)
        assert sign_bound(A4_GENS) == 12
        # odd degree, and the reversal of 2 points (degree below 4)
        assert sign_bound([Permutation([1, 2, 0])]) == 3
        assert sign_bound([Permutation([1, 0])]) == 2

    def test_keeps_the_characters_trivial_on_every_generator(self):
        # (a, b) stands for sign^a * pair sign^b, read here from Permutation
        rng = random.Random(41)
        seen = set()
        for _ in range(200):
            n = rng.randint(4, 30)
            gens = [random_centrally_symmetric(rng, n) for _ in range(rng.randint(1, 3))]
            expected = {
                (a, b)
                for a, b in ((1, 0), (0, 1), (1, 1))
                if all(g.parity() ** a * g.pair_parity() ** b == 1 for g in gens)
            }
            bound = _SignGroup([g.image for g in gens])
            assert bound.paired and set(bound.characters) == expected
            seen.add(frozenset(expected))
        # none, each one alone, and all three
        assert len(seen) == 5

    def test_kernel_counts_the_flip_vectors_in_the_bound(self):
        # 2^f against the flip vectors that the bound's own membership test
        # accepts, for each kept-character set, at 2n <= 16
        rng = random.Random(47)
        seen = set()
        for _ in range(100):
            n = rng.randint(2, 8)
            gens = [random_centrally_symmetric(rng, n) for _ in range(rng.randint(1, 3))]
            bound = _SignGroup([g.image for g in gens])
            flips = itertools.chain.from_iterable(
                itertools.combinations(range(n), r) for r in range(n + 1)
            )
            assert bound.kernel == sum(symmetric_lift(range(n), set(f), n) in bound for f in flips)
            seen.add(bound.characters)
        assert len(seen) == 5

    def test_keeps_the_sign_on_points_when_every_generator_is_even(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(200):
            degree = rng.randint(4, 30)
            gens = [Permutation(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))]
            if all(g.is_centrally_symmetric() for g in gens):
                continue
            even = all(g.parity() == 1 for g in gens)
            bound = _SignGroup([g.image for g in gens])
            assert not bound.paired and bound.characters == (((1, 0),) if even else ())
            assert bound.kernel is None
            seen.add(even)
        assert seen == {False, True}

    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    def test_pair_images(self, family):
        # at 2n = 52 a pair sign is -1, so S_26; at 56 both are +1, so A_28
        for size, bound in ((52, math.factorial(26)), (56, math.factorial(28) // 2)):
            images = [g.pair_permutation() for g in family_generators(family, size)]
            assert sign_bound(images) == bound
            assert StabilizerChain(images).order == bound


class TestCertificate:
    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    def test_agrees_with_prediction(self, family):
        # a witness turns up at every even 2n in [4, 400] except 2n <= 16,
        # 24 and the powers of two, where the groups fall short of the bound
        for size in range(4, 401, 2):
            order = certified_order(family_generators(family, size))
            if size <= 16 or size == 24 or power_of_two_exponent(size) is not None:
                assert order is None, size
            else:
                assert order == predict_group(family, size).order, size

    def test_witness_range_is_nonempty_exactly_from_m_8(self):
        # the finite part of the docstring's proof: a prime p with
        # m/2 < p <= m-3 exists exactly when m >= 8; Nagura's bound covers
        # m >= 50
        for m in range(10_001):
            assert any(map(bsgs._is_prime, range(m // 2 + 1, m - 2))) == (m >= 8), m

    @given(certifiable_sets())
    @settings(max_examples=60, deadline=None)
    def test_matches_forced_chain(self, gens):
        order = certified_order(gens)
        if order is not None:
            assert order == StabilizerChain(gens).order == sign_bound(gens)

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
                order, chain = certified_order(gens), StabilizerChain(gens)
                if chain.order == sign_bound(gens):
                    assert order == chain.order
                    answered += 1
                else:
                    assert order is None
        assert answered >= 15

    def test_psl27_is_not_a_giant(self):
        # primitive on 8 points with 7-cycles, but 7 > 8 - 3 and the group
        # has no element of order 5, so Jordan's theorem gives nothing
        gens = psl27_on_projective_line()
        assert certified_order(gens) is None
        assert StabilizerChain(gens).order == 168

    def test_diagonal_symmetric_group_has_no_kernel_witness(self):
        # S_10 acting on the pairs without flips: a giant pair image, but
        # every g^k is the identity, so the kernel is trivial
        n = 10
        gens = [
            symmetric_lift([1, 0] + list(range(2, n)), (), n),
            symmetric_lift(list(range(1, n)) + [0], (), n),
        ]
        assert certified_order(gens) is None
        assert StabilizerChain(gens).order == math.factorial(n)

    def test_diagonal_symmetric_group_with_the_mirror_has_no_kernel_witness(self):
        # S_10 x <mirror>: g = (s, flip all) flips exactly the pair cycles
        # of odd length l, as a point cycle of length 2l, so every g^r is
        # constant.  Reading such a cycle as a pair cycle of length 2l, not
        # l, would make g^r flip the odd cycles and fix the even ones
        n = 10
        gens = [
            symmetric_lift([1, 0] + list(range(2, n)), (), n),
            symmetric_lift(list(range(1, n)) + [0], (), n),
            symmetric_lift(list(range(n)), range(n), n),
        ]
        assert certified_order(gens) is None
        assert StabilizerChain(gens).order == 2 * math.factorial(n)

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
        assert certified_order(gens) is None
        assert StabilizerChain(gens).order == math.factorial(8) * 2**8

    def test_trivial_and_tiny_groups(self):
        assert certified_order([Permutation.identity(9)]) is None
        assert certified_order(symmetric_gens(7)) is None  # no prime in (3.5, 4]
        assert certified_order(symmetric_gens(8)) == math.factorial(8)
        assert certified_order(A4_GENS) is None

    def test_global_random_state_untouched(self):
        state = random.getstate()
        certified_order(family_generators("unshuffle", 52))
        certified_order(family_generators("perfect", 32))
        assert random.getstate() == state


# even sizes in [18, 60] where both shuffle groups are certified
CERTIFIED_SIZES = [d for d in range(18, 61, 2) if d != 24 and power_of_two_exponent(d) is None]


class TestCertifiedMembership:
    def test_matches_chain_on_shuffle_groups(self):
        # certified membership is central symmetry and the trivial sign
        # characters, with no chain; the chain sifts the same candidates
        rng = random.Random(18)
        verdicts = []
        for size in CERTIFIED_SIZES:
            for family in FAMILIES:
                gens = family_generators(family, size)
                engine, group = compute_group(gens)
                assert engine == "certificate", (size, family)
                chain = StabilizerChain(gens)
                symmetric = [random_centrally_symmetric(rng, size // 2) for _ in range(36)]
                arbitrary = [Permutation(rng.sample(range(size), size)) for _ in range(10)]
                for p in symmetric + arbitrary:
                    verdicts.append(p in group)
                    assert verdicts[-1] == chain.contains(p), (size, family, p)
        # both verdicts occur often: every family keeps a half or a quarter
        # of B_n at least, and random permutations are almost never in it
        assert 0.4 * len(verdicts) < sum(verdicts) < 0.7 * len(verdicts)

    def test_symmetric_group_on_points(self):
        gens = symmetric_gens(8)
        group = _certified_group(gens)
        assert not group.paired and group.order == math.factorial(8)
        rng = random.Random(8)
        candidates = [Permutation(rng.sample(range(8), 8)) for _ in range(20)]
        assert {p.parity() for p in candidates} == {1, -1}
        assert all(p in group for p in candidates)

    def test_alternating_group_on_points(self):
        # a 3-cycle and a 9-cycle, both even, generate A_9
        gens = [Permutation.from_cycle_text("(0 1 2)", 9), Permutation(list(range(1, 9)) + [0])]
        group = _certified_group(gens)
        assert group.order == math.factorial(9) // 2
        chain = StabilizerChain(gens)
        rng = random.Random(9)
        candidates = [Permutation(rng.sample(range(9), 9)) for _ in range(20)]
        assert {p.parity() for p in candidates} == {1, -1}
        for p in candidates:
            assert (p in group) == (p.parity() == 1) == chain.contains(p)

    def test_degree_mismatch(self):
        for gens in (family_generators("perfect", 18), symmetric_gens(8)):
            group = _certified_group(gens)
            d = gens[0].degree
            assert Permutation.identity(d) in group
            assert Permutation.identity(d - 1) not in group
            assert Permutation.identity(d + 2) not in group


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
        assert engine_and_order(gens) == ("certificate", math.factorial(16))
        gens = [shuffle_permutation("L", 32), Permutation.from_cycle_text("(0 1)", 32)]
        assert _affine_group(gens) is None
        assert engine_and_order(gens) == ("schreier", StabilizerChain(gens).order)
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
        assert engine_and_order(mixed) == ("affine", StabilizerChain(mixed).order)
        assert engine_and_order([Permutation.identity(d)]) == ("affine", 1)
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
        assert engine_and_order(gens) == ("affine", 20 * 2**20)


class TestFallback:
    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    @pytest.mark.parametrize("size", [12, 24, 32, 64])
    def test_special_sizes(self, family, size):
        gens = family_generators(family, size)
        chain = StabilizerChain(gens)
        order = predict_group(family, size).order
        assert chain.order == order < sign_bound(gens)
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
        assert not chain._random_fill(raws, _SignGroup(raws).order)

    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    def test_random_phase_alone_off_special_sizes(self, monkeypatch, family):
        # the random phase meets the sign bound, so no build falls back to
        # the pair bound or to the closure, which at 100 cards is about a
        # hundred times slower
        def fallback(*args):
            raise AssertionError("the random phase stalled below the bound")

        monkeypatch.setattr(StabilizerChain, "_pair_bound", fallback)
        monkeypatch.setattr(StabilizerChain, "_close_level", fallback)
        for size in range(4, 101, 2):
            if size not in SPECIAL_SIZES:
                chain = StabilizerChain(family_generators(family, size))
                assert chain.order == predict_group(family, size).order, size

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


class TestPairBound:
    """A random phase that stalls below the sign bound, kept when its orbit
    sizes multiply to 2^f times the order of a chain on the pair images."""

    @staticmethod
    def verdicts(monkeypatch):
        # every answer the pair bound gives, in build order
        verdicts = []
        true_bound = StabilizerChain._pair_bound

        def pair_bound(chain, raws, bound):
            verdicts.append(true_bound(chain, raws, bound))
            return verdicts[-1]

        monkeypatch.setattr(StabilizerChain, "_pair_bound", pair_bound)
        return verdicts

    def test_random_symmetric_sets_match_bfs(self, monkeypatch):
        verdicts = self.verdicts(monkeypatch)
        rng = random.Random(20)
        for _ in range(200):
            pairs = rng.randint(2, 6)
            d = 2 * pairs
            gens = [random_centrally_symmetric(rng, pairs) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                # one flipped pair: a large kernel over a small pair image
                gens.append(Permutation([d - 1, *range(1, d - 1), 0]))
            chain = StabilizerChain(gens)
            closure = bfs_enumerate(gens)
            assert chain.order == closure.order, gens
            identity = Permutation.identity(d)
            members = [math.prod(rng.choices(gens, k=5), start=identity) for _ in range(4)]
            symmetric = [random_centrally_symmetric(rng, pairs) for _ in range(8)]
            for p in members + symmetric:
                assert chain.contains(p) == (p in closure)
        # the pair bound both kept and refused random phases
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    @pytest.mark.parametrize("size", [12, 24])
    def test_special_sizes_close_no_level(self, monkeypatch, family, size):
        # the chains on the pair images (PGL(2,5) on 6 points, M_12 on 12)
        # still close; the chain on the deck is never rebuilt
        true_close = StabilizerChain._close_level

        def close_level(chain, i):
            if chain.degree == size:
                raise AssertionError("the closure ran on the deck")
            return true_close(chain, i)

        monkeypatch.setattr(StabilizerChain, "_close_level", close_level)
        gens = family_generators(family, size)
        a, b = StabilizerChain(gens), StabilizerChain(gens)
        assert a.order == b.order == predict_group(family, size).order
        assert a.base == b.base
        assert a.strong_generators == b.strong_generators

    def test_a_product_below_the_pair_bound_is_refused(self):
        # the 12-card chain holds 7680 = 2^9 * 15 elements; read as a chain
        # of B_6, whose pair bound is 2^6 * 720, it is divisible but short
        chain = StabilizerChain(family_generators("unshuffle", 12))
        lifts = (([1, 0, 2, 3, 4, 5], ()), ([1, 2, 3, 4, 5, 0], ()), (range(6), {0}))
        hyperoctahedral = [symmetric_lift(image, flips, 6).image for image, flips in lifts]
        assert not chain._pair_bound(hyperoctahedral, _SignGroup(hyperoctahedral))

    def test_small_kernel_builds_no_pair_chain(self, monkeypatch):
        # <I> has far fewer elements than 2^500, so the divisibility test
        # refuses it before any chain on the pairs is built
        def no_pair_chain(*args):
            raise AssertionError("a chain on the pairs was built")

        monkeypatch.setattr(bsgs, "StabilizerChain", no_pair_chain)
        chain = StabilizerChain([shuffle_permutation("I", 1002)])
        assert chain.order == shuffle_order("I", 1002)


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
        # the policy's order against both engines, called directly
        gens = symmetric_gens(5)
        assert group_order(gens) == bfs_enumerate(gens).order == StabilizerChain(gens).order == 120

    @pytest.mark.parametrize("family", ["unshuffle", "perfect"])
    def test_group_order_at_ten_thousand_cards(self, family):
        # a chain at this size would need gigabytes; the certificate is O(d)
        # a sample
        gens = family_generators(family, 10002)
        assert group_order(gens) == predict_group(family, 10002).order
