import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup

from unshuffle.bsgs import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    StabilizerChain,
    bfs_enumerate,
    group_order,
    schreier_sims,
)
from unshuffle.groups import family_generators, predict_group
from unshuffle.perm import Permutation
from unshuffle.shuffles import shuffle_permutation

S3_GENS = [Permutation([1, 0, 2]), Permutation([0, 2, 1])]
A4_GENS = [Permutation([1, 2, 0, 3]), Permutation([0, 2, 3, 1])]


def symmetric_gens(n):
    cycle = Permutation(list(range(1, n)) + [0])
    swap = Permutation([1, 0] + list(range(2, n)))
    return [swap, cycle]


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(min_value=2, max_value=7))
    count = draw(st.integers(min_value=1, max_value=3))
    return [
        Permutation(draw(st.permutations(list(range(degree))))) for _ in range(count)
    ]


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
        with pytest.raises(ValueError):
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
        gens = [shuffle_permutation("L", 20), shuffle_permutation("R", 20)]
        a = StabilizerChain(gens)
        b = StabilizerChain(gens)
        assert a.base == b.base
        assert a.order == b.order
        assert [sorted(tr) for tr in a.transversals] == [sorted(tr) for tr in b.transversals]

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

    def test_group_order_bad_engine(self):
        with pytest.raises(ValueError):
            group_order(S3_GENS, engine="magic")

    def test_group_order_respects_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            group_order(symmetric_gens(7), cap=1000, engine="bfs")
        # the chain engine has no cap to hit
        assert group_order(symmetric_gens(7), cap=1000) == math.factorial(7)

    def test_schreier_sims_convenience(self):
        assert schreier_sims(S3_GENS).order == 6
        assert schreier_sims([], degree=3).order == 1

    def test_default_cap_value(self):
        assert DEFAULT_CAP == 10_000_000
