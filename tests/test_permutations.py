"""Permutation statistics used by the residue and search machinery."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kostant.permutations import Permutation


class TestConstruction:
    def test_identity(self):
        w = Permutation.identity(4)
        assert w.images == (1, 2, 3, 4)
        assert w.inversions == 0
        assert w.descents == 0
        assert w.signature == 1

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError) as err:
            Permutation((1, 1, 3))
        assert err.value.code == "bad-permutation"

    def test_rejects_wrong_range(self):
        with pytest.raises(ValueError) as err:
            Permutation((0, 1, 2))
        assert err.value.code == "bad-permutation"

    @pytest.mark.parametrize("images", [(2.0, 1.0), (True,), (1, 2.0), (Fraction(1),)])
    def test_rejects_images_that_are_not_ints(self, images):
        # each compares equal to the images of a permutation: only the type tells
        with pytest.raises(ValueError, match="not a permutation") as err:
            Permutation(images)
        assert err.value.code == "bad-permutation"


class TestStatistics:
    def test_transposition(self):
        w = Permutation((2, 1))
        assert w.inversions == 1
        assert w.descents == 1
        assert w.signature == -1

    def test_statistics_can_differ(self):
        w = Permutation((3, 1, 2))
        assert w.inversions == 2
        assert w.descents == 1

    def test_longest_element(self):
        w = Permutation((4, 3, 2, 1))
        assert w.inversions == 6
        assert w.descents == 3


class TestApply:
    def test_apply_permutes_by_image_positions(self):
        w = Permutation((3, 1, 2))
        # entry k of the result is the w(k)-th entry of the input
        assert w.apply(("a", "b", "c")) == ("c", "a", "b")

    def test_apply_identity(self):
        w = Permutation.identity(3)
        assert w.apply((5, 6, 7)) == (5, 6, 7)

    @pytest.mark.parametrize("seq", [(), (5, 6), (5, 6, 7, 8)])
    def test_apply_refuses_a_sequence_of_the_wrong_length(self, seq):
        with pytest.raises(ValueError, match="length") as err:
            Permutation((3, 1, 2)).apply(seq)
        assert err.value.code == "bad-length"


class TestValueSemantics:
    @given(st.permutations(list(range(1, 6))))
    def test_equal_permutations_hash_equal(self, images):
        # built apart, from a tuple and from a list: equal, one hash, one set member
        w, same = Permutation(tuple(images)), Permutation(list(images))
        assert w is not same and w == same and hash(w) == hash(same)
        assert len({w, same}) == 1

    def test_not_equal_to_its_images(self):
        assert Permutation((2, 1)) != (2, 1)

    @pytest.mark.parametrize("images", list(itertools.permutations((1, 2, 3))) + [(1,)])
    def test_repr_evaluates_back(self, images):
        w = Permutation(images)
        assert eval(repr(w), {"Permutation": Permutation}) == w


def test_all_rank_three_statistics():
    expected = {
        (1, 2, 3): (0, 0),
        (1, 3, 2): (1, 1),
        (2, 1, 3): (1, 1),
        (2, 3, 1): (2, 1),
        (3, 1, 2): (2, 1),
        (3, 2, 1): (3, 2),
    }
    for images in itertools.permutations((1, 2, 3)):
        w = Permutation(images)
        assert (w.inversions, w.descents) == expected[images]
