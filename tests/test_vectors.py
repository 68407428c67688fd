"""Exact vector arithmetic, bases, cone and regularity predicates."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kostant import vectors
from kostant.vectors import (
    DominantWeight,
    ValidationError,
    as_vector,
    deform,
    from_fundamental,
    in_positive_cone,
    is_regular,
    positive_roots,
    rho,
    root_vector,
    scaled_ints,
    subset_sums,
    theta,
    to_fundamental,
    vec_add,
    vec_scale,
    zero_mean,
)

F = Fraction


def frac_vec(*xs):
    return tuple(F(x) for x in xs)


class TestAsVector:
    def test_accepts_ints_and_fractions(self):
        assert as_vector([1, F(1, 2), -3]) == frac_vec(1, F(1, 2), -3)

    def test_rejects_floats(self):
        with pytest.raises(ValidationError) as err:
            as_vector([1.5, 0])
        assert err.value.code == "inexact-entry"

    def test_rejects_short_vectors(self):
        with pytest.raises(ValidationError):
            as_vector([1])

    def test_ints_where_integral_fractions_otherwise(self):
        v = as_vector([3, F(4, 2), F(-6, 3), F(1, 2), "5/3", "-7"])
        assert v == (3, 2, -2, F(1, 2), F(5, 3), -7)
        assert [type(x) for x in v] == [int, int, int, F, F, int]

    def test_returned_vectors_follow_the_format(self):
        # integral results of rational arithmetic come back as ints
        half = F(1, 2)
        results = [
            vec_add((half, half), (half, -half)),
            vec_scale((half, -half), 2), zero_mean((F(5, 2), F(1, 2))),
            to_fundamental((F(3, 2), F(1, 2))), from_fundamental((2, 2)), rho(2),
            theta(3).canonical, positive_roots(2)[0],
        ]
        for v in results:
            assert all(type(x) is int for x in v), v
        assert from_fundamental((1,)) == (half, -half)

    def test_root_vector_is_ints(self):
        assert root_vector((F(4, 2), 0, "-2")) == (2, 0, -2)
        assert [type(x) for x in root_vector((F(4, 2), 0, -2))] == [int, int, int]
        with pytest.raises(ValidationError) as err:
            root_vector((F(1, 2), F(-1, 2)))
        assert err.value.code == "non-integral"

    @pytest.mark.parametrize("entry", [None, 1j, Decimal("NaN"), Decimal("-Infinity"), object()])
    def test_values_fraction_refuses_are_malformed(self, entry):
        with pytest.raises(ValidationError) as err:
            as_vector([entry, 0])
        assert err.value.code == "malformed-rational"
        assert "digits" not in str(err.value)

    def test_floats_are_refused_everywhere(self):
        for call in (lambda: from_fundamental((1.0, 2)), lambda: vec_scale((1, -1), 0.5),
                     lambda: root_vector((1.0, -1))):
            with pytest.raises(ValidationError) as err:
                call()
            assert err.value.code == "inexact-entry"


class TestScaledInts:
    def test_common_denominator(self):
        assert scaled_ints((F(1, 2), F(-1, 2)), (F(1, 3), 0, F(-1, 3))) == [(3, -3), (2, 0, -2)]
        assert scaled_ints((2, -2)) == [(2, -2)]
        assert all(type(x) is int for v in scaled_ints((F(1, 6), F(-1, 6))) for x in v)


class TestBases:
    def test_to_fundamental_consecutive_differences(self):
        assert to_fundamental((2, 1, -3)) == frac_vec(1, 4)

    def test_from_fundamental_rank_one(self):
        assert from_fundamental((1,)) == frac_vec(F(1, 2), F(-1, 2))

    def test_from_fundamental_rank_two(self):
        assert from_fundamental((1, 4)) == frac_vec(2, 1, -3)

    def test_from_fundamental_rank_three(self):
        assert from_fundamental((1, 1, 7)) == frac_vec(3, 2, 1, -6)

    def test_from_fundamental_is_zero_sum(self):
        v = from_fundamental((3, 0, 2, 5))
        assert sum(v) == 0

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=6))
    def test_round_trip(self, coords):
        v = from_fundamental(coords)
        assert to_fundamental(v) == tuple(F(c) for c in coords)

    @given(st.lists(st.fractions(max_denominator=12), min_size=2, max_size=6))
    def test_to_fundamental_translation_invariant(self, entries):
        v = as_vector(entries) if len(entries) >= 2 else None
        shifted = tuple(x + F(7, 3) for x in v)
        assert to_fundamental(v) == to_fundamental(shifted)


class TestDistinguishedVectors:
    def test_rho_values(self):
        assert rho(1) == frac_vec(F(1, 2), F(-1, 2))
        assert rho(2) == frac_vec(1, 0, -1)
        assert rho(3) == frac_vec(F(3, 2), F(1, 2), F(-1, 2), F(-3, 2))

    def test_rho_fundamental_coordinates_all_one(self):
        for r in range(1, 7):
            assert to_fundamental(rho(r)) == (F(1),) * r

    def test_theta_values(self):
        assert theta(2).canonical == frac_vec(2, 1, -3)
        assert theta(3).canonical == frac_vec(3, 2, 1, -6)

    def test_theta_fundamental_coordinates(self):
        for r in range(2, 7):
            fc = theta(r).fundamental()
            assert fc == (F(1),) * (r - 1) + (F(1 + r * (r + 1) // 2),)

    def test_positive_roots_count(self):
        for r in range(1, 6):
            assert len(positive_roots(r)) == r * (r + 1) // 2

    def test_rho_is_half_sum_of_positive_roots(self):
        for r in range(1, 6):
            total = (F(0),) * (r + 1)
            for alpha in positive_roots(r):
                total = vec_add(total, alpha)
            assert vec_scale(total, F(1, 2)) == rho(r)

    @pytest.mark.parametrize("call, code", [
        (lambda: from_fundamental([]), "bad-length"),
        (lambda: rho(0), "bad-rank"),
        (lambda: theta(0), "bad-rank"),
    ], ids=["empty-fundamental", "rho-0", "theta-0"])
    def test_rankless_input_is_refused(self, call, code):
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.code == code


class TestCone:
    def test_examples(self):
        assert in_positive_cone((1, 0, -1))
        assert in_positive_cone((0, 0, 0))
        assert not in_positive_cone((-1, 1, 0))
        assert not in_positive_cone((-1, 2, -1))
        assert not in_positive_cone((1, -2, 1))

    def test_nonzero_sum_is_outside(self):
        assert not in_positive_cone((1, 0, 0))

    def test_membership_matches_root_expansion(self):
        # a is in the cone iff it is a non-negative rational combination of
        # the positive roots; prefix sums give exactly those coefficients
        # on the simple-root basis.
        import itertools

        for entries in itertools.product(range(-2, 3), repeat=3):
            if sum(entries) != 0:
                continue
            a = as_vector(entries)
            coeffs = list(itertools.accumulate(a))[:-1]
            expansion_ok = all(c >= 0 for c in coeffs)
            assert in_positive_cone(a) == expansion_ok


class TestRegularity:
    def test_examples(self):
        assert is_regular((2, -1, -1))
        assert is_regular((3, -1, -2))
        assert not is_regular((1, -1, 0))
        assert not is_regular((1, 0, -1))
        assert not is_regular((0, 0, 0))

    def test_pair_cancellation_detected(self):
        assert not is_regular((2, -2, 3, -3))

    def test_requires_zero_sum(self):
        with pytest.raises(ValidationError) as err:
            is_regular((1, 1, 1))
        assert err.value.code == "not-zero-sum"

    def test_rank_above_the_subset_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(vectors, "_SUBSET_RANK_LIMIT", 3)
        assert is_regular((3, -1, -2, 0)) is False
        assert len(subset_sums((3, -1, -2, 0))) == 8
        for call in (is_regular, subset_sums):
            with pytest.raises(ValidationError) as err:
                call((4, -1, -2, 0, -1))
            assert err.value.code == "rank-too-large"

    def test_brute_force_agreement(self):
        import itertools

        def by_subsets(entries):
            return all(sum(sub) != 0 for size in range(1, len(entries))
                       for sub in itertools.combinations(entries, size))

        # Ranks 1-5, integral and rational: each box vector, its deformation
        # and its third, which mixes ints with Fractions.
        for r, bound in ((1, 3), (2, 3), (3, 3), (4, 2), (5, 1)):
            for head in itertools.product(range(-bound, bound + 1), repeat=r):
                a = head + (-sum(head),)
                for entries in (a, deform(a), as_vector(F(x, 3) for x in a)):
                    assert is_regular(entries) == by_subsets(entries), entries


class TestDeform:
    def test_rank_two_examples(self):
        assert deform((0, 0, 0)) == frac_vec(F(1, 4), F(1, 4), F(-1, 2))
        assert deform((1, 0, -1)) == frac_vec(F(5, 4), F(1, 4), F(-3, 2))
        assert deform((2, -1, -1)) == frac_vec(F(9, 4), F(-3, 4), F(-3, 2))

    def test_rank_three_example(self):
        assert deform((1, 1, -1, -1)) == frac_vec(
            F(7, 6), F(7, 6), F(-5, 6), F(-3, 2)
        )

    def test_requires_integral_zero_sum(self):
        with pytest.raises(ValidationError):
            deform((F(1, 2), F(-1, 2), 0))
        with pytest.raises(ValidationError):
            deform((1, 1, 1))

    @given(st.integers(1, 6), st.data())
    def test_deformation_is_regular(self, r, data):
        entries = data.draw(
            st.lists(st.integers(-8, 8), min_size=r, max_size=r)
        )
        a = tuple(entries) + (-sum(entries),)
        assert is_regular(deform(a))

    @given(st.integers(1, 6), st.data())
    def test_deformation_preserves_cone_membership(self, r, data):
        entries = data.draw(
            st.lists(st.integers(-8, 8), min_size=r, max_size=r)
        )
        a = tuple(entries) + (-sum(entries),)
        assert in_positive_cone(a) == in_positive_cone(deform(a))


class TestDominantWeight:
    def test_accepts_dominant(self):
        w = DominantWeight((1, 0, -1))
        assert w.rank == 2
        assert w.fundamental() == frac_vec(1, 1)

    def test_scaled(self):
        w = DominantWeight((1, 0, -1)).scaled(3)
        assert w.canonical == frac_vec(3, 0, -3)

    def test_rejects_non_dominant(self):
        with pytest.raises(ValidationError) as err:
            DominantWeight((0, 1, -1))
        assert err.value.code == "not-dominant"

    def test_rejects_non_integral_differences(self):
        with pytest.raises(ValidationError) as err:
            DominantWeight((F(1, 3), 0, F(-1, 3)))
        assert err.value.code == "non-integral-weight"

    def test_fractional_but_integral_differences_allowed(self):
        # zero-mean representative of a weight can have fractional entries
        w = DominantWeight((F(1, 2), F(-1, 2)))
        assert w.fundamental() == frac_vec(1)

    def test_equal_and_hashed_by_canonical(self):
        w = DominantWeight((2, 1, -3))
        same = DominantWeight([F(2), "1", F(-6, 2)])
        assert w == same and hash(w) == hash(same)
        assert len({w, same, DominantWeight((1, 0, -1))}) == 2
        assert w != DominantWeight((1, 0, -1))
        assert w != (2, 1, -3) and w != w.canonical

    def test_repr_names_the_canonical_vector(self):
        assert repr(DominantWeight((F(1, 2), F(-1, 2)))) == (
            "DominantWeight(canonical=(Fraction(1, 2), Fraction(-1, 2)))")

    def test_immutable(self):
        w = DominantWeight((1, 0, -1))
        with pytest.raises(AttributeError):
            w.canonical = (2, 0, -2)
        with pytest.raises(AttributeError):
            del w.canonical
        with pytest.raises(AttributeError):
            w.label = "adjoint"
        assert w.canonical == (1, 0, -1)

    def test_copies_and_pickles_are_equal(self):
        import copy
        import pickle

        w = DominantWeight((F(3, 2), F(1, 2), F(-1, 2)))
        for other in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert type(other) is DominantWeight and other == w

    def test_replace_is_checked(self):
        w = DominantWeight((1, 0, -1))
        assert w._replace(canonical=(2, 0, -2)) == DominantWeight((2, 0, -2))
        with pytest.raises(ValidationError) as err:
            w._replace(canonical=(0, 1, -1))
        assert err.value.code == "not-dominant"

    @pytest.mark.parametrize("entries, code", [
        ((0, 1, -1), "not-dominant"),
        ((F(1, 3), 0, F(-1, 3)), "non-integral-weight"),
        ((1.0, -1.0), "inexact-entry"),
        (("1.5", "-1.5"), "malformed-rational"),
        ((1,), "bad-length"),
    ])
    def test_validation_codes(self, entries, code):
        with pytest.raises(ValidationError) as err:
            DominantWeight(entries)
        assert err.value.code == code


class TestArithmetic:
    def test_add_sub_scale(self):
        a = frac_vec(1, 2, -3)
        b = frac_vec(0, -1, 1)
        assert vec_add(a, b) == frac_vec(1, 1, -2)
        assert vec_add(a, vec_scale(b, -1)) == frac_vec(1, 3, -4)
        assert vec_scale(a, F(1, 2)) == frac_vec(F(1, 2), 1, F(-3, 2))

    def test_zero_mean(self):
        assert zero_mean(frac_vec(3, 1, 2)) == frac_vec(1, -1, 0)

