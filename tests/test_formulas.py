"""Multiplicity and tensor formulas, and their dilation polynomials."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import kostant.formulas
from kostant.formulas import (
    RayFitFailure,
    RayPolynomial,
    _ray_fit,
    multiplicity,
    multiplicity_polynomial,
    tensor_polynomial,
    tensor_product,
)
from kostant.reference import (
    freudenthal_multiplicities,
    multiplicity_freudenthal,
    tensor_bruteforce_lr,
    weyl_dimension,
)
from kostant.residues import _partition_of
from kostant.vectors import (
    DominantWeight,
    ValidationError,
    from_fundamental,
    theta,
)


class TestMultiplicity:
    def test_highest_weight(self):
        lam = DominantWeight((2, 1, -3))
        assert multiplicity(lam, (2, 1, -3)) == 1

    def test_adjoint_zero_weight(self):
        assert multiplicity(DominantWeight((1, 0, -1)), (0, 0, 0)) == 2

    def test_theta_zero_weight_rank_two(self):
        assert multiplicity(theta(2), (0, 0, 0)) == 2

    def test_non_dominant_weight_argument_allowed(self):
        # multiplicity is symmetric under the Weyl group of the target
        lam = DominantWeight((1, 0, -1))
        assert multiplicity(lam, (0, 1, -1)) == 1
        assert multiplicity(lam, (1, 0, -1)) == 1

    def test_outside_root_lattice_is_zero(self):
        lam = DominantWeight(from_fundamental((1, 0)))
        assert multiplicity(lam, (0, 0, 0)) == 0

    def test_outside_hull_is_zero(self):
        lam = DominantWeight((1, 0, -1))
        assert multiplicity(lam, (4, 0, -4)) == 0

    def test_mismatched_sums_rejected(self):
        lam = DominantWeight((1, 0, -1))
        with pytest.raises(ValidationError):
            multiplicity(lam, (1, 1, 1))

    def test_nonzero_common_sum_allowed(self):
        # (2,1,0) and (1,1,1) are the adjoint pair translated by (1,1,1)
        assert multiplicity(DominantWeight((2, 1, 0)), (1, 1, 1)) == 2

    def test_agrees_with_freudenthal_randomly(self):
        rng = random.Random(41)
        for _ in range(60):
            r = rng.randint(1, 3)
            lam = DominantWeight(
                from_fundamental([rng.randint(0, 3) for _ in range(r)])
            )
            table_key = [rng.randint(-2, 2) for _ in range(r)]
            mu = from_fundamental(table_key)
            assert multiplicity(lam, mu) == multiplicity_freudenthal(lam, mu), (
                lam.fundamental(),
                table_key,
            )

    def test_repeated_sum_is_answered_from_the_process_memo(self):
        # theta(5) at weight zero is a sum of 66 terms with distinct arguments
        _partition_of.cache_clear()
        assert multiplicity(theta(5), (0,) * 6) == 1024
        info = _partition_of.cache_info()
        assert (info.hits, info.misses) == (0, 66)
        assert multiplicity(theta(5), (0,) * 6) == 1024
        info = _partition_of.cache_info()
        assert (info.hits, info.misses) == (66, 66)


class TestTensorProduct:
    def test_cartan_component(self):
        lam = DominantWeight(from_fundamental((2, 1)))
        mu = DominantWeight(from_fundamental((0, 2)))
        nu = DominantWeight(from_fundamental((2, 3)))
        assert tensor_product(lam, mu, nu) == 1

    def test_sl2_clebsch_gordan(self):
        a = DominantWeight(from_fundamental((3,)))
        b = DominantWeight(from_fundamental((2,)))
        for c, expected in ((5, 1), (3, 1), (1, 1), (4, 0), (9, 0)):
            nu = DominantWeight(from_fundamental((c,)))
            assert tensor_product(a, b, nu) == expected

    def test_adjoint_cube_of_sl3(self):
        adj = DominantWeight((1, 0, -1))
        assert tensor_product(adj, adj, adj) == 2

    def test_outside_root_lattice_is_zero(self):
        lam = DominantWeight(from_fundamental((1, 0)))
        mu = DominantWeight(from_fundamental((0, 0)))
        nu = DominantWeight(from_fundamental((0, 1)))
        assert tensor_product(lam, mu, nu) == 0

    def test_agrees_with_lr_randomly(self, sign_gates):
        rng = random.Random(43)
        for _ in range(50):
            r = rng.randint(1, 3)
            lam = DominantWeight(
                from_fundamental([rng.randint(0, 2) for _ in range(r)])
            )
            mu = DominantWeight(
                from_fundamental([rng.randint(0, 2) for _ in range(r)])
            )
            nu = DominantWeight(
                from_fundamental([rng.randint(0, 3) for _ in range(r)])
            )
            assert tensor_product(lam, mu, nu) == tensor_bruteforce_lr(
                lam, mu, nu
            ), (lam.fundamental(), mu.fundamental(), nu.fundamental())

    def test_nonzero_common_sum_allowed(self):
        # the adjoint cube shifted so every weight gains (1,1,1)
        shifted = DominantWeight((2, 1, 0))
        assert tensor_product(shifted, shifted, DominantWeight((3, 2, 1))) == 2


def orbit_size(mu):
    """Size of the symmetric-group orbit of a weakly decreasing tuple."""
    total = math.factorial(len(mu))
    for _, run in itertools.groupby(mu):
        total //= math.factorial(len(tuple(run)))
    return total


class TestDimensionConsistency:
    def test_multiplicities_sum_to_weyl_dimension(self):
        for fc in ((3,), (1, 1), (2, 1), (3, 0)):
            lam = DominantWeight(from_fundamental(fc))
            table = freudenthal_multiplicities(lam)
            total = sum(
                multiplicity(lam, mu) * orbit_size(mu) for mu in table
            )
            assert total == weyl_dimension(lam), fc

    def test_tensor_coefficients_sum_to_product_dimension(self):
        pairs = (((3,), (2,)), ((1, 1), (1, 1)), ((2, 0), (0, 1)))
        for fc_lam, fc_mu in pairs:
            lam = DominantWeight(from_fundamental(fc_lam))
            mu = DominantWeight(from_fundamental(fc_mu))
            # every constituent's highest weight is lam plus a weight of V(mu)
            candidates = set()
            for key in freudenthal_multiplicities(mu):
                for w in set(itertools.permutations(key)):
                    nu = tuple(a + b for a, b in zip(lam.canonical, w))
                    if all(nu[i] >= nu[i + 1] for i in range(len(nu) - 1)):
                        candidates.add(nu)
            total = sum(
                tensor_product(lam, mu, DominantWeight(nu)) * weyl_dimension(DominantWeight(nu))
                for nu in candidates
            )
            assert total == weyl_dimension(lam) * weyl_dimension(mu), (fc_lam, fc_mu)


class TestRayPolynomial:
    def test_evaluate_horner(self):
        p = RayPolynomial(
            coefficients=(Fraction(1), Fraction(2), Fraction(1)),
            sample_points=(1, 2, 3),
            verified_points=(4, 5),
        )
        assert p.evaluate(10) == 121
        assert p.degree == 2

    def test_degree_ignores_trailing_zeros(self):
        p = RayPolynomial(
            coefficients=(Fraction(3), Fraction(0), Fraction(0)),
            sample_points=(1,),
            verified_points=(),
        )
        assert p.degree == 0


class TestMultiplicityPolynomial:
    def test_theta_ray_rank_two(self):
        fit = multiplicity_polynomial(theta(2), (0, 0, 0))
        assert isinstance(fit, RayPolynomial)
        assert fit.coefficients == (Fraction(1), Fraction(1))  # N + 1

    def test_constant_ray(self):
        lam = DominantWeight((1, 0, -1))
        fit = multiplicity_polynomial(lam, (1, 0, -1))
        assert fit.coefficients == (Fraction(1),)

    def test_matches_direct_values(self):
        fit = multiplicity_polynomial(theta(3), (0, 0, 0, 0))
        for n in (1, 2, 3, 9):
            expected = multiplicity(theta(3).scaled(n), (0, 0, 0, 0))
            assert fit.evaluate(n) == expected

    def test_fit_reproduces_counts_at_sample_points(self):
        lam = theta(2)
        fit = multiplicity_polynomial(lam, (0, 0, 0))
        for n in fit.sample_points:
            assert fit.evaluate(n) == multiplicity(lam.scaled(n), (0, 0, 0))

    def test_lattice_class_ray_fits_with_step(self):
        # N*(fc (1,0)) meets the root lattice only when 3 divides N (the
        # counts run 0,0,1,0,0,1,...), so the fit samples the multiples of 3
        lam = DominantWeight(from_fundamental((1, 0)))
        fit = multiplicity_polynomial(lam, (0, 0, 0))
        assert isinstance(fit, RayPolynomial)
        assert fit.step == 3
        assert fit.coefficients == (Fraction(1),)
        assert fit.sample_points == (3, 6)
        assert fit.verified_points == (9, 12)
        assert [multiplicity(lam.scaled(n), (0, 0, 0)) for n in range(1, 7)] == [0, 0, 1, 0, 0, 1]

    def test_translated_lattice_class_ray_has_step_three(self):
        # lam = omega_1 and mu = (1/3, 1/3, 1/3): the zero weight of Sym^N
        fit = multiplicity_polynomial(DominantWeight((1, 0, 0)), (Fraction(1, 3),) * 3)
        assert isinstance(fit, RayPolynomial)
        assert fit.step == 3
        assert fit.coefficients == (Fraction(1),)

    def test_step_is_order_of_the_root_lattice_class(self):
        # s = (r+1)/gcd(r+1, c) for c = sum_i i*f_i mod r+1 of lam - mu
        for lam_fc, mu_fc in (((1, 0), (0, 0)), ((0, 1), (1, 0)), ((2, 1), (0, 0)),
                              ((1, 0, 0), (0, 0, 0)), ((0, 1, 0), (0, 0, 0)),
                              ((1, 1, 0), (0, 0, 0)), ((2, 0, 0), (0, 0, 0))):
            r = len(lam_fc)
            c = sum(i * (a - b) for i, (a, b) in enumerate(zip(lam_fc, mu_fc), start=1))
            fit = multiplicity_polynomial(
                DominantWeight(from_fundamental(lam_fc)), from_fundamental(mu_fc)
            )
            assert isinstance(fit, RayPolynomial), (lam_fc, mu_fc)
            assert fit.step == (r + 1) // math.gcd(r + 1, c), (lam_fc, mu_fc)

    def test_non_polynomial_counts_report_chamber_crossing(self):
        fit = _ray_fit(lambda n: n ** 3, 1, 2)
        assert isinstance(fit, RayFitFailure)
        assert fit.reason == "ray crosses chamber structure inconsistently"
        assert fit.sample_points == (2, 4, 6, 8)
        assert fit.values == (8, 64, 216, 512)


class TestTensorPolynomial:
    def test_adjoint_triple_ray(self):
        adj = DominantWeight((1, 0, -1))
        fit = tensor_polynomial(adj, adj, adj)
        assert isinstance(fit, RayPolynomial)
        assert fit.evaluate(1) == 2
        assert fit.evaluate(1) == tensor_bruteforce_lr(adj, adj, adj)
        assert fit.coefficients == (Fraction(1), Fraction(1))

    def test_cartan_component_ray_is_constant_one(self):
        lam = DominantWeight(from_fundamental((1, 2)))
        mu = DominantWeight(from_fundamental((2, 0)))
        nu = DominantWeight(from_fundamental((3, 2)))
        fit = tensor_polynomial(lam, mu, nu)
        assert fit.coefficients == (Fraction(1),)

    def test_even_lattice_class_ray_has_step_two(self):
        # lam + mu - nu is in the root lattice only for even N: the counts
        # run 0, 12, 0, 50, 0, 133
        w = DominantWeight(from_fundamental((1, 1, 1)))
        fit = tensor_polynomial(w, w, w)
        assert isinstance(fit, RayPolynomial)
        assert fit.step == 2
        assert fit.sample_points == (2, 4, 6, 8)
        assert fit.verified_points == (10, 12)
        assert fit.coefficients == (1, Fraction(7, 4), Fraction(9, 8), Fraction(3, 8))
        for n in (2, 4):
            scaled = w.scaled(n)
            assert fit.evaluate(n) == tensor_bruteforce_lr(scaled, scaled, scaled)
        for n in (6, 8):
            scaled = w.scaled(n)
            assert fit.evaluate(n) == tensor_product(scaled, scaled, scaled)
        assert tensor_product(w.scaled(3), w.scaled(3), w.scaled(3)) == 0

    def test_polynomial_values_match_lr_on_ray(self):
        adj = DominantWeight((1, 0, -1))
        fit = tensor_polynomial(adj, adj, adj)
        for n in (1, 2, 3, 4):
            scaled = adj.scaled(n)
            assert fit.evaluate(n) == tensor_bruteforce_lr(scaled, scaled, scaled)


fundamental_coords = st.lists(st.integers(0, 3), min_size=1, max_size=3)
shifts = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _translated(v, c):
    return tuple(x + c for x in v)


class TestIntegerRepresentatives:
    @settings(max_examples=60, deadline=None)
    @given(fundamental_coords, st.data(), shifts)
    def test_multiplicity_translation_invariant(self, lam_fc, data, c):
        r = len(lam_fc)
        lam = DominantWeight(from_fundamental(lam_fc))
        mu = from_fundamental(data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r)))
        assert multiplicity(DominantWeight(_translated(lam.canonical, c)), _translated(mu, c)) == (
            multiplicity(lam, mu)
        )

    @settings(max_examples=40, deadline=None)
    @given(fundamental_coords, st.data(), shifts, shifts)
    def test_tensor_translation_invariant(self, lam_fc, data, c1, c2):
        r = len(lam_fc)
        coords = st.lists(st.integers(0, 3), min_size=r, max_size=r)
        lam, mu, nu = (from_fundamental(fc) for fc in (lam_fc, data.draw(coords), data.draw(coords)))
        moved = [DominantWeight(_translated(w, c)) for w, c in ((lam, c1), (mu, c2), (nu, c1 + c2))]
        assert tensor_product(*moved) == tensor_product(*map(DominantWeight, (lam, mu, nu)))

    def test_partition_arguments_are_ints(self, monkeypatch):
        seen = []

        def recording(fn, items):
            seen.extend(items)
            return fn(items)

        monkeypatch.setattr(kostant.formulas, "map_counts", recording)
        third = Fraction(1, 3)
        assert multiplicity(theta(3), (0, 0, 0, 0)) == 8
        assert multiplicity(DominantWeight((1 + third, third, third)), (third, 1 + third, third)) == 1
        adj = DominantWeight((Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2)))
        assert tensor_product(adj, adj, DominantWeight((2, 1, 0))) == 2
        assert seen
        assert all(type(x) is int for arg in seen for x in arg)
