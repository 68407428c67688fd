"""Multiplicity and tensor formulas, and their dilation polynomials."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import kostant.formulas
from kostant import BudgetExceeded
from kostant.arbitration import _couple_terms
from kostant.formulas import (
    TERM_LIMIT,
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
from kostant.residues import _partition_of, partition_counts
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


def _dominant_boxes(rank, top, nu_top):
    """Every (lam, mu, nu) of one rank with fundamental coordinates up to
    top (lam, mu) and nu_top (nu), nu in the root-lattice class of lam + mu."""
    def cls(f):
        return sum(i * x for i, x in enumerate(f, 1)) % (rank + 1)

    pairs = list(itertools.product(range(top + 1), repeat=rank))
    for f1, f2, f3 in itertools.product(pairs, pairs, itertools.product(range(nu_top + 1), repeat=rank)):
        if cls(f3) == (cls(f1) + cls(f2)) % (rank + 1):
            yield tuple(DominantWeight(from_fundamental(f)) for f in (f1, f2, f3))


@pytest.fixture
def term_counts(monkeypatch):
    """The number of terms of each alternating sum the formulas count."""
    counts = []
    original = kostant.formulas._alternating_sum

    def counting(terms):
        terms = list(terms)
        counts.append(len(terms))
        return original(terms)

    monkeypatch.setattr(kostant.formulas, "_alternating_sum", counting)
    return counts


def _steinberg(lam, mu, nu):
    """The paper's double sum: signature product times partition count, over couples."""
    terms = _couple_terms(lam, mu, nu)
    values = partition_counts([arg for _, _, arg in terms])
    return sum(w1.signature * w2.signature * v for (w1, w2, _), v in zip(terms, values))


class TestWeylSortedMultiplicity:
    """m_lam(mu) = m_lam(w mu): the sum runs on mu's dominant form."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_invariant_under_the_weyl_group(self, r, data):
        coords = st.lists(st.integers(0, 2), min_size=r, max_size=r)
        lam = DominantWeight(from_fundamental(data.draw(coords, label="lam")))
        mu = from_fundamental(data.draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r), label="mu"))
        w = data.draw(st.permutations(range(r + 1)), label="w")
        moved = tuple(mu[i] for i in w)
        assert multiplicity(lam, moved) == multiplicity_freudenthal(lam, mu)

    def test_shuffled_mu_has_the_terms_of_its_sorted_form(self, term_counts):
        rng = random.Random(61)
        sorted_mu = (2, 1, 0, -1, -2)
        value = multiplicity(theta(4), sorted_mu)
        for _ in range(10):
            shuffled = tuple(rng.sample(sorted_mu, 5))
            assert multiplicity(theta(4), shuffled) == value
        assert len(set(term_counts)) == 1 and term_counts[0] > 1, term_counts

    @pytest.mark.parametrize("r, terms", [(4, 16), (5, 66), (6, 402)])
    def test_theta_term_counts(self, term_counts, r, terms):
        assert multiplicity(theta(r), (0,) * (r + 1)) == 2 ** (r * (r - 1) // 2)
        assert term_counts == [terms]


class TestBrauerKlimyk:
    """The tensor coefficient as a signed sum of multiplicities."""

    @pytest.mark.parametrize("rank, top, nu_top", [(1, 5, 10), (2, 3, 6), (3, 1, 3)])
    def test_agrees_with_lr_on_boxes(self, rank, top, nu_top):
        nonzero = 0
        for lam, mu, nu in _dominant_boxes(rank, top, nu_top):
            value = tensor_product(lam, mu, nu)
            assert value == tensor_bruteforce_lr(lam, mu, nu), (lam, mu, nu)
            nonzero += value > 0
        assert nonzero > 20

    @pytest.mark.parametrize("rank", [4, 5])
    def test_agrees_with_the_steinberg_couple_sum(self, rank):
        rng = random.Random(700 + rank)
        checked = nonzero = 0
        while checked < 60:
            f1, f2 = ([rng.randint(0, 2) for _ in range(rank)] for _ in range(2))
            # lam + mu less a few simple roots: the same class, often dominant
            f3 = [a + b for a, b in zip(f1, f2)]
            for _ in range(rng.randint(0, 4)):
                i = rng.randrange(rank)
                f3[i] -= 2
                if i:
                    f3[i - 1] += 1
                if i + 1 < rank:
                    f3[i + 1] += 1
            if min(f3) < 0:
                continue
            lam, mu, nu = (DominantWeight(from_fundamental(f)) for f in (f1, f2, f3))
            shift = Fraction(sum(lam.canonical) + sum(mu.canonical), rank + 1)
            nu = DominantWeight(tuple(x + shift for x in nu.canonical))
            value = tensor_product(lam, mu, nu)
            assert value == _steinberg(lam, mu, nu), (f1, f2, f3)
            checked += 1
            nonzero += value > 0
        assert nonzero > 30

    def test_one_term_where_steinberg_has_1381_couples(self, term_counts):
        # the benchmark's tensor4: one w is found, and its gamma = lam has
        # one Kostant term
        lam = DominantWeight((6, 3, 0, -3, -6))
        assert tensor_product(lam, lam, DominantWeight((0, 0, 0, 0, 0))) == 1
        assert len(_couple_terms(lam, lam, DominantWeight((0, 0, 0, 0, 0)))) == 1381
        assert term_counts == [1]

    def test_gammas_whose_signs_cancel_are_dropped(self, monkeypatch):
        # V(rho) (x) V(0) holds no V(omega_2): of the five w found, two reach
        # gamma = (3, 2, 1, 0) with opposite signs, and its terms are not built
        asked = []
        original = kostant.formulas._kostant_terms
        monkeypatch.setattr(kostant.formulas, "_kostant_terms", lambda u, v: asked.append(v) or original(u, v))
        lam, mu, nu = (DominantWeight(from_fundamental(f)) for f in ((1, 1, 1), (0, 0, 0), (0, 1, 0)))
        assert tensor_product(lam, mu, nu) == 0
        assert len(asked) == 3 and (3 + 3, 2 + 2, 1 + 1, 0) not in asked


class TestTermLimit:
    """A sum of more than TERM_LIMIT terms is refused before any of it is
    counted; the limit is lowered here, never reached."""

    @pytest.mark.parametrize("weights", [
        (theta(4), (0,) * 5),
        tuple(DominantWeight(from_fundamental(f)) for f in ((2, 1, 2), (1, 2, 1), (1, 1, 1))),
    ], ids=["multiplicity", "tensor_product"])
    def test_lowered_limit_is_budget_exceeded(self, monkeypatch, term_counts, weights):
        call = multiplicity if len(weights) == 2 else tensor_product
        value = call(*weights)
        terms, = term_counts
        assert terms > 1
        monkeypatch.setattr(kostant.formulas, "TERM_LIMIT", terms)
        _partition_of.cache_clear()
        assert call(*weights) == value  # at the limit the sum still runs

        def refused(args):
            raise AssertionError("a sum past the term limit was counted")

        monkeypatch.setattr(kostant.formulas, "TERM_LIMIT", terms - 1)
        monkeypatch.setattr(kostant.formulas, "partition_counts", refused)
        with pytest.raises(BudgetExceeded) as err:
            call(*weights)
        assert err.value.code == "budget-exceeded"

    def test_theta_seven_is_inside_the_limit(self, monkeypatch, term_counts):
        # Its terms are built but not walked: the walk takes seconds.
        monkeypatch.setattr(kostant.formulas, "partition_counts", lambda args: [0] * len(args))
        assert multiplicity(theta(7), (0,) * 8) == 0
        assert term_counts == [2466] and 2466 <= TERM_LIMIT


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

    def test_fields_and_default_step(self):
        p = RayPolynomial((1, Fraction(7, 4)), (2, 4), (6, 8))
        assert (p.coefficients, p.sample_points, p.verified_points, p.step) == (
            (1, Fraction(7, 4)), (2, 4), (6, 8), 1)
        assert RayPolynomial((1,), (2,), (4,), step=2).step == 2
        assert p.evaluate(Fraction(4, 7)) == 2 and type(p.evaluate(4)) is int

    def test_failure_fields(self):
        f = RayFitFailure("ray crosses chamber structure inconsistently", (1, 2, 3), (1, 4, 10))
        assert (f.reason, f.sample_points, f.values) == (
            "ray crosses chamber structure inconsistently", (1, 2, 3), (1, 4, 10))

    def test_results_are_immutable(self):
        p = RayPolynomial((1, 1), (1, 2), (3, 4))
        f = RayFitFailure("reason", (1,), (0,))
        for record, field in ((p, "coefficients"), (p, "step"), (f, "values")):
            with pytest.raises(AttributeError):
                setattr(record, field, ())
        assert p.coefficients == (1, 1) and f.values == (0,)


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
        # ints where integral, Fractions otherwise, in the fit and its values alike
        assert [type(c) for c in fit.coefficients] == [int, Fraction, Fraction, Fraction]
        assert type(fit.evaluate(2)) is int and fit.evaluate(1) == Fraction(17, 4)
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
