"""Iterated residues, special permutation orders, partition counts."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from kostant import residues
from kostant.arbitration import descent_sign
from kostant.formulas import multiplicity, tensor_product
from kostant.permutations import Permutation
from kostant.reference import kostant_partition_bruteforce
from kostant.residues import (
    _binomial_rows,
    _binomials,
    _chamber,
    _partition_of,
    _plan,
    _residue_step,
    _special_orders,
    binomial,
    iterated_residue,
    iterated_residue_by_substitution,
    kostant_partition,
    partition_counts,
    partition_total,
    special_permutations,
)
from kostant.vectors import DominantWeight, ValidationError, deform, is_regular, theta


class TestBinomial:
    def test_non_negative_exponent(self):
        assert binomial(5, 2) == 10
        assert binomial(5, 0) == 1
        assert binomial(5, 7) == 0

    def test_negative_exponent(self):
        # (1+z)^(-2) = 1 - 2z + 3z^2 - 4z^3 + ...
        assert [binomial(-2, m) for m in range(4)] == [1, -2, 3, -4]

    def test_large_exponent_stays_cheap(self):
        assert binomial(10**9, 2) == 10**9 * (10**9 - 1) // 2

    def test_matches_expansion_product(self):
        # (1+z)^e * (1+z)^(-e) = 1, checked through degree 6
        for e in (-3, -1, 2, 4):
            for degree in range(7):
                conv = sum(
                    binomial(e, m) * binomial(-e, degree - m)
                    for m in range(degree + 1)
                )
                assert conv == (1 if degree == 0 else 0)


def by_definition(a):
    """Images of the special orders of a, by testing the prefix rule on all r! orders."""
    r = len(a) - 1
    out = []
    for images in itertools.permutations(range(1, r + 1)):
        ok = True
        s = 0
        for i in range(r - 1):
            s += a[images[i] - 1]
            if s >= 0:
                if images[i] > images[i + 1]:
                    ok = False
                    break
            else:
                if images[i] < images[i + 1]:
                    ok = False
                    break
        if ok:
            out.append(images)
    return out


class TestSpecialPermutations:
    def test_mixed_sign_rank_two(self):
        ws = special_permutations((3, -1, -2))
        assert [w.images for w in ws] == [(1, 2), (2, 1)]

    def test_identity_only_when_entries_non_negative(self):
        ws = special_permutations((1, 1, -2))
        assert [w.images for w in ws] == [(1, 2)]
        ws = special_permutations((2, 0, 1, -3))
        assert [w.images for w in ws] == [(1, 2, 3)]

    def test_empty_when_first_entry_negative(self):
        # no admissible first position: every order dies at depth one
        assert special_permutations(deform((-1, 2, -1))) == []

    def test_deformed_flat_vector(self):
        ws = special_permutations(deform((2, -1, -1, 0)))
        assert [w.images for w in ws] == [
            (1, 2, 3),
            (2, 1, 3),
            (3, 1, 2),
            (3, 2, 1),
        ]

    def test_prefix_rule_brute_force(self):
        # the pruned search must match the definition applied to all r!
        rng = random.Random(11)
        for _ in range(120):
            r = rng.randint(1, 4)
            head = [rng.randint(-4, 4) for _ in range(r)]
            a = tuple(head) + (-sum(head),)
            got = [w.images for w in special_permutations(a)]
            assert got == by_definition(a), a

    def test_vector_that_does_not_sum_to_zero_is_refused(self):
        # its last entry is never read, so (5, 1, 2) would pass for (5, 1, -6)
        with pytest.raises(ValidationError) as err:
            special_permutations((5, 1, 2))
        assert err.value.code == "not-zero-sum"


class TestIteratedResidue:
    def test_rank_one_simple_pole(self):
        w = Permutation.identity(1)
        # integrand (1+z)^e / z has residue 1 at the origin for any e >= 0
        assert iterated_residue(w, (0,)) == 1
        assert iterated_residue(w, (5,)) == 1

    def test_rank_two_identity_order(self):
        w = Permutation.identity(2)
        # exponents from a=(1,0,-1): (1+z1)^2 (1+z2)^0 / (z1 z2 (z1-z2))
        assert iterated_residue(w, (2, 0)) == 2

    def test_hand_expanded_terms(self):
        # a = (2,-1,-1): exponent vector (a_1 + 1, a_2) = (3, -1); the two
        # orders contribute 3 and 1, and the signed total 3 - 1 = 2 is the
        # partition count
        assert iterated_residue(Permutation((1, 2)), (3, -1)) == 3
        assert iterated_residue(Permutation((2, 1)), (3, -1)) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_substitution_form_agrees(self, r, data):
        exps = tuple(
            data.draw(st.integers(-4, 7), label=f"e{k}") for k in range(r)
        )
        images = tuple(data.draw(st.permutations(list(range(1, r + 1)))))
        w = Permutation(images)
        assert iterated_residue(w, exps) == iterated_residue_by_substitution(w, exps)

    @pytest.mark.parametrize("residue", [iterated_residue, iterated_residue_by_substitution])
    def test_non_integral_exponent_is_refused_not_truncated(self, residue):
        with pytest.raises(ValidationError) as err:
            residue(Permutation((1,)), (Fraction(1, 2),))
        assert err.value.code == "non-integral"
        assert residue(Permutation((1, 2)), (Fraction(6, 2), -1)) == 3

    @pytest.mark.parametrize("residue", [iterated_residue, iterated_residue_by_substitution])
    @pytest.mark.parametrize("images, exponents", [((1, 2), (1,)), ((1,), (1, 0)), ((2, 1), ())])
    def test_size_mismatch_is_a_bad_length(self, residue, images, exponents):
        with pytest.raises(ValidationError) as err:
            residue(Permutation(images), exponents)
        assert err.value.code == "bad-length"


class TestPartitionTotal:
    def test_regular_argument_needs_no_deformation(self):
        rng = random.Random(23)
        found = 0
        while found < 40:
            r = rng.randint(2, 4)
            head = [rng.randint(-5, 5) for _ in range(r)]
            a = tuple(head) + (-sum(head),)
            if not is_regular(a):
                continue
            found += 1
            assert partition_total(a, a) == partition_total(a, deform(a)), a

    def test_non_integral_argument_is_refused_not_truncated(self):
        # int() would read (3/2, -3/2) as (1, -1), whose count is 1.
        half = (Fraction(3, 2), Fraction(-3, 2))
        with pytest.raises(ValidationError) as err:
            partition_total(half, half)
        assert err.value.code == "non-integral"

    @pytest.mark.parametrize("a, regularised", [((1, -1), (2, 0, -2)), ((2, 0, -2), (1, -1)),
                                                ((1, 0, -1), deform((1, 0, 0, -1)))])
    def test_rank_mismatch_is_a_bad_length(self, a, regularised):
        with pytest.raises(ValidationError) as err:
            partition_total(a, regularised)
        assert err.value.code == "bad-length"

    def test_order_vector_that_does_not_sum_to_zero_is_refused(self):
        with pytest.raises(ValidationError) as err:
            partition_total((1, -1), (1, 2))
        assert err.value.code == "not-zero-sum"

    def test_orders_from_a_non_regular_vector(self):
        # A zero subset sum reads as non-negative, as in the deformation.
        assert partition_total((1, 0, -1), (1, -1, 0)) == 2 == kostant_partition((1, 0, -1))
        assert partition_total((1, 0, -1, 0), (1, 0, -1, 0)) == partition_total(
            (1, 0, -1, 0), deform((1, 0, -1, 0))) == 2


class TestKostantPartition:
    def test_zero_vector(self):
        assert kostant_partition((0, 0, 0)) == 1

    def test_rank_one(self):
        assert kostant_partition((5, -5)) == 1
        assert kostant_partition((-5, 5)) == 0

    def test_rank_two_examples(self):
        assert kostant_partition((1, 0, -1)) == 2
        assert kostant_partition((1, 1, -2)) == 2
        assert kostant_partition((2, 0, -2)) == 3
        assert kostant_partition((2, -1, -1)) == 2

    def test_outside_cone_is_zero(self):
        assert kostant_partition((-1, 2, -1)) == 0
        assert kostant_partition((1, -2, 1)) == 0

    def test_non_regular_interior_point(self):
        assert kostant_partition((1, 0, -1, 0)) == 2
        assert kostant_partition((2, -1, -1, 0)) == 2

    def test_rejects_non_integral(self):
        from fractions import Fraction

        with pytest.raises(ValidationError) as err:
            kostant_partition((Fraction(1, 2), Fraction(-1, 2), 0))
        assert err.value.code == "non-integral"

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValidationError) as err:
            kostant_partition((1, 0, 0))
        assert err.value.code == "not-zero-sum"

    def test_partition_count_grows_polynomially_on_a_ray(self):
        # k(N*(1,0,-1)) counts pairs m+n=N: exactly N+1 values
        for n in (0, 1, 2, 7, 40):
            assert kostant_partition((n, 0, -n)) == n + 1

    def test_single_polynomial_along_regular_directions(self):
        # along a fixed regular direction, the first r(r-1)/2+3 counts lie on
        # one polynomial of degree at most r(r-1)/2: its order-(d+1) finite
        # differences vanish
        for direction in ((2, -1, -1), (4, 1, -2, -3)):
            r = len(direction) - 1
            assert is_regular(direction)
            d = r * (r - 1) // 2
            values = [
                kostant_partition(tuple(n * x for x in direction))
                for n in range(1, d + 4)
            ]
            diffs = values
            for _ in range(d + 1):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            assert all(x == 0 for x in diffs), (direction, values)


_BOXES = [(1, 4), (2, 4), (3, 4), (4, 4), (5, 2)]


def _zero_sum_box(rank, bound):
    """Zero-sum vectors whose first `rank` entries lie in [-bound, bound]."""
    for head in itertools.product(range(-bound, bound + 1), repeat=rank):
        yield head + (-sum(head),)


class TestIntegerOrderSelection:
    def test_integral_vectors_need_no_deformation(self):
        # The engine selects the orders of a itself.  The deformation moves a
        # partial sum of i < r entries by i/(2r), which never changes the sign
        # test of an integer sum, so the orders agree on every integral
        # vector, regular or not.
        regular = 0
        for rank, bound in _BOXES:
            for a in _zero_sum_box(rank, bound):
                assert special_permutations(a) == special_permutations(deform(a)), a
                regular += is_regular(a)
        assert regular == 1630

    def test_rational_input_is_scaled_not_rounded(self):
        assert special_permutations((Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6))) == \
            special_permutations((2, -3, 1))
        assert [w.images for w in special_permutations((Fraction(-1, 4), 1, Fraction(-3, 4)))] == []


def _mixed_batch():
    """Ranks 1-6, in and out of the cone, non-regular, repeated, entries to 10^9."""
    rng = random.Random(31)
    batch = [(0, 0, 0), (1, 0, -1, 0), (2, -1, -1, 0), (3, -3, 0, 2, -2)]
    for _ in range(240):
        r = rng.randint(1, 6)
        size = rng.choice((2, 3, 10**9))
        if rng.random() < 0.5:  # a sum of positive roots
            a = [0] * (r + 1)
            for _ in range(rng.randint(0, 6)):
                i, j = sorted(rng.sample(range(r + 1), 2))
                c = rng.randint(0, size)
                a[i] += c
                a[j] -= c
        else:
            head = [rng.randint(-size, size) for _ in range(r)]
            a = head + [-sum(head)]
        batch.append(tuple(a))
    return batch + batch[::5]


class TestPartitionCounts:
    def test_batch_matches_single_calls_and_dp(self):
        batch = _mixed_batch()
        _partition_of.cache_clear()
        got = partition_counts(batch)
        singles = []
        for a in batch:
            _partition_of.cache_clear()
            singles.append(kostant_partition(a))
        assert got == singles
        assert {len(a) - 1 for a in batch} == {1, 2, 3, 4, 5, 6}
        assert 0 < sum(1 for v in got if v) < len(batch)
        assert any(v > 10**9 for v in got)
        assert any(not is_regular(a) for a, v in zip(batch, got) if v)
        checked = 0
        for a, value in zip(batch, got):
            if max(map(abs, a)) <= 3 and len(a) <= 6:
                assert value == kostant_partition_bruteforce(a), a
                checked += 1
        assert checked >= 50

    def test_memo_counts_hits_and_misses_per_vector(self):
        _partition_of.cache_clear()
        a, b = (2, 0, -2), (1, 1, -2)
        assert partition_counts([a, b, a]) == [3, 2, 3]
        info = _partition_of.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
        assert kostant_partition(b) == 2
        assert _partition_of.cache_info().hits == 2
        assert partition_counts([]) == []

    @pytest.mark.parametrize("vector, code", [
        ((Fraction(1, 2), 0, Fraction(-1, 2)), "non-integral"),
        ((1.9, 0, -1.9), "inexact-entry"),
    ], ids=["half-integral", "float"])
    def test_entries_that_are_not_integers_are_refused(self, vector, code):
        for count in (lambda a: partition_counts([(2, 0, -2), a]), kostant_partition):
            with pytest.raises(ValidationError) as err:
                count(vector)
            assert err.value.code == code
        assert partition_counts([(Fraction(2), 0, Fraction(-2))]) == [3]

    @pytest.mark.parametrize("r, steps", [(4, 6), (5, 15), (6, 39)])
    def test_theta_takes_one_step_per_distinct_order_prefix(self, monkeypatch, r, steps):
        # Walking each term on its own takes 72, 438 and 3582 steps.
        calls = []
        step = residues._residue_step

        def counted(*args):
            calls.append(args[-1])
            return step(*args)

        monkeypatch.setattr(residues, "_residue_step", counted)
        _partition_of.cache_clear()
        assert multiplicity(theta(r), (0,) * (r + 1)) == 2 ** (r * (r - 1) // 2)
        assert len(calls) == steps


def _cheap_stream(seed, count):
    """Sums of a few positive roots with entries up to 3, ranks 1-6."""
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(1, 6)
        a = [0] * (r + 1)
        for _ in range(rng.randint(0, 4)):
            i, j = sorted(rng.sample(range(r + 1), 2))
            c = rng.randint(0, 3)
            a[i] += c
            a[j] -= c
        yield tuple(a)


@st.composite
def _cone_vectors(draw):
    """Cone vectors of ranks 2-5, entries bounded so the DP oracle can answer."""
    r = draw(st.integers(2, 5))
    bound = 12 if r < 5 else 5  # rank 5 past 5 needs more updates than the DP allows
    a, prefix = [], 0
    for k in range(1, r + 1):
        # keep prefix <= bound * (r + 1 - k), so the last entry can close it
        x = draw(st.integers(max(-bound, -prefix), min(bound, bound * (r + 1 - k) - prefix)))
        a.append(x)
        prefix += x
    return tuple(a) + (-prefix,)


class TestCompiledStep:
    def test_recurrence_rows_are_exact_binomials(self):
        # Covers the zero band 0 <= e < m, where C(e, m) = 0 for every later m.
        exponents = list(range(-30, 31)) + [10**9, -10**9]
        for sign in (1, -1):
            rows = _binomial_rows(sign, exponents, 12)
            assert len(rows) == 12
            for m, row in enumerate(rows):
                assert row == [sign * binomial(e, m) for e in exponents], (sign, m)
                assert [_binomials(sign, e, 12)[m] for e in exponents] == row

    def test_one_column_step_is_a_column_of_the_rows_step(self):
        # keys[0] has a pole of order 2 at z_2, so with e_t = 0 the C(0, 1) = 0
        # term gives an output that the one-column state must drop.
        keys, active = ((-1, -2), (-2, -1)), [1, 2]
        rows = [[1, 1, 2], [3, -1, 0]]
        e_t = [0, 5, -4]
        wide_keys, wide = _residue_step(keys, rows, active, e_t, 2)
        for j, e in enumerate(e_t):
            got_keys, got = _residue_step(keys, [row[j] for row in rows], active, [e], 2)
            assert all(type(v) is int and v for v in got)
            expected = [(k, row[j]) for k, row in zip(wide_keys, wide) if row[j]]
            assert list(zip(got_keys, got)) == expected, e
        assert any(not row[0] for row in wide)  # so column 0 had outputs to drop

    def test_narrowing_reaches_the_one_column_kernel(self, monkeypatch):
        widths = []
        step = residues._residue_step

        def spied(keys, rows, active, e_t, t):
            widths.append((len(e_t), len(active)))
            return step(keys, rows, active, e_t, t)

        monkeypatch.setattr(residues, "_residue_step", spied)
        _partition_of.cache_clear()
        batch = [(2, -1, 1, -2), (1, 1, -1, -1)]
        assert partition_counts(batch) == [kostant_partition_bruteforce(a) for a in batch] == [4, 5]
        # The walk is depth first, so a step's first child step comes right after it.
        assert ((2, 3), (1, 2)) in zip(widths, widths[1:])

    @settings(max_examples=80, deadline=None)
    @given(_cone_vectors())
    def test_kernels_agree_with_the_dp_oracle(self, a):
        # Alone: a one-column walk from the root.  Beside unrelated vectors of
        # its rank: a batched walk that narrows to a's column at depth.
        r = len(a) - 1
        others = [(1,) + (0,) * (r - 1) + (-1,), (r,) + (-1,) * r, (2, -2) + (0,) * (r - 1)]
        _partition_of.cache_clear()
        alone = partition_counts([a])[0]
        _partition_of.cache_clear()
        batched = partition_counts(others + [a])[-1]
        assert alone == batched == kostant_partition_bruteforce(a), a

    def test_values_do_not_depend_on_the_plan_cache(self):
        batch = _mixed_batch()
        _plan.cache_clear()
        _partition_of.cache_clear()
        cold = partition_counts(batch)
        _partition_of.cache_clear()
        warm = partition_counts(batch)
        half = len(batch) // 2
        _plan.cache_clear()
        _partition_of.cache_clear()
        split = partition_counts(batch[:half])
        _plan.cache_clear()
        split += partition_counts(batch[half:])
        assert cold == warm == split
        assert cold == [kostant_partition_bruteforce(a) if max(map(abs, a)) <= 3 else v
                        for a, v in zip(batch, cold)]

    def test_plan_cache_stays_bounded(self):
        stream = list(_cheap_stream(5, 600))
        assert {len(a) - 1 for a in stream} == {1, 2, 3, 4, 5, 6}
        _plan.cache_clear()
        _partition_of.cache_clear()
        maxsize = _plan.cache_info().maxsize
        assert maxsize is not None
        for a in stream:
            partition_counts([a])
            assert _plan.cache_info().currsize <= maxsize

    def test_eviction_keeps_values(self, monkeypatch):
        # A cache of 8 plans evicts on almost every step of a rank-5 or 6 walk.
        stream = list(_cheap_stream(6, 150))
        _partition_of.cache_clear()
        expected = partition_counts(stream)
        tiny = lru_cache(maxsize=8)(_plan.__wrapped__)
        monkeypatch.setattr(residues, "_plan", tiny)
        _partition_of.cache_clear()
        assert partition_counts(stream) == expected
        assert tiny.cache_info().currsize <= 8
        assert tiny.cache_info().misses > 100
        small = [(a, v) for a, v in zip(stream, expected) if len(a) <= 5]
        assert len(small) > 50
        assert all(kostant_partition_bruteforce(a) == v for a, v in small)


class TestChamberOrders:
    def test_cached_orders_follow_the_definition_on_boxes(self):
        # One search answers every vector of a chamber, so its entry must hold
        # for all of them, whichever vector filled it.
        vectors = [a for rank, bound in _BOXES for a in _zero_sum_box(rank, bound)]
        expected = [by_definition(a) for a in vectors]
        _special_orders.cache_clear()
        for _ in ("cold", "warm"):
            for a, images in zip(vectors, expected):
                orders = _special_orders(_chamber(a))
                assert [w for w, _ in orders] == images, a
                assert [sign for _, sign in orders] == [descent_sign(Permutation(w)) for w in images], a
        info = _special_orders.cache_info()
        assert info.misses == info.currsize == 2 + 6 + 32 + 370 + 1592
        assert info.hits == 2 * len(vectors) - info.misses

    def test_search_carries_its_signs_without_permutations(self, monkeypatch):
        def no_permutation(images):
            raise AssertionError(f"built Permutation({images!r})")

        monkeypatch.setattr(residues, "Permutation", no_permutation)
        _special_orders.cache_clear()
        orders = _special_orders(_chamber((-1, 2, -3, 4, -5, 3)))
        assert len(orders) == 4 and {sign for _, sign in orders} == {1, -1}

    @pytest.mark.parametrize("r, args, chambers", [(4, 16, 2), (5, 66, 5), (6, 402, 19)])
    def test_theta_arguments_fall_into_few_chambers(self, r, args, chambers):
        _partition_of.cache_clear()
        _special_orders.cache_clear()
        assert multiplicity(theta(r), (0,) * (r + 1)) == 2 ** (r * (r - 1) // 2)
        assert _partition_of.cache_info().misses == args
        assert _special_orders.cache_info().misses == chambers

    def test_chamber_cache_stays_bounded(self, monkeypatch):
        stream = list(_cheap_stream(7, 400))
        _partition_of.cache_clear()
        expected = partition_counts(stream)
        assert _special_orders.cache_info().maxsize == 4096
        tiny = lru_cache(maxsize=8)(_special_orders.__wrapped__)
        monkeypatch.setattr(residues, "_special_orders", tiny)
        _partition_of.cache_clear()
        got = []
        for a in stream:
            got += partition_counts([a])
            assert tiny.cache_info().currsize <= 8
        assert got == expected
        assert tiny.cache_info().misses > 50


class TestRankLimit:
    """An in-cone argument above vectors._SUBSET_RANK_LIMIT is refused before
    its 2^r subset sums are built; the limit is lowered here, never reached."""

    @pytest.fixture(autouse=True)
    def lowered(self, monkeypatch):
        from kostant import vectors

        monkeypatch.setattr(vectors, "_SUBSET_RANK_LIMIT", 3)
        monkeypatch.setattr(residues, "_partition_of", residues._Memo(1 << 15))

    @pytest.mark.parametrize("call", [
        lambda: kostant_partition((1, 0, 0, 0, -1)),
        lambda: partition_counts([(1, -1), (2, 0, 0, -1, -1)]),
        lambda: special_permutations((1, 0, 0, 0, -1)),
        lambda: partition_total((1, 0, 0, 0, -1), deform((1, 0, 0, 0, -1))),
        lambda: multiplicity(theta(4), (0,) * 5),
        lambda: tensor_product(*[DominantWeight((1, 0, 0, 0, -1))] * 2, DominantWeight((0,) * 5)),
    ], ids=["kostant_partition", "partition_counts", "special_permutations",
            "partition_total", "multiplicity", "tensor_product"])
    def test_above_the_limit_is_refused(self, call):
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.code == "rank-too-large"

    def test_at_the_limit_and_outside_the_cone_still_count(self):
        assert kostant_partition((1, 0, 0, -1)) == kostant_partition_bruteforce((1, 0, 0, -1)) == 4
        assert partition_counts([(-1, 0, 0, 0, 1), (0, 0, 1, -2, 1)]) == [0, 0]
