"""Iterated residues, special permutation orders, partition counts."""

import itertools
import math
import random
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _arbitration import descent_sign

from kostant import permsearch, residues
from kostant.formulas import multiplicity, multiplicity_polynomial, tensor_product
from kostant.permsearch import BudgetExceeded, valid_permutations
from kostant.permutations import Permutation
from kostant.reference import kostant_partition_bruteforce
from kostant.residues import (
    _binomials,
    _chamber,
    _compile,
    _exponents,
    _partition_of,
    _plan,
    _program,
    _run,
    _special_orders,
    iterated_residue,
    kostant_partition,
    partition_counts,
    partition_total,
    special_permutations,
)
from kostant.vectors import DominantWeight, ValidationError, deform, in_positive_cone, is_regular, subset_sums, theta


Step = namedtuple("Step", "depth variable products position holds ends top")


def _steps(program):
    """A program's steps, named: the tree depth k of the node (w(1), ...,
    w(k+1)), which a residue depth i puts at r - 1 - i, its variable w(k+1)
    - 1, the products P(r, i) and the position of its shape, the columns it
    holds, its ends, and its variable's top.  The one reader of a program's
    layout in the tests."""
    (variables, shapes, holds, ends), tops = program
    r = len(tops)
    return [Step(r - 1 - i, v, products, p, held, reached, tops[v])
            for v, (products, i, p), held, reached in zip(variables, shapes, holds, ends)]


def _classes(program, exponent_columns):
    """Per step, the number of distinct exponent tuples that the columns it
    holds have on the variables of its node's prefix."""
    prefix, counts = [], []
    for step in _steps(program):
        prefix[step.depth:] = [step.variable]
        counts.append(len({tuple(exponent_columns[j][v] for v in prefix) for j in step.holds}))
    return counts


def _refused(*args):
    raise AssertionError("pricing a walk built a plan")


def _plans_built():
    """The plans built so far: a warm lookup is a hit, never a miss."""
    return _plan.cache_info().misses


def _named(refusal):
    """The multiply-adds that a refused walk's BudgetExceeded names."""
    return int(re.search(r"walk of (\d+) multiply-adds", str(refusal))[1])


def _searches(monkeypatch):
    """The chambers that _special_orders searches from here on, in call order."""
    searched = []
    search = residues._special_orders

    def spied(chamber):
        searched.append(chamber)
        return search(chamber)

    monkeypatch.setattr(residues, "_special_orders", spied)
    return searched


def binomial(e, m):
    """C(e, m) as the engine's recurrence gives it: entry m of `_binomials`."""
    return _binomials(e, m + 1)[m]


def exact_binomial(e, m):
    """C(e, m) from math.comb, by C(e, m) = (-1)^m C(m - e - 1, m) for e < 0."""
    return math.comb(e, m) if e >= 0 else (-1) ** m * math.comb(m - e - 1, m)


class TestBinomial:
    def test_non_negative_exponent(self):
        for e in range(0, 31):
            assert [binomial(e, m) for m in range(40)] == [math.comb(e, m) for m in range(40)], e
        assert binomial(10**9, 3) == math.comb(10**9, 3)

    def test_negative_exponent(self):
        # (1+z)^(-2) = 1 - 2z + 3z^2 - 4z^3 + ...
        assert [binomial(-2, m) for m in range(4)] == [1, -2, 3, -4]
        for e in list(range(-30, 0)) + [-10**9]:
            assert [binomial(e, m) for m in range(40)] == [exact_binomial(e, m) for m in range(40)], e

    def test_large_exponent_stays_cheap(self):
        assert binomial(10**9, 2) == 10**9 * (10**9 - 1) // 2
        assert binomial(-10**9, 2) == math.comb(10**9 + 1, 2)
        assert _binomials(-10**9, 12) == [exact_binomial(-10**9, m) for m in range(12)]

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


def iterated_residue_by_substitution(w, exponents):
    """IRes^w computed by relabelling variables instead of reordering residues.

    Substituting z_{w^{-1}(k)} for the k-th variable turns the standard
    integrand into the one with exponents permuted by w, at the cost of
    sign(w) from reordering the difference factors; the residues are then
    taken in the standard order.  Must agree with `iterated_residue`.
    """
    permuted = w.apply(residues._sized(exponents, len(w)))
    return w.signature * iterated_residue(Permutation.identity(len(w)), permuted)


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
    @pytest.mark.parametrize("images, exponents", [((1, 2), (1,)), ((1,), (1, 0)), ((2, 1), ()), ((), ())])
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

    def test_outside_the_cone_is_zero(self):
        # The bare alternating residue sum of these chambers is not zero:
        # (-1, 1) reads 1 and (-3, -3, 6) reads -3.
        assert partition_total((-1, 1), (-1, 1)) == 0
        assert partition_total((-3, -3, 6), (-3, -3, 6)) == 0
        outside = [a for r in (1, 2, 3) for a in _zero_sum_box(r, 3) if not in_positive_cone(a)]
        assert len(outside) == 243
        raw = [_run(_program((_chamber(a),)), [_exponents(a)])[0] for a in outside]
        assert sum(1 for v in raw if v) == 70
        for a in outside:
            assert partition_total(a, a) == 0 == kostant_partition(a), a
            assert partition_total(a, deform(a)) == 0, a

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

    def test_memo_evicts_the_least_recently_used_vector(self, monkeypatch):
        monkeypatch.setattr(_partition_of, "maxsize", 3)
        _partition_of.cache_clear()
        a, b, c, d = (2, 0, -2), (1, 1, -2), (3, -1, -2), (2, 1, -1, -2)
        e, f, g = (-1, 0, 1), (1, -1, 0, 0), (0, 2, -2)  # e is outside the cone
        assert partition_counts([a, b, c]) == [3, 2, 3]
        assert list(_partition_of) == [a, b, c]
        assert partition_counts([a]) == [3]  # a hit moves a to the newest end
        assert list(_partition_of) == [b, c, a]
        assert partition_counts([d]) == [13]  # the oldest, b, goes first
        assert list(_partition_of) == [c, a, d]
        assert tuple(_partition_of.cache_info()) == (1, 4, 3, 3)
        # An evicted vector is counted afresh, and one call of more fresh
        # vectors than the memo holds keeps the newest.
        for vectors in ([b], [c, e, f, g]):
            assert partition_counts(vectors) == [kostant_partition_bruteforce(v) for v in vectors]
        assert list(_partition_of) == [e, f, g]
        assert tuple(_partition_of.cache_info()) == (1, 9, 3, 3)

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

    @pytest.mark.parametrize("r, steps", [(4, 6), (5, 18), (6, 54)])
    def test_theta_takes_one_step_per_distinct_order_prefix(self, monkeypatch, r, steps):
        # One step per distinct images prefix w(1), ..., w(k), k < r: w(r)
        # follows from the rest.  Walking each term on its own takes 60, 426
        # and 3900 steps.
        taken = []
        run = residues._run

        def counted(program, exponent_columns):
            taken.append(len(_steps(program)))
            return run(program, exponent_columns)

        monkeypatch.setattr(residues, "_run", counted)
        _partition_of.cache_clear()
        _program.cache_clear()
        assert multiplicity(theta(r), (0,) * (r + 1)) == 2 ** (r * (r - 1) // 2)
        assert taken == [steps]

    def test_mixed_call_runs_a_cached_program_and_a_compiled_batch(self, monkeypatch):
        # Rank 3 has one fresh vector, so it runs the program of its
        # chamber's 1-tuple; rank 4 has three, compiled together into the
        # program of their chamber sequence.  Both programs are cached.
        lone, batch = (2, 1, -1, -2), [(3, -1, 0, -2, 0), (1, 1, -1, 0, -1), (2, 0, -1, -1, 0)]
        vectors = [batch[0], lone, batch[1], batch[0], batch[2], lone]
        expected = []
        for a in vectors:
            _partition_of.cache_clear()
            expected.append(kostant_partition(a))
        widths = []
        compile_ = residues._compile

        def spied(columns):
            widths.append(len(columns))
            return compile_(columns)

        monkeypatch.setattr(residues, "_compile", spied)
        _partition_of.cache_clear()
        _program.cache_clear()
        assert partition_counts(vectors) == expected
        assert expected[1] == 13
        assert sorted(widths) == [1, 3]
        assert _program.cache_info().misses == 2
        info = _partition_of.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 4, 4)
        assert partition_counts(vectors) == expected
        assert sorted(widths) == [1, 3]
        assert _partition_of.cache_info()[:2] == (8, 4)


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


def _expanded(keys, tpos):
    """The key set one residue step makes from `keys` by eliminating position
    tpos, and its number of products: a key e with pole order p = -e[tpos]
    gives one product per m_0 + m_1 + ... = p - 1, each other entry of e
    lowered by 1 + m_i."""
    out, products = set(), 0
    for exps in keys:
        base, total = exps[:tpos] + exps[tpos + 1:], -exps[tpos] - 1
        for ms in itertools.product(range(total + 1), repeat=len(base)):
            if sum(ms) <= total:
                out.add(tuple(e - 1 - m for e, m in zip(base, ms)))
                products += 1
    return frozenset(out), products


class TestCompiledStep:
    def test_recurrence_rows_are_exact_binomials(self):
        # Covers the zero band 0 <= e < m, where C(e, m) = 0 for every later m.
        exponents = list(range(-30, 31)) + [10**9, -10**9]
        for e in exponents:
            row = _binomials(e, 12)
            assert row == [exact_binomial(e, m) for m in range(12)], e
            assert _binomials(e, 5) == row[:5]

    def test_one_column_step_is_a_column_of_the_rows_step(self):
        # Every order of rank 3 in each of three columns: every step holds all
        # three, on the same plans as the one-column program of those orders,
        # and columns that agree on a prefix's exponents share its class.  The
        # exponents include 0, where C(0, 1) = 0 makes some outputs zero; a
        # state is indexed by its step's plan, zero or not.
        orders = _special_orders(_chamber((2, -1, 1, -2)))
        orders += [(images, 1) for images in itertools.permutations((1, 2, 3))]
        wide = _compile([orders] * 3)
        narrow = _compile([orders])
        assert all(step.holds == (0, 1, 2) for step in _steps(wide))
        assert [(s.depth, s.variable, s.products, s.position) for s in _steps(wide)] == [
            (s.depth, s.variable, s.products, s.position) for s in _steps(narrow)]
        for columns in [((0, 5, -4), (3, 0, 0), (-2, 1, 7)), ((0, 0, 0), (1, -1, 0), (10**9, -10**9, 2)),
                        ((1, 2, 3), (1, 2, 4), (1, 5, 3))]:
            got = _run(wide, columns)
            assert all(type(v) is int for v in got)
            assert got == [_run(narrow, [exponents])[0] for exponents in columns], columns
        assert 1 in _classes(wide, ((1, 2, 3), (1, 2, 4), (1, 5, 3)))  # all three agree on e_1

    def test_narrowing_reaches_the_one_column_kernel(self, monkeypatch):
        programs = []
        compile_ = residues._compile

        def spied(columns):
            programs.append(compile_(columns))
            return programs[-1]

        monkeypatch.setattr(residues, "_compile", spied)
        _partition_of.cache_clear()
        batch = [(2, -1, 1, -2), (1, 1, -1, -1)]
        assert partition_counts(batch) == [kostant_partition_bruteforce(a) for a in batch] == [4, 5]
        # Depth first: the nodes (1), (1, 2), (2), (2, 1), (3), (3, 1) of the
        # images of the two columns' orders, 123 and 213 in one, 123 and 312 in
        # the other; only 123 is shared, and the last image takes no step.
        steps = _steps(programs[-1])
        assert [(s.depth, s.variable + 1, len(s.holds)) for s in steps] == [
            (0, 1, 2), (1, 2, 2), (0, 2, 1), (1, 1, 1), (0, 3, 1), (1, 1, 1)]
        # A multiplicity's terms share one program: the three nodes of w(1) in
        # theta(5)'s hold 66, 18 and 18 of its 66 columns, each node some of
        # its parent's, and the three of m_(2,1,0,-3)(0) narrow to one.
        _partition_of.cache_clear()
        assert multiplicity(theta(5), (0,) * 6) == 1024
        steps = _steps(programs[-1])
        assert len(steps) == 18
        assert [len(s.holds) for s in steps if s.depth == 0] == [66, 18, 18]
        parents = {}
        for n, s in enumerate(steps):
            parents[s.depth] = set(s.holds)
            assert s.depth == 0 or parents[s.depth] <= parents[s.depth - 1], n
        _partition_of.cache_clear()
        assert multiplicity((2, 1, 0, -3), (0, 0, 0, 0)) == 8
        steps = _steps(programs[-1])
        assert len({j for s in steps for j in s.holds}) == 3
        assert any(len(s.holds) == 1 for s in steps)

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
        # One plan per (rank, depth, position): r(r + 1)/2 per rank, 56 for ranks 1-6.
        stream = list(_cheap_stream(5, 600))
        assert {len(a) - 1 for a in stream} == {1, 2, 3, 4, 5, 6}
        _plan.cache_clear()
        _program.cache_clear()
        _partition_of.cache_clear()
        for a in stream:
            partition_counts([a])
        assert 0 < _plan.cache_info().currsize <= 56

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_every_prefix_of_a_depth_reaches_its_plans_keys(self, r):
        # Expand the key sets of every elimination prefix from the root, by
        # content, and count the products (i, m_0) of each step.  The prefixes
        # of a depth reach no key set outside `reached`, so one set there means
        # one set for them all.
        reached = {frozenset([(-1,) * r])}
        for depth in range(r):
            assert len(reached) == 1, depth
            keys = sorted(next(iter(reached)))
            expanded = [_expanded(keys, tpos) for tpos in range(r - depth)]
            for tpos, (out, products) in enumerate(expanded):
                out_keys, into = _plan(r, depth, tpos)
                assert out_keys == tuple(sorted(out)), (depth, tpos)
                assert sum(map(len, into)) == products, (depth, tpos)
                assert {k for src in into for k, _ in src} == set(range(len(out_keys))), (depth, tpos)
            reached = {out for out, _ in expanded}
        assert reached == {frozenset([()])}

    def test_products_per_step_depend_on_rank_and_depth(self):
        # P(r, d), the products of a step at depth d, is the same at every
        # position, so the work of a program is known from its tree's shape.
        table = {r: [{sum(map(len, _plan(r, d, tpos)[1])) for tpos in range(r - d)} for d in range(r)]
                 for r in range(2, 8)}
        assert all(len(products) == 1 for row in table.values() for products in row)
        # The closed form counts them from the key sets alone, without a plan.
        assert table == {r: [{residues._products(r, d)} for d in range(r)] for r in table}
        assert [products.pop() for products in table[7]] == [1, 6, 110, 1058, 2142, 616, 16]
        assert [residues._products(9, d) for d in range(9)] == [1, 8, 280, 7756, 68827, 139568, 55896, 3795, 29]
        # The top of a step at depth i, i + 1 + i(i - 1)/2 in _compile, is the
        # largest pole order in the key set of that depth.  The identity
        # order's variable k + 1 steps at depth r - 1 - k, but w(r) above rank 1.
        for r in range(1, 8):
            keys = [((-1,) * r,)] + [_plan(r, d, 0)[0] for d in range(r - 1)]
            steps = _steps(_compile([[(tuple(range(1, r + 1)), 1)]]))
            assert [(s.variable, s.top) for s in steps] == [
                (k, -min(map(min, keys[r - 1 - k]))) for k in range(max(r - 1, 1))], r

    @pytest.mark.parametrize("r, multiply_adds", [(4, 176), (5, 2886), (6, 73156), (7, 2251836)])
    def test_theta_multiply_adds(self, monkeypatch, r, multiply_adds):
        # The program of theta(r)'s cold sum, with plans refused.  _compile
        # prices its tree at one class per step, a lower bound, and refuses it
        # under a limit just below that bound; under a limit of the bound, _run
        # prices the walk by its classes, the distinct exponent tuples of a
        # step's columns on its prefix's variables, and refuses it.  No theta
        # argument is flipped, and under WORK_LIMIT every walk fits.
        lower = {4: 34, 5: 431, 6: 6698, 7: 141872}[r]
        runs = []
        run = residues._run

        def spied(program, exponent_columns):
            runs.append((program, exponent_columns))
            return run(program, exponent_columns)

        monkeypatch.setattr(residues, "_run", spied)
        with monkeypatch.context() as m:
            m.setattr(residues, "_plan", _refused)
            for limit, work in ((lower - 1, lower), (lower, multiply_adds)):
                m.setattr(residues, "WORK_LIMIT", limit)
                _partition_of.cache_clear()
                _program.cache_clear()
                with pytest.raises(BudgetExceeded, match=f"walk of {work} multiply-adds"):
                    multiplicity(theta(r), (0,) * (r + 1))
        assert multiply_adds <= residues.WORK_LIMIT
        # The priced classes are the walk's: each step's products times its
        # classes, summed over the program.
        ((program, columns),) = runs
        products = [s.products for s in _steps(program)]
        assert products == [residues._products(r, r - 1 - s.depth) for s in _steps(program)]
        assert sum(products) == lower
        assert sum(map(mul, products, _classes(program, columns))) == multiply_adds

    def test_eviction_keeps_values(self, monkeypatch):
        # A cache of 8 plans evicts on almost every step of a rank-5 or 6 walk.
        stream = list(_cheap_stream(6, 150))
        _partition_of.cache_clear()
        expected = partition_counts(stream)
        tiny = lru_cache(maxsize=8)(_plan.__wrapped__)
        monkeypatch.setattr(residues, "_plan", tiny)
        _partition_of.cache_clear()
        _program.cache_clear()  # else the programs of the first pass serve the second
        assert partition_counts(stream) == expected
        assert tiny.cache_info().currsize <= 8
        assert tiny.cache_info().misses > 100
        small = [(a, v) for a, v in zip(stream, expected) if len(a) <= 5]
        assert len(small) > 50
        assert all(kostant_partition_bruteforce(a) == v for a, v in small)


class TestChamberOrders:
    def test_cached_orders_follow_the_definition_on_boxes(self, monkeypatch):
        # One search answers every vector of a chamber, so the orders that a
        # program compiles into a vector's column must hold for it, whichever
        # vector of the chamber came first.  The program of a box searches
        # each of its chambers once.
        searched = _searches(monkeypatch)
        monkeypatch.setattr(residues, "_compile", lambda columns: columns)
        for rank, bound in _BOXES:
            vectors = list(_zero_sum_box(rank, bound))
            columns = _program.__wrapped__(tuple(map(_chamber, vectors)))  # uncached: _compile is stubbed
            for a, orders in zip(vectors, columns):
                images = by_definition(a)
                assert [w for w, _ in orders] == images, a
                assert [sign for _, sign in orders] == [descent_sign(Permutation(w)) for w in images], a
        assert len(searched) == len(set(searched)) == 2 + 6 + 32 + 370 + 1592

    def test_search_carries_its_signs_without_permutations(self, monkeypatch):
        def no_permutation(images):
            raise AssertionError(f"built Permutation({images!r})")

        monkeypatch.setattr(residues, "Permutation", no_permutation)
        orders = _special_orders(_chamber((-1, 2, -3, 4, -5, 3)))
        assert len(orders) == 4 and {sign for _, sign in orders} == {1, -1}

    @pytest.mark.parametrize("r, args, chambers", [(4, 16, 2), (5, 66, 5), (6, 402, 19)])
    def test_theta_arguments_fall_into_few_chambers(self, monkeypatch, r, args, chambers):
        searched = _searches(monkeypatch)
        _partition_of.cache_clear()
        _program.cache_clear()
        assert multiplicity(theta(r), (0,) * (r + 1)) == 2 ** (r * (r - 1) // 2)
        assert _partition_of.cache_info().misses == args
        assert len(searched) == len(set(searched)) == chambers


@st.composite
def _small_vectors(draw, r=None):
    """Zero-sum vectors of ranks 1-6 (or of rank r) made of up to three signed
    roots, so in the cone or outside it, with entries small enough for the
    DP oracle."""
    r = draw(st.integers(1, 6)) if r is None else r
    a = [0] * (r + 1)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.lists(st.integers(0, r), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(1, 2 if r < 6 else 1))
        a[i] += c
        a[j] -= c
    assume(max(map(abs, a)) <= (3 if r < 6 else 2))
    return tuple(a)


def _small_batches():
    """One to four small vectors of one rank."""
    return st.integers(1, 6).flatmap(lambda r: st.lists(_small_vectors(r), min_size=1, max_size=4))


@st.composite
def _sharing_batches(draw):
    """Columns of ranks 2-6 that repeat chambers and share exponent values:
    the Kostant terms w(lambda + rho) - (mu + rho) of a small multiplicity,
    permutations of a cone vector, and the first term again."""
    r = draw(st.integers(2, 6))
    lam = sorted(draw(st.lists(st.integers(0, 3 if r < 6 else 1), min_size=r + 1, max_size=r + 1)), reverse=True)
    mu, cone = list(lam), [0] * (r + 1)
    for _ in range(draw(st.integers(0, 3))):
        i, j = sorted(draw(st.lists(st.integers(0, r), min_size=2, max_size=2, unique=True)))
        mu[i], mu[j] = mu[i] - 1, mu[j] + 1
        c = draw(st.integers(1, 4))
        cone[i], cone[j] = cone[i] + c, cone[j] - c
    u = [x + r - k for k, x in enumerate(lam)]
    v = [x + r - k for k, x in enumerate(mu)]
    terms = [tuple(u[i - 1] - y for i, y in zip(w.images, v)) for w in valid_permutations(u, v)]
    shuffled = draw(st.lists(st.permutations(cone), max_size=4))
    return terms + [tuple(a) for a in shuffled] + terms[:1]


class TestChamberProgram:
    @settings(max_examples=60, deadline=None)
    @given(_sharing_batches())
    def test_merged_classes_match_lone_runs(self, batch):
        # Columns that agree on the exponents of a prefix's variables share
        # its covector; each column's total must still be its own walk's, and
        # in the dynamic-programming oracle's box its partition count.
        columns = [_exponents(a) for a in batch]
        program = _program(tuple(map(_chamber, batch)))
        totals = _run(program, columns)
        # The first term comes twice, so some step merges columns.
        assert sum(_classes(program, columns)) < sum(len(s.holds) for s in _steps(program))
        for a, total in zip(batch, totals):
            assert _run(_program((_chamber(a),)), [_exponents(a)]) == [total], a
            if len(a) <= 5 and max(map(abs, a)) <= 12 and in_positive_cone(a):
                assert total == kostant_partition_bruteforce(a), a

    @settings(max_examples=150, deadline=None)
    @given(_small_batches())
    @example([(0, 0), (-1, 1)])
    @example([(0,) * 7, (1, -2, 0, 0, 0, 0, 1)])
    def test_program_walk_is_a_column_of_the_union_walk(self, drawn):
        # The residue sum itself, in the cone or not: each column of a batch
        # program, beside vectors of other chambers, against the vector's own
        # chamber program, and its count against the DP oracle.
        r = len(drawn[0]) - 1
        others = [(1,) + (0,) * (r - 1) + (-1,), (r,) + (-1,) * r, (2, -2) + (0,) * (r - 1),
                  (-1,) + (0,) * (r - 1) + (1,)]
        batch = others + drawn
        assert len({_chamber(a) for a in batch}) > 1
        union = _run(_compile([_special_orders(_chamber(a)) for a in batch]), [_exponents(a) for a in batch])
        for a, total in zip(batch, union):
            assert _run(_program((_chamber(a),)), [_exponents(a)]) == [total], a
            # The count: a lone fresh vector runs its program (zero outside the cone).
            _partition_of.cache_clear()
            alone = partition_counts([a])[0]
            assert alone == (total if in_positive_cone(a) else 0), a
            if a in drawn:
                assert alone == kostant_partition_bruteforce(a), a

    def test_warm_chamber_counts_without_plans_or_steps(self, monkeypatch):
        a, b = (2, -1, 1, 0, -2), (4, -2, 2, 0, -4)  # b = 2a: one chamber
        assert _chamber(a) == _chamber(b)
        expected = kostant_partition_bruteforce(b)
        _partition_of.cache_clear()
        assert partition_counts([a]) == [kostant_partition_bruteforce(a)]

        def refused(*args):
            raise AssertionError("a warm one-vector count compiled a program")

        for name in ("_compile", "_special_orders"):
            monkeypatch.setattr(residues, name, refused)
        built = _plans_built()
        assert partition_counts([b]) == [expected]
        assert _plans_built() == built

    def test_a_cached_program_is_a_value(self, monkeypatch):
        # The program of theta(4)'s 16 terms hashes, and no run changes it:
        # not its first, with the plans cold, nor a warm one, nor one that
        # its classes refuse (176 multiply-adds under a limit of 175).
        sequences = []
        program_ = residues._program
        with monkeypatch.context() as m:
            m.setattr(residues, "_program", lambda chambers: sequences.append(chambers) or program_(chambers))
            _partition_of.cache_clear()
            multiplicity(theta(4), (0,) * 5)
        (chambers,) = sequences
        _program.cache_clear()
        _plan.cache_clear()
        program = _program(chambers)
        value = hash(program)
        for refused in (False, False, True):
            _partition_of.cache_clear()
            if refused:
                monkeypatch.setattr(residues, "WORK_LIMIT", 175)
                with pytest.raises(BudgetExceeded, match="walk of 176 multiply-adds"):
                    multiplicity(theta(4), (0,) * 5)
            else:
                assert multiplicity(theta(4), (0,) * 5) == 64
            assert _program(chambers) is program and hash(program) == value
        assert _program.cache_info()[:2] == (6, 1)  # each run read the one program

    def test_program_cache_stays_bounded(self):
        stream = list(_cheap_stream(8, 600))
        _program.cache_clear()
        _partition_of.cache_clear()
        maxsize = _program.cache_info().maxsize
        assert maxsize is not None
        for a in stream:
            partition_counts([a])
            assert _program.cache_info().currsize <= maxsize
        assert _program.cache_info().misses > 50

    def test_program_eviction_keeps_values(self, monkeypatch):
        stream = list(_cheap_stream(9, 400))
        _partition_of.cache_clear()
        expected = partition_counts(stream)  # one compiled program per rank
        tiny = lru_cache(maxsize=8)(_program.__wrapped__)
        monkeypatch.setattr(residues, "_program", tiny)
        _partition_of.cache_clear()
        got = []
        for a in stream:
            got += partition_counts([a])
            assert tiny.cache_info().currsize <= 8
        assert got == expected
        assert tiny.cache_info().misses > 50
        small = [(a, v) for a, v in zip(stream, expected) if len(a) <= 6]
        assert all(kostant_partition_bruteforce(a) == v for a, v in small)


class TestBoundOnce:
    """A program is compiled once per chamber sequence, and a run binds each
    variable's binomials once, whatever the number of its steps."""

    @pytest.mark.parametrize("r, programs", [(3, 2), (4, 3), (5, 4)])
    def test_a_ray_compiles_once_per_chamber_sequence(self, monkeypatch, r, programs):
        # The d + 3 samples of a theta ray (6, 9 and 13) fall into this many
        # chamber sequences.
        widths = []
        compile_ = residues._compile

        def spied(columns):
            widths.append(len(columns))
            return compile_(columns)

        monkeypatch.setattr(residues, "_compile", spied)
        _partition_of.cache_clear()
        _program.cache_clear()
        _plan.cache_clear()
        poly = multiplicity_polynomial(theta(r), (0,) * (r + 1))
        assert len(poly.sample_points) + len(poly.verified_points) == r * (r - 1) // 2 + 3
        assert len(widths) == _program.cache_info().misses == programs

        def refused(*args):
            raise AssertionError("a repeated ray compiled a program")

        monkeypatch.setattr(residues, "_compile", refused)
        built = _plans_built()
        _partition_of.cache_clear()
        assert multiplicity_polynomial(theta(r), (0,) * (r + 1)) == poly
        assert _plans_built() == built

    @pytest.mark.parametrize("query, r, searches, programs", [
        (multiplicity, 4, 2, 1), (multiplicity, 5, 5, 1), (multiplicity, 6, 19, 1),
        (multiplicity_polynomial, 3, 2, 2), (multiplicity_polynomial, 4, 4, 3),
        (multiplicity_polynomial, 5, 9, 4),
    ], ids=["sum-4", "sum-5", "sum-6", "ray-3", "ray-4", "ray-5"])
    def test_a_program_searches_each_of_its_chambers_once(self, monkeypatch, query, r, searches, programs):
        # The 16, 66 and 402 terms of a theta sum fall into 2, 5 and 19
        # chambers, each searched once; the programs of a ray each search
        # their own chambers, once.
        searched = _searches(monkeypatch)
        compiled = []
        compile_ = residues._compile

        def spied(columns):
            compiled.append((len(searched), columns))
            return compile_(columns)

        monkeypatch.setattr(residues, "_compile", spied)
        _partition_of.cache_clear()
        _program.cache_clear()
        _plan.cache_clear()
        query(theta(r), (0,) * (r + 1))
        assert (len(searched), len(compiled)) == (searches, programs)
        start = 0
        for end, columns in compiled:
            own = searched[start:end]
            assert len(own) == len(set(own))
            # Every column of a chamber reads the one list its search returned.
            assert len({id(orders) for orders in columns}) == len(own)
            start = end

    def test_one_column_binds_each_variable_once(self, monkeypatch):
        a = (2, 1, 1, -1, -1, -2)
        program = _program((_chamber(a),))
        calls = []
        binomials = residues._binomials

        def spied(e, top):
            calls.append(e)
            return binomials(e, top)

        monkeypatch.setattr(residues, "_binomials", spied)
        assert _run(program, [_exponents(a)]) == [kostant_partition_bruteforce(a)] == [610]
        assert len(_steps(program)) == 39
        assert sorted(calls) == sorted(_exponents(a))  # one call per variable, 5 in all

    def test_rows_bind_each_variable_once(self, monkeypatch):
        # A batch binds one list per variable and distinct exponent: its three
        # columns have 15 exponents, 12 of them distinct per variable.
        batch = [(2, 1, 1, -1, -1, -2), (3, 1, -1, 2, -2, -3), (1, 2, -1, 1, -2, -1)]
        program = _program(tuple(map(_chamber, batch)))
        calls = []
        binomials = residues._binomials

        def spied(e, top):
            calls.append(e)
            return binomials(e, top)

        monkeypatch.setattr(residues, "_binomials", spied)
        columns = [_exponents(a) for a in batch]
        assert _run(program, columns) == [kostant_partition_bruteforce(a) for a in batch] == [610, 1291, 80]
        steps = _steps(program)
        assert len(steps) > 5 and any(len(s.holds) < 3 for s in steps)
        assert sorted(calls) == sorted(e for exponents in zip(*columns) for e in set(exponents))
        assert len(calls) == 12

    def test_theta_seven_compiles_its_tree_once(self, monkeypatch):
        # Its 2466 terms are priced by their classes from the one tree the
        # cached program holds; no second tree is built to count them.
        compiled = []
        compile_ = residues._compile

        def spied(*args):
            compiled.append(len(args[0]))
            return compile_(*args)

        monkeypatch.setattr(residues, "_compile", spied)
        _partition_of.cache_clear()
        _program.cache_clear()
        assert multiplicity(theta(7), (0,) * 8) == 2 ** 21
        assert compiled == [_partition_of.cache_info().misses] == [2466]

    def test_a_failed_plan_lookup_leaves_the_program_answering(self, monkeypatch):
        # A _plan that fails on its third call, with every plan warm, stops a
        # walk partway; the cached program, which no run writes, takes all
        # six steps on the next run and answers.
        a = (5, 3, -2, 1, -7)  # a_1 + a_5 < 0: counted on its own side
        _partition_of.cache_clear()
        _program.cache_clear()
        assert kostant_partition(a) == 1729
        _partition_of.cache_clear()
        _program.cache_clear()
        plan, calls = residues._plan, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise MemoryError
            return plan(*args)

        with monkeypatch.context() as m:
            m.setattr(residues, "_plan", failing)
            with pytest.raises(MemoryError):
                kostant_partition(a)
        assert len(calls) == 3
        program = _program((_chamber(a),))
        assert kostant_partition(a) == 1729
        assert len(_steps(program)) == 6
        assert _program.cache_info()[:2] == (2, 1)


class TestOrderBudget:
    """The special-order search refuses a frontier of more than
    permsearch.FRONTIER_LIMIT prefixes; the limit is lowered here, never
    reached."""

    def test_lowered_limit_is_budget_exceeded_and_not_cached(self, monkeypatch):
        a = (1, 2, -1, 1, -2, -1)
        sizes = []
        with monkeypatch.context() as m:
            m.setattr(residues, "_bounded", lambda frontier: sizes.append(len(frontier)) or frontier)
            assert len(_special_orders(_chamber(a))) == 18
        peak = max(sizes)
        assert len(sizes) == 4 and peak > 18
        searched = _searches(monkeypatch)
        _program.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(permsearch, "FRONTIER_LIMIT", peak - 1)
            for call in (kostant_partition, special_permutations, lambda a: partition_total(a, a)):
                _partition_of.cache_clear()
                with pytest.raises(BudgetExceeded) as err:
                    call(a)
                assert err.value.code == "budget-exceeded"
            assert len(searched) == 3 and _program.cache_info().currsize == 0
        # The refusal was not cached: with the limit restored, the chamber is
        # searched again and answers.
        _partition_of.cache_clear()
        assert partition_counts([a]) == [kostant_partition_bruteforce(a)] == [80]
        assert len(special_permutations(a)) == 18
        assert len(searched) == 5
        # At the limit the search still runs.
        _program.cache_clear()
        _partition_of.cache_clear()
        monkeypatch.setattr(permsearch, "FRONTIER_LIMIT", peak)
        assert kostant_partition(a) == 80


def _rule_side(a):
    """The side the engine counts: the flip of a when a_1 + a_{r+1} > 0."""
    return residues._flip(a) if a[0] + a[-1] > 0 else a


def _random_cone_vector(r, rng):
    """3r random positive roots with multiplicities 1-50, as the benchmark's
    cone_vector(r, 3 * r, 50, rng) draws them."""
    a = [0] * (r + 1)
    for _ in range(3 * r):
        i, j = sorted(rng.sample(range(r + 1), 2))
        k = rng.randint(1, 50)
        a[i] += k
        a[j] -= k
    return tuple(a)


@st.composite
def _root_sums(draw, ranks, big):
    """Zero-sum vectors of the given ranks made of 1 to 3r random positive
    roots, each with a multiplicity of at most `big`: in the cone."""
    r = draw(st.sampled_from(ranks))
    a = [0] * (r + 1)
    for _ in range(draw(st.integers(1, 3 * r))):
        i, j = sorted(draw(st.lists(st.integers(0, r), min_size=2, max_size=2, unique=True)))
        k = draw(st.integers(1, big))
        a[i] += k
        a[j] -= k
    return tuple(a)


class TestFlip:
    """The diagram flip (-a_{r+1}, ..., -a_1) keeps the partition count, and a
    fresh vector is counted on its flip exactly when a_1 + a_{r+1} > 0."""

    @settings(max_examples=80, deadline=None)
    @given(_cone_vectors().filter(lambda a: len(a) <= 5))
    def test_both_sides_match_the_dp_oracle(self, a):
        expected = kostant_partition_bruteforce(a)
        flipped = residues._flip(a)
        assert in_positive_cone(flipped)
        assert partition_total(a, a) == partition_total(flipped, flipped) == expected, a
        _partition_of.cache_clear()
        assert kostant_partition(a) == kostant_partition_bruteforce(flipped) == expected, a

    @settings(max_examples=30, deadline=None)
    @given(_root_sums((5, 6), 50))
    def test_the_engine_agrees_with_itself_on_both_sides(self, a):
        flipped = residues._flip(a)
        _partition_of.cache_clear()
        assert partition_total(a, a) == partition_total(flipped, flipped) == kostant_partition(a), a

    @given(st.integers(1, 7).flatmap(lambda r: st.lists(st.integers(-20, 20), min_size=r, max_size=r)))
    def test_the_rule_reads_which_chamber_has_more_non_negative_subset_sums(self, head):
        # Both chambers count the subsets that hold 1 but not r + 1; each
        # subset S of {2, ..., r} that a counts when a_S >= 0 comes back for
        # the flip with 1 and r + 1 added, counted when a_S >= -(a_1 + a_{r+1}).
        a = tuple(head) + (-sum(head),)
        shift = a[0] + a[-1]
        middle = subset_sums(a[1:])  # the sums of the subsets of {2, ..., r}, and a_{r+1}'s place is last
        more = sum(s >= -shift for s in middle) - sum(s >= 0 for s in middle)
        assert sum(_chamber(residues._flip(a))) - sum(_chamber(a)) == more
        assert (more > 0) <= (shift > 0) and (more < 0) <= (shift < 0) and (shift == 0) <= (more == 0)

    @pytest.mark.parametrize("r, orders, counted", [(5, 738, 419), (6, 2526, 1408)])
    def test_the_rule_halves_the_orders_of_random_cone_vectors(self, monkeypatch, r, orders, counted):
        # 40 vectors per rank from random.Random(7): the orders the engine
        # compiles for each, against the orders of the vectors themselves.
        rng = random.Random(7)
        vectors = [_random_cone_vector(r, rng) for _ in range(40)]
        assert sum(len(_special_orders(_chamber(a))) for a in vectors) == orders
        expected = [partition_total(a, a) for a in vectors]
        compiled = []
        compile_ = residues._compile
        monkeypatch.setattr(residues, "_compile", lambda columns: compiled.append(columns) or compile_(columns))
        for a, value in zip(vectors, expected):
            _partition_of.cache_clear()
            _program.cache_clear()
            assert partition_counts([a]) == [value]
        assert sum(len(orders) for (orders,) in compiled) == counted
        assert sum(len(_special_orders(_chamber(_rule_side(a)))) for a in vectors) == counted

    def test_a_repeated_caller_vector_is_a_memo_hit(self):
        a = (3, -3, 2, -1, -1)  # a_1 + a_5 > 0: counted as (1, 1, -2, 3, -3)
        _partition_of.cache_clear()
        assert partition_counts([a, a]) == [kostant_partition_bruteforce(a)] * 2
        assert list(_partition_of) == [a]
        assert kostant_partition(a) == kostant_partition_bruteforce(a)
        assert tuple(_partition_of.cache_info())[:2] == (2, 1)
        _partition_of.cache_clear()
        flipped = residues._flip(a)
        assert partition_counts([flipped]) == partition_counts([a])  # each a miss of its own key
        assert _partition_of.cache_info()[:2] == (0, 2)


class TestWorkLimit:
    """A walk's multiply-adds are counted before any plan is bound, a lone
    walk's by _compile from the prefix tree of its orders and a batch's by
    _run from its classes, and a walk past residues.WORK_LIMIT is refused.
    The counts here come from that price, never from a walk; the limits are
    lowered, never reached."""

    @pytest.mark.parametrize("a, own, flipped", [
        ((118, 108, 115, 44, -6, -6, 54, -68, -83, -276), 107040807, None),
        ((46, -6, 224, 41, 70, 27, 108, -46, -252, -212), 53333083, None),
        ((198, 176, -22, 37, -20, -18, -87, -116, -148), 9282347, 7063876),
        ((179, 255, 4, 114, 32, -52, -193, -95, -164, -80), None, 211715812),
    ])
    def test_lone_walks_are_priced_before_they_run(self, monkeypatch, a, own, flipped):
        # Under a limit of 0, _compile names each side's price in the
        # BudgetExceeded it raises, counted from the prefix tree alone.
        monkeypatch.setattr(residues, "WORK_LIMIT", 0)
        monkeypatch.setattr(residues, "_plan", _refused)
        for side, work in ((a, own), (residues._flip(a), flipped)):
            if work is not None:
                with pytest.raises(BudgetExceeded) as err:
                    _compile([_special_orders(_chamber(side))])
                assert _named(err.value) == work, side
        # The rule keeps the rank-9 vectors of 107.0M and 53.3M on a, and
        # sends the rank-8 one and the last to their flips.
        assert (_rule_side(a) == a) == (flipped is None)

    def test_the_rule_side_past_a_limit_falls_back_to_the_other(self, monkeypatch):
        # Each vector's rule side costs more than its other side, in work
        # (64 against 40) or in the search's frontier (9 against 7, 13 against 10).
        cases = [((3, -3, 2, -1, -1), "WORK_LIMIT", 63), ((1, 2, -3, 2, -2), "WORK_LIMIT", 63),
                 ((2, 2, -4, 0, 0), "FRONTIER_LIMIT", 8), ((0, 1, 2, -3, 0), "FRONTIER_LIMIT", 12)]
        for a, limit, value in cases:
            other = residues._flip(_rule_side(a))
            with monkeypatch.context() as m:
                m.setattr(residues if limit == "WORK_LIMIT" else permsearch, limit, value)
                _program.cache_clear()
                with pytest.raises(BudgetExceeded):
                    partition_total(_rule_side(a), _rule_side(a))
                _partition_of.cache_clear()
                assert kostant_partition(a) == kostant_partition_bruteforce(a), a
                assert _program.cache_info().currsize == 1
                _program((_chamber(other),))
                assert _program.cache_info().hits == 1, a

    @pytest.mark.parametrize("limit, value", [("WORK_LIMIT", 0), ("FRONTIER_LIMIT", 1)])
    def test_both_sides_refused_is_budget_exceeded_and_not_cached(self, monkeypatch, limit, value):
        a = (3, -3, 2, -1, -1)
        _partition_of.cache_clear()
        _program.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(residues if limit == "WORK_LIMIT" else permsearch, limit, value)
            for call in (kostant_partition, lambda a: partition_counts([a, (2, 0, -2)])):
                with pytest.raises(BudgetExceeded) as err:
                    call(a)
                assert err.value.code == "budget-exceeded"
            assert len(_partition_of) == 0 and _program.cache_info().currsize == 0
        assert kostant_partition(a) == kostant_partition_bruteforce(a)

    def test_a_batch_refused_by_its_classes_keeps_its_tree(self, monkeypatch):
        # theta(4)'s 16 terms: 176 multiply-adds by their classes, at least
        # 34 by their tree.  Under 33 _compile refuses the tree, uncached.
        # Under 175 _run refuses the walk before it builds a plan, and the
        # tree stays cached; under 176 that tree runs.
        compiled, programs = [], []
        compile_ = residues._compile

        def spied(columns):
            compiled.append(len(columns))
            programs.append(compile_(columns))
            return programs[-1]

        monkeypatch.setattr(residues, "_compile", spied)
        _program.cache_clear()
        _plan.cache_clear()
        for limit, cached in ((33, 0), (175, 1)):
            monkeypatch.setattr(residues, "WORK_LIMIT", limit)
            _partition_of.cache_clear()
            with pytest.raises(BudgetExceeded, match=f"walk of {limit + 1} multiply-adds"):
                multiplicity(theta(4), (0,) * 5)
            assert len(_partition_of) == 0 and _program.cache_info().currsize == cached
        (program,) = programs
        assert _plans_built() == 0
        monkeypatch.setattr(residues, "WORK_LIMIT", 176)
        _partition_of.cache_clear()
        assert multiplicity(theta(4), (0,) * 5) == 64
        assert compiled == [16, 16] and programs == [program]
        assert _plans_built() > 0

    def test_a_lone_order_is_priced_before_it_runs(self, monkeypatch):
        # The rank-12 identity order steps once per depth 1 to 11: the sum of
        # P(12, d), refused before any plan is built.
        assert sum(residues._products(12, d) for d in range(1, 12)) == 300732961
        monkeypatch.setattr(residues, "_plan", _refused)
        with pytest.raises(BudgetExceeded, match="walk of 300732961 multiply-adds") as err:
            iterated_residue(Permutation.identity(12), [0] * 12)
        assert err.value.code == "budget-exceeded"


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
