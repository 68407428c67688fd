"""Pruned searches for dominance-constrained permutations, couples and Weyl candidates."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from kostant import permsearch
from kostant.permsearch import BudgetExceeded, valid_couples, valid_permutations, weyl_candidates
from kostant.permutations import Permutation
from kostant.vectors import ValidationError, rho, vec_add


def brute_permutations(u, v):
    n = len(u)
    out = []
    for images in itertools.permutations(range(1, n + 1)):
        w = Permutation(images)
        wu = w.apply(u)
        s = 0
        ok = True
        for i in range(n - 1):
            s += wu[i] - v[i]
            if s < 0:
                ok = False
                break
        if ok:
            out.append(w)
    return sorted(out, key=lambda w: w.images)


class TestValidPermutations:
    def test_requires_equal_sums(self):
        with pytest.raises(ValidationError) as err:
            valid_permutations((1, 0), (2, 0))
        assert err.value.code == "unequal-sums"

    def test_rank_one(self):
        u = (Fraction(3, 2), Fraction(-3, 2))
        v = (Fraction(1, 2), Fraction(-1, 2))
        assert [w.images for w in valid_permutations(u, v)] == [(1, 2)]

    def test_rank_one_integer_case(self):
        assert [w.images for w in valid_permutations((1, -1), (0, 0))] == [(1, 2)]

    def test_rank_two_pruned_to_identity(self):
        # first position needs u_w(1) >= 1, second needs the pair sum >= 1
        got = [w.images for w in valid_permutations((2, 0, -2), (1, 0, -1))]
        assert got == [(1, 2, 3)]

    def test_dominant_pair_includes_identity(self):
        u = vec_add((2, 1, -3), rho(2))
        v = rho(2)
        ws = valid_permutations(u, v)
        assert Permutation.identity(3) in ws

    def test_negative_entry_forced_last(self):
        # any order placing -15 before the end dips below the target
        u = (9, 6, -15)
        v = (0, 0, 0)
        got = [w.images for w in valid_permutations(u, v)]
        assert got == [(1, 2, 3), (2, 1, 3)]

    def test_matches_brute_force(self):
        rng = random.Random(5)
        done = 0
        while done < 150:
            n = rng.randint(2, 4)
            u = [rng.randint(-5, 5) for _ in range(n)]
            v = [rng.randint(-5, 5) for _ in range(n - 1)]
            last = sum(u) - sum(v)
            if abs(last) > 5:
                continue
            v.append(last)
            got = valid_permutations(tuple(u), tuple(v))
            assert [w.images for w in got] == [
                w.images for w in brute_permutations(tuple(u), tuple(v))
            ], (u, v)
            done += 1

    def test_ties_admit_both_orders(self):
        # equal partial sums sit exactly on the boundary and must be kept
        u = (1, 1, -2)
        v = (1, 1, -2)
        got = [w.images for w in valid_permutations(u, v)]
        assert (1, 2, 3) in got
        assert (2, 1, 3) in got


def brute_couples(u1, u2, v):
    n = len(v)
    out = []
    for im1 in itertools.permutations(range(1, n + 1)):
        w1 = Permutation(im1)
        a = w1.apply(u1)
        for im2 in itertools.permutations(range(1, n + 1)):
            w2 = Permutation(im2)
            b = w2.apply(u2)
            s = Fraction(0)
            ok = True
            for i in range(n - 1):
                s += a[i] + b[i] - v[i]
                if s < 0:
                    ok = False
                    break
            if ok:
                out.append((w1, w2))
    return sorted(out, key=lambda c: (c[0].images, c[1].images))


class TestValidCouples:
    def test_requires_matching_sums(self):
        with pytest.raises(ValidationError) as err:
            valid_couples((1, -1), (1, -1), (1, 0))
        assert err.value.code == "unequal-sums"

    def test_rank_one_single_couple(self):
        u1 = (Fraction(1, 2), Fraction(-1, 2))
        u2 = (Fraction(5, 2), Fraction(-5, 2))
        v = (3, -3)
        got = valid_couples(u1, u2, v)
        assert [(a.images, b.images) for a, b in got] == [((1, 2), (1, 2))]

    def test_rank_one_integer_single_couple(self):
        got = valid_couples((1, -1), (1, -1), (2, -2))
        assert [(a.images, b.images) for a, b in got] == [((1, 2), (1, 2))]

    def test_rank_one_integer_three_couples(self):
        got = valid_couples((1, -1), (1, -1), (0, 0))
        assert [(a.images, b.images) for a, b in got] == [
            ((1, 2), (1, 2)),
            ((1, 2), (2, 1)),
            ((2, 1), (1, 2)),
        ]

    def test_rank_one_three_couples(self):
        # boundary ties: mixed couples land exactly at partial sum zero
        u1 = (Fraction(3, 2), Fraction(-3, 2))
        u2 = (Fraction(3, 2), Fraction(-3, 2))
        v = (0, 0)
        got = [(a.images, b.images) for a, b in valid_couples(u1, u2, v)]
        assert got == [
            ((1, 2), (1, 2)),
            ((1, 2), (2, 1)),
            ((2, 1), (1, 2)),
        ]

    def test_matches_brute_force(self):
        # Ranks 1-4, three kinds of case in turn: random entries; u1 and u2
        # with a repeated entry; u1 with one extreme entry that v's first
        # entry asks for, against a low rest of v, so the w2 search keeps
        # nearly every w2 and the w1 searches do the cutting.
        rng = random.Random(17)
        found = 0
        for n, count in ((2, 24), (3, 24), (4, 12), (5, 6)):
            for case in range(count):
                u1, u2 = ([rng.randint(-3, 3) for _ in range(n)] for _ in range(2))
                v = [rng.randint(-2, 4) for _ in range(n)]
                if case % 3 == 1:
                    u1[-1], u2[-1] = u1[0], u2[0]
                elif case % 3 == 2:
                    u1[rng.randrange(n)] = 20
                    v = [20 - rng.randint(0, 4)] + [rng.randint(-3, 1) for _ in range(n - 1)]
                v[-1] += sum(u1) + sum(u2) - sum(v)
                got = valid_couples(tuple(u1), tuple(u2), tuple(v))
                expected = brute_couples(tuple(u1), tuple(u2), tuple(v))
                assert [
                    (a.images, b.images) for a, b in got
                ] == [(a.images, b.images) for a, b in expected], (u1, u2, v)
                found += len(got)
        assert found > 5000


class TestRationalInputIsScaled:
    """Rational input gives the lists of its integer multiple by the lcm of
    the denominators, on a box of ranks 1-4."""

    @staticmethod
    def _cases(rng, count, rank, parts):
        for _ in range(count):
            den = rng.choice((2, 3, 4, 6))
            vectors = [[rng.randint(-6, 6) for _ in range(rank + 1)] for _ in range(parts)]
            vectors[-1][-1] += sum(map(sum, vectors[:-1])) - sum(vectors[-1])
            # the shifts keep the sums balanced and make the input genuinely rational
            c = Fraction(rng.randint(-5, 5), rng.choice((2, 3, 5)))
            shifts = [c] * (parts - 1) + [(parts - 1) * c]
            rational = [tuple(Fraction(x, den) + s for x in v) for v, s in zip(vectors, shifts)]
            yield rational, [tuple(x * den * c.denominator for x in v) for v in rational]

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_permutations(self, rank):
        rng = random.Random(100 + rank)
        nonempty = 0
        for rational, scaled in self._cases(rng, 150, rank, 2):
            assert all(x.denominator == 1 for v in scaled for x in v)
            got = valid_permutations(*rational)
            assert [w.images for w in got] == [w.images for w in valid_permutations(*scaled)]
            nonempty += bool(got)
        assert nonempty > 20

    @pytest.mark.parametrize("rank, count", [(1, 60), (2, 60), (3, 60), (4, 12)])
    def test_couples(self, rank, count):
        rng = random.Random(200 + rank)
        nonempty = 0
        for rational, scaled in self._cases(rng, count, rank, 3):
            got = valid_couples(*rational)
            assert [(a.images, b.images) for a, b in got] == [
                (a.images, b.images) for a, b in valid_couples(*scaled)
            ]
            nonempty += bool(got)
        assert nonempty >= count // 6

    def test_rational_matches_brute_force(self):
        u = (Fraction(7, 3), Fraction(1, 3), Fraction(-2, 3), Fraction(-2))
        v = (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3), 0)
        assert [w.images for w in valid_permutations(u, v)] == [
            w.images for w in brute_permutations(u, v)
        ]


class TestCarriedInversions:
    """Both searches count each prefix's inversions as they extend it; the
    count a returned permutation carries must be the one its images give."""

    @staticmethod
    def _below(rng, top):
        """top minus a few random positive roots: a target some terms dominate."""
        v = list(top)
        for _ in range(rng.randint(0, 3)):
            i, j = sorted(rng.sample(range(len(v)), 2))
            c = rng.randint(0, 3)
            v[i] -= c
            v[j] += c
        return tuple(v)

    @staticmethod
    def _check(perms):
        for w in perms:
            assert w._inversions is not None, w  # carried, not yet counted
            assert w.inversions == Permutation(w.images).inversions, w

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_permutations(self, rank):
        rng = random.Random(300 + rank)
        found = 0
        for _ in range(40):
            u = [rng.randint(-6, 6) for _ in range(rank + 1)]
            got = valid_permutations(u, self._below(rng, rng.sample(u, len(u))))
            self._check(got)
            found += len(got)
        assert found > 40 * rank

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_couples(self, rank):
        rng = random.Random(400 + rank)
        found = 0
        for _ in range(20):
            u1, u2 = ([rng.randint(-6, 6) for _ in range(rank + 1)] for _ in range(2))
            top = [x + y for x, y in zip(sorted(u1, reverse=True), sorted(u2, reverse=True))]
            got = valid_couples(u1, u2, self._below(rng, top))
            for pair in got:
                self._check(pair)
            found += len(got)
        assert found > 20 * rank


def brute_weyl_candidates(lam, a, b):
    """(sign(w), sorted gamma) over all w with gamma = w(a) - b dominated by lam."""
    top = list(itertools.accumulate(lam))
    out = []
    for images in itertools.permutations(range(1, len(a) + 1)):
        w = Permutation(images)
        gamma = sorted((x - y for x, y in zip(w.apply(a), b)), reverse=True)
        if all(s <= t for s, t in zip(itertools.accumulate(gamma), top)) and sum(gamma) == top[-1]:
            out.append((w.signature, tuple(gamma)))
    return sorted(out)


class TestWeylCandidates:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_brute_force(self, rank):
        rng = random.Random(500 + rank)
        found = 0
        for _ in range(60):
            # a and b like the lifts nu + rho and mu + rho; lam's end entries
            # take up the difference of the sums, so it stays non-increasing
            a, b = (sorted(rng.sample(range(-5, 6), rank + 1), reverse=True) for _ in range(2))
            lam = sorted((rng.randint(-2, 2) for _ in range(rank + 1)), reverse=True)
            gap = sum(a) - sum(b) - sum(lam)
            lam[0 if gap > 0 else -1] += gap
            got = weyl_candidates(tuple(lam), tuple(a), tuple(b))
            assert sorted(got) == brute_weyl_candidates(lam, a, b), (lam, a, b)
            found += len(got)
        assert found > 60


class TestFrontierLimit:
    """Every search refuses a frontier past FRONTIER_LIMIT prefixes, and
    valid_couples a list past FRONTIER_LIMIT couples."""

    @pytest.mark.parametrize("search, args", [
        (valid_permutations, ((3, 2, 1, 0, -6), (0, 0, 0, 0, 0))),
        (valid_couples, ((3, 2, 1, 0, -6), (3, 2, 1, 0, -6), (0, 0, 0, 0, 0))),
        (weyl_candidates, ((4, 4, 0, -4, -4), (4, 3, 2, 1, 0), (2, 2, 2, 2, 2))),
    ], ids=["permutations", "couples", "weyl"])
    def test_lowered_limit_is_budget_exceeded(self, monkeypatch, search, args):
        assert len(search(*args)) > 4
        monkeypatch.setattr(permsearch, "FRONTIER_LIMIT", 4)
        with pytest.raises(BudgetExceeded) as err:
            search(*args)
        assert err.value.code == "budget-exceeded"

    def test_running_couple_list_is_bounded(self, monkeypatch):
        # two w2 candidates and at most two w1 each, but three couples: at a
        # limit of 2 only the running list of couples passes it
        monkeypatch.setattr(permsearch, "FRONTIER_LIMIT", 2)
        assert len(valid_permutations((1, -1), (-1, 1))) == 2  # the w2 search
        with pytest.raises(BudgetExceeded):
            valid_couples((1, -1), (1, -1), (0, 0))

    def test_theta_couples_at_the_default_limit(self):
        theta5 = (4, 3, 2, 1, 0, -10)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            valid_couples(theta5, theta5, (0,) * 6)
        assert time.perf_counter() - start < 1.0
        theta4 = (3, 2, 1, 0, -6)
        assert len(valid_couples(theta4, theta4, (0,) * 5)) == 3228
