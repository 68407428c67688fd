"""Brute-force reference implementations used to cross-check the fast paths."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from kostant import reference
from kostant.cli import EXIT_OK, main
from kostant.formulas import multiplicity, tensor_product
from kostant.reference import (
    OracleDomainError,
    _dp_counts,
    freudenthal_multiplicities,
    kostant_partition_bruteforce,
    multiplicity_freudenthal,
    tensor_bruteforce_lr,
    weyl_dimension,
)
from kostant.residues import kostant_partition, partition_counts
from kostant.vectors import DominantWeight, ValidationError, deform, from_fundamental, rho, theta

F = Fraction


class TestDPTable:
    def test_small_values(self):
        assert kostant_partition_bruteforce((0, 0, 0)) == 1
        assert kostant_partition_bruteforce((1, 0, -1)) == 2
        assert kostant_partition_bruteforce((2, 0, -2)) == 3
        assert kostant_partition_bruteforce((1, 1, -2)) == 2

    def test_zero_outside_cone(self):
        assert kostant_partition_bruteforce((-1, 2, -1)) == 0
        assert kostant_partition_bruteforce((-3, 3)) == 0

    def test_out_of_box_raises(self):
        with pytest.raises(OracleDomainError):
            kostant_partition_bruteforce((40, 0, -40))

    def test_work_cap_refuses_before_building(self):
        # rank 5 with entries up to 6 needs 2.36M coin-change updates
        start = time.perf_counter()
        with pytest.raises(OracleDomainError):
            kostant_partition_bruteforce((6, 0, 0, 0, 0, -6))
        assert time.perf_counter() - start < 0.1

    def test_largest_table_under_the_cap_is_answered(self):
        # rank 6 with entries up to 3: 1.65M updates
        a = (3, 0, -1, 1, 0, 0, -3)
        assert kostant_partition_bruteforce(a) == kostant_partition(a)

    def test_root_order_independence(self):
        # coin-change pass order must not matter
        rank, bound = 3, 4
        rng = random.Random(3)
        roots = [
            (i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 2)
        ]
        base = _dp_counts(rank, bound, tuple(roots))
        for _ in range(4):
            rng.shuffle(roots)
            assert _dp_counts(rank, bound, tuple(roots)) == base

    def test_smaller_bounds_reuse_the_largest_table(self, monkeypatch):
        rank, roots = 3, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        queries = [(4, (4, 0, -1, -3)), (2, (2, -1, 1, -2)), (1, (1, 0, 0, -1)), (2, (2, 2, -2, -2))]
        fresh = [_dp_counts(rank, b, roots).get(tuple(itertools.accumulate(a[:-1])), 0)
                 for b, a in queries]
        built = []

        def counted(*args):
            built.append(args[:2])
            return _dp_counts(*args)

        monkeypatch.setattr(reference, "_dp_counts", counted)
        monkeypatch.setattr(reference, "_dp_tables", {})
        assert [kostant_partition_bruteforce(a) for _, a in queries] == fresh
        assert built == [(rank, 4)]
        assert [(r, bound) for r, (bound, _) in reference._dp_tables.items()] == [(rank, 4)]
        assert all(fresh)

    def test_agrees_with_direct_enumeration(self):
        # independent check: count all multisets of positive roots directly
        roots = [
            (i, j) for i in range(1, 4) for j in range(i + 1, 5)
        ]

        def as_vector(pairs):
            v = [0, 0, 0, 0]
            for i, j in pairs:
                v[i - 1] += 1
                v[j - 1] -= 1
            return tuple(v)

        from collections import Counter

        counts = Counter()
        # prefix sums of an in-range vector total at most 2+4+2, so no
        # decomposition uses more than 8 roots
        for size in range(9):
            for combo in itertools.combinations_with_replacement(roots, size):
                counts[as_vector(combo)] += 1
        for head in itertools.product(range(-2, 3), repeat=3):
            a = head + (-sum(head),)
            if max(map(abs, a)) > 2:
                continue
            assert kostant_partition_bruteforce(a) == counts.get(a, 0), a


class TestFreudenthal:
    def test_highest_weight_has_multiplicity_one(self):
        lam = DominantWeight((2, 1, -3))
        assert multiplicity_freudenthal(lam, (2, 1, -3)) == 1

    def test_adjoint_zero_weight(self):
        lam = DominantWeight((1, 0, -1))
        assert multiplicity_freudenthal(lam, (0, 0, 0)) == 2

    def test_theta_zero_weight(self):
        assert multiplicity_freudenthal(theta(2), (0, 0, 0)) == 2

    def test_outside_root_lattice_is_zero(self):
        lam = DominantWeight(from_fundamental((1, 0)))
        assert multiplicity_freudenthal(lam, (0, 0, 0)) == 0

    def test_weight_outside_hull_is_zero(self):
        lam = DominantWeight((1, 0, -1))
        assert multiplicity_freudenthal(lam, (3, 0, -3)) == 0

    def test_rank_limit_enforced(self):
        lam = DominantWeight(from_fundamental((1, 0, 0, 0, 1)))
        with pytest.raises(OracleDomainError):
            multiplicity_freudenthal(lam, from_fundamental((0, 0, 0, 0, 0)))

    def test_sl2_string(self):
        # V(6) for rank one: weights 6, 4, 2, 0 each once (fundamental coords)
        lam = DominantWeight(from_fundamental((6,)))
        for k in (6, 4, 2, 0):
            assert multiplicity_freudenthal(lam, from_fundamental((k,))) == 1
        assert multiplicity_freudenthal(lam, from_fundamental((5,))) == 0

    def test_total_dimension_matches_weyl(self):
        # sum of multiplicities over the full orbit of each dominant weight
        for fc in ((3,), (5,), (1, 1), (2, 0), (2, 1), (0, 3)):
            lam = DominantWeight(from_fundamental(fc))
            table = freudenthal_multiplicities(lam)
            total = 0
            for mu, m in table.items():
                orbit = set(itertools.permutations(mu))
                total += m * len(orbit)
            assert total == weyl_dimension(lam)


class TestLittlewoodRichardson:
    def test_trivial_factor(self):
        lam = DominantWeight((1, 0, -1))
        triv = DominantWeight((0, 0, 0))
        assert tensor_bruteforce_lr(lam, triv, lam) == 1

    def test_sl2_clebsch_gordan(self):
        a = DominantWeight(from_fundamental((3,)))
        b = DominantWeight(from_fundamental((2,)))
        for c, expected in ((5, 1), (3, 1), (1, 1), (4, 0), (7, 0)):
            nu = DominantWeight(from_fundamental((c,)))
            assert tensor_bruteforce_lr(a, b, nu) == expected

    def test_adjoint_cube_of_sl3(self):
        adj = DominantWeight((1, 0, -1))
        assert tensor_bruteforce_lr(adj, adj, adj) == 2

    def test_outside_root_lattice_shift_is_zero(self):
        lam = DominantWeight(from_fundamental((1, 0)))
        mu = DominantWeight(from_fundamental((0, 0)))
        nu = DominantWeight(from_fundamental((0, 1)))
        assert tensor_bruteforce_lr(lam, mu, nu) == 0

    def test_rank_limit_enforced(self):
        lam = DominantWeight(from_fundamental((1, 0, 0, 1)))
        with pytest.raises(OracleDomainError):
            tensor_bruteforce_lr(lam, lam, lam)

    def test_decomposition_of_fundamental_square(self):
        # sl3: 3 (x) 3 = 6 (+) 3bar
        v3 = DominantWeight(from_fundamental((1, 0)))
        v6 = DominantWeight(from_fundamental((2, 0)))
        v3bar = DominantWeight(from_fundamental((0, 1)))
        assert tensor_bruteforce_lr(v3, v3, v6) == 1
        assert tensor_bruteforce_lr(v3, v3, v3bar) == 1
        assert tensor_bruteforce_lr(v3, v3, v3) == 0

    def test_dimension_bookkeeping(self):
        # sum over nu of c * dim V(nu) = dim V(lam) * dim V(mu)
        rng = random.Random(9)
        for _ in range(6):
            r = rng.randint(1, 2)
            lam = DominantWeight(from_fundamental([rng.randint(0, 2) for _ in range(r)]))
            mu = DominantWeight(from_fundamental([rng.randint(0, 2) for _ in range(r)]))
            total = 0
            # every summand's fundamental coords are bounded by the sum of
            # the factors' coordinate vectors plus redistribution room
            cap = [
                int(a + b)
                for a, b in zip(lam.fundamental(), mu.fundamental())
            ]
            bound = sum(cap) + r
            for fc in itertools.product(range(bound + 1), repeat=r):
                try:
                    nu = DominantWeight(from_fundamental(fc))
                except ValidationError:
                    continue
                c = tensor_bruteforce_lr(lam, mu, nu)
                if c:
                    total += c * weyl_dimension(nu)
            assert total == weyl_dimension(lam) * weyl_dimension(mu)


def _oracle_line(capsys, *argv):
    """(exit code, printed lines) of a single command run with --oracle."""
    code = main([*argv, "--oracle"])
    return code, capsys.readouterr().out.splitlines()


class TestBoxLimits:
    """Each oracle refuses past its box with OracleDomainError, and --oracle
    then reports the engine's answer as skipped, not as a disagreement."""

    def test_freudenthal_state_limit(self, capsys, monkeypatch):
        # the adjoint of sl(3) spans a 2 x 2 box of simple-root coefficients
        adj = DominantWeight((1, 0, -1))
        reference._freudenthal_table.cache_clear()  # a cached table skips the limit
        monkeypatch.setattr(reference, "_FREUDENTHAL_STATE_LIMIT", 3)
        with pytest.raises(OracleDomainError, match="would need 4 points") as refused:
            multiplicity_freudenthal(adj, (0, 0, 0))
        assert refused.value.code == "oracle-out-of-box"
        assert _oracle_line(capsys, "mult", "--rank", "2", "--lambda", "1,0,-1", "--mu", "0,0,0") == (
            EXIT_OK, ["2", "oracle: skipped (outside reference box)"])
        monkeypatch.setattr(reference, "_FREUDENTHAL_STATE_LIMIT", 4)
        assert multiplicity_freudenthal(adj, (0, 0, 0)) == 2

    def test_tableau_cell_limit(self, capsys):
        # V(0) (x) V(mu) = V(mu): the skew shape is mu's one row, 62 cells
        trivial, mu = DominantWeight((0, 0)), DominantWeight((31, -31))
        with pytest.raises(OracleDomainError, match="skew shape") as refused:
            tensor_bruteforce_lr(trivial, mu, mu)
        assert refused.value.code == "oracle-out-of-box"
        assert _oracle_line(capsys, "tensor", "--rank", "1", "--lambda", "0,0",
                            "--mu", "31,-31", "--nu", "31,-31") == (
            EXIT_OK, ["1", "oracle: skipped (outside reference box)"])
        # 60 cells are still counted
        assert tensor_bruteforce_lr(trivial, DominantWeight((30, -30)), DominantWeight((30, -30))) == 1


class TestWeylDimension:
    def test_small_cases(self):
        assert weyl_dimension(DominantWeight((0, 0))) == 1
        assert weyl_dimension(DominantWeight(from_fundamental((1,)))) == 2
        assert weyl_dimension(DominantWeight((1, 0, -1))) == 8
        assert weyl_dimension(theta(2)) == 35

    def test_dilated_half_sum(self):
        # dim V(N * rho) = (N+1)^(number of positive roots)
        for r in (1, 2, 3):
            n_roots = r * (r + 1) // 2
            for n in (1, 2, 5):
                lam = DominantWeight(
                    tuple(x * n for x in rho(r))
                )
                assert weyl_dimension(lam) == (n + 1) ** n_roots


class TestOneValidatorPerShape:
    """The engine and its oracle refuse a bad input with one code."""

    @pytest.mark.parametrize("vector, code", [
        ((0,), "bad-length"),
        ((1, 0, 0), "not-zero-sum"),
        ((), "bad-length"),
        ((F(1, 2), 0, F(-1, 2)), "non-integral"),
        ((1.5, -1.5), "inexact-entry"),
    ], ids=["rank-zero", "nonzero-sum", "empty", "half-integral", "float"])
    def test_partition_arguments(self, vector, code):
        # the engine, its batch form, the DP oracle and the deformation
        checks = (lambda a: partition_counts([a]), kostant_partition,
                  kostant_partition_bruteforce, deform)
        for check in checks:
            with pytest.raises(ValidationError) as err:
                check(vector)
            assert err.value.code == code

    @pytest.mark.parametrize("engine, oracle, args, code", [
        (multiplicity, multiplicity_freudenthal, ((1, 0, -1), (0, 0)), "bad-length"),
        (multiplicity, multiplicity_freudenthal, ((1, 0, -1), (F(1, 2), 0, F(-1, 2))),
         "non-integral-weight"),
        (multiplicity, multiplicity_freudenthal, ((1, 0, -1), (1, 0, 0)), "unequal-sums"),
        (multiplicity, multiplicity_freudenthal, ((0, 1, -1), (0, 0, 0)), "not-dominant"),
        (multiplicity, multiplicity_freudenthal, ((1.0, 0, -1), (0, 0, 0)), "inexact-entry"),
        (tensor_product, tensor_bruteforce_lr, ((1, 0, -1), (1, 0), (1, 0, -1)), "bad-length"),
        (tensor_product, tensor_bruteforce_lr, ((1, 0, -1), (F(1, 2), 0, 0), (1, 0, -1)),
         "non-integral-weight"),
        (tensor_product, tensor_bruteforce_lr, ((1, 0, -1), (1, 0, -1), (1, 0, 0)),
         "unequal-sums"),
        (tensor_product, tensor_bruteforce_lr,
         ((1, 0, 0, 0, -1), (1, 0, 0, 0, -1), (1, 0, 0, 0, 0)), "unequal-sums"),
        (tensor_product, tensor_bruteforce_lr, ((0, 1, -1), (1, 0, -1), (1, 0, -1)),
         "not-dominant"),
        (tensor_product, tensor_bruteforce_lr, ((1, 0, -1), (1, 0, -1), (1, 0, -1.0)),
         "inexact-entry"),
    ], ids=[
        "mult-length", "mult-non-integral", "mult-sums", "mult-non-dominant", "mult-float",
        "tensor-length", "tensor-non-integral", "tensor-sums", "tensor-sums-rank-4",
        "tensor-non-dominant", "tensor-float",
    ])
    def test_engine_and_oracle_agree(self, engine, oracle, args, code):
        for check in (engine, oracle):
            with pytest.raises(ValidationError) as err:
                check(*args)
            assert err.value.code == code
