"""Acceptance gate.

Each test covers one shipping criterion and emits a single
``ACCEPTANCE <name>: PASS|FAIL`` line on the real stdout so the verdicts
survive pytest's capture.  Random suites use fixed seeds.
"""

import contextlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import _acceptance_report

from kostant.formulas import (
    RayPolynomial,
    multiplicity,
    multiplicity_polynomial,
    tensor_product,
)
from kostant.permutations import Permutation
from kostant.reference import (
    kostant_partition_bruteforce,
    multiplicity_freudenthal,
    tensor_bruteforce_lr,
)
from kostant.residues import (
    iterated_residue,
    kostant_partition,
    partition_total,
    special_permutations,
)
from kostant.vectors import (
    DominantWeight,
    ValidationError,
    deform,
    from_fundamental,
    in_positive_cone,
    is_regular,
    positive_roots,
    theta,
    vec_add,
    vec_scale,
)


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        _acceptance_report.record(name, False)
        raise
    _acceptance_report.record(name, True)


def zero(r):
    return (0,) * (r + 1)


def test_theta_zero_weight_table(sign_gates):
    with criterion("theta-zero-weight-desk-scale"):
        expected = {2: 2, 3: 8, 4: 64, 5: 1024}
        for r, want in expected.items():
            started = time.perf_counter()
            got = multiplicity(theta(r), zero(r))
            elapsed = time.perf_counter() - started
            assert got == want, (r, got, want)
            if r == 5:
                assert elapsed < 60.0, f"A_5 took {elapsed:.1f}s"


def test_polynomial_reproduction(sign_gates):
    with criterion("polynomial-reproduction"):
        for r in (2, 3, 4):
            fit = multiplicity_polynomial(theta(r), zero(r))
            assert isinstance(fit, RayPolynomial), fit
            d = r * (r - 1) // 2
            binomial_row = tuple(Fraction(math.comb(d, k)) for k in range(d + 1))
            assert fit.coefficients == binomial_row, (r, fit.coefficients)


def test_scaling_insensitivity(sign_gates):
    with criterion("scaling-insensitivity"):
        lam = theta(3)
        fit = multiplicity_polynomial(lam, zero(3))
        assert isinstance(fit, RayPolynomial)
        value_at_billion = None
        for n in (10, 10**4, 10**9):
            started = time.perf_counter()
            got = multiplicity(lam.scaled(n), zero(3))
            elapsed = time.perf_counter() - started
            assert elapsed < 5.0, (n, elapsed)
            assert got == fit.evaluate(n), n
            if n == 10**9:
                value_at_billion = got
        assert value_at_billion == (10**9 + 1) ** 3


def test_oracle_equivalence_partition(sign_gates):
    with criterion("oracle-equivalence-partition"):
        boxes = ((2, 6), (3, 6), (4, 3), (5, 2), (6, 1))
        checked = 0
        for rank, bound in boxes:
            for head in itertools.product(range(-bound, bound + 1), repeat=rank):
                a = head + (-sum(head),)
                if abs(a[-1]) > bound:
                    continue
                assert kostant_partition(a) == kostant_partition_bruteforce(a), a
                checked += 1
        assert checked > 1000


def test_oracle_equivalence_multiplicity(sign_gates):
    with criterion("oracle-equivalence-multiplicity"):
        rng = random.Random(20260816)
        for _ in range(200):
            r = rng.randint(1, 4)
            lam = DominantWeight(
                from_fundamental([rng.randint(0, 4) for _ in range(r)])
            )
            coeffs = [rng.randint(0, 3) for _ in range(r)]
            mu = lam.canonical
            for c, alpha in zip(coeffs, simple_roots(r)):
                mu = vec_add(mu, vec_scale(alpha, -c))
            assert multiplicity(lam, mu) == multiplicity_freudenthal(lam, mu), (
                lam.fundamental(),
                coeffs,
            )


def simple_roots(r):
    roots = []
    for i in range(r):
        alpha = [0] * (r + 1)
        alpha[i] = 1
        alpha[i + 1] = -1
        roots.append(tuple(map(Fraction, alpha)))
    return roots


def random_summand(rng, lam, mu, spread=2):
    """A dominant nu with lam + mu - nu in the root lattice, or None."""
    r = lam.rank
    nu = vec_add(lam.canonical, mu.canonical)
    for c, alpha in zip(
        [rng.randint(0, spread) for _ in range(r)], simple_roots(r)
    ):
        nu = vec_add(nu, vec_scale(alpha, -c))
    try:
        return DominantWeight(nu)
    except ValidationError:
        return None


def test_oracle_equivalence_tensor(sign_gates):
    with criterion("oracle-equivalence-tensor"):
        rng = random.Random(97)
        done = 0
        while done < 100:
            r = rng.randint(1, 3)
            lam = DominantWeight(
                from_fundamental([rng.randint(0, 2) for _ in range(r)])
            )
            mu = DominantWeight(
                from_fundamental([rng.randint(0, 2) for _ in range(r)])
            )
            nu = random_summand(rng, lam, mu)
            if nu is None:
                continue
            assert tensor_product(lam, mu, nu) == tensor_bruteforce_lr(
                lam, mu, nu
            ), (lam.fundamental(), mu.fundamental(), nu.fundamental())
            done += 1


def test_single_residue_special_case(sign_gates):
    with criterion("single-residue-special-case"):
        rng = random.Random(314159)
        for _ in range(500):
            r = rng.randint(1, 4)
            head = [rng.randint(0, 8) for _ in range(r)]
            a = tuple(head) + (-sum(head),)
            regularised = a if is_regular(a) else deform(a)
            ws = special_permutations(regularised)
            assert [w.images for w in ws] == [
                Permutation.identity(r).images
            ], a
            exponents = [int(a[k]) + r - 1 - k for k in range(r)]
            single = iterated_residue(Permutation.identity(r), exponents)
            general = partition_total(a, regularised)
            assert single == general, a
            assert single == kostant_partition(a), a


def test_deformation_properties(sign_gates):
    with criterion("deformation-properties"):
        rng = random.Random(271828)
        for _ in range(1000):
            r = rng.randint(1, 6)
            head = [rng.randint(-10, 10) for _ in range(r)]
            a = tuple(head) + (-sum(head),)
            d = deform(a)
            assert is_regular(d), a
            assert in_positive_cone(a) == in_positive_cone(d), a


def test_sign_arbitration_record(sign_gates):
    with criterion("sign-arbitration-record"):
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "artifacts"
            / "sign_arbitration.json"
        )
        assert path.exists(), path
        record = json.loads(path.read_text())
        residue = record["residue_term_sign"]
        couple = record["couple_sign"]
        assert residue["selected"] == "descent-count"
        assert residue["candidates"]["descent-count"]["passed"] is True
        assert residue["candidates"]["descent-count"]["checked"] > 100
        assert couple["selected"] == "signature-product"
        assert couple["candidates"]["signature-product"]["passed"] is True
        assert couple["candidates"]["signature-product"]["checked"] > 100


def test_non_negativity_fuzz(sign_gates):
    with criterion("non-negativity-fuzz"):
        rng = random.Random(1729)
        for _ in range(500):
            r = rng.randint(1, 4)
            lam = DominantWeight(
                from_fundamental([rng.randint(0, 3) for _ in range(r)])
            )
            mu = lam.canonical
            for c, alpha in zip(
                [rng.randint(0, 4) for _ in range(r)], simple_roots(r)
            ):
                mu = vec_add(mu, vec_scale(alpha, -c))
            value = multiplicity(lam, mu)
            assert isinstance(value, int) and value >= 0, (lam, mu, value)
        done = 0
        while done < 200:
            r = rng.randint(1, 4)
            lam = DominantWeight(
                from_fundamental([rng.randint(0, 2) for _ in range(r)])
            )
            mu = DominantWeight(
                from_fundamental([rng.randint(0, 2) for _ in range(r)])
            )
            nu = random_summand(rng, lam, mu, spread=3)
            if nu is None:
                continue
            value = tensor_product(lam, mu, nu)
            assert isinstance(value, int) and value >= 0, (lam, mu, nu, value)
            done += 1


def test_stretch_rank_six(sign_gates):
    with criterion("theta-zero-weight-stretch-rank-6"):
        started = time.perf_counter()
        got = multiplicity(theta(6), zero(6))
        elapsed = time.perf_counter() - started
        assert got == 32768, got
        assert elapsed < 600.0, elapsed
