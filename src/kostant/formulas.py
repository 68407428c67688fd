"""Weight multiplicities and tensor coefficients as alternating partition sums.

The multiplicity of a weight mu in the irreducible V(lambda) is

    sum over valid w of sign(w) * partitions(w(lambda+rho) - (mu+rho)),

and the coefficient of V(nu) in V(lambda) (x) V(mu) is the same shape of sum
over valid couples, with argument w1(lambda+rho) + w2(mu+rho) - (nu+2rho).
"Valid" means the partition argument lands in the positive-root cone, which
the pruned searches in permsearch guarantee by construction.

Along the ray N -> (N*lambda, N*mu) the counts agree with a polynomial of
degree at most r(r-1)/2; the polynomial is recovered by exact interpolation
on the first d+1 sample points and verified on two more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .parallel import map_counts
from .permsearch import valid_couples, valid_permutations
from .permutations import Permutation
from .residues import partition_counts
from .vectors import (
    DominantWeight,
    ValidationError,
    as_vector,
    int_vector,
    is_integral,
    rho,
    to_fundamental,
    vec_add,
    vec_scale,
    vec_sub,
    zero_mean,
)


def _as_dominant(lam) -> DominantWeight:
    return lam if isinstance(lam, DominantWeight) else DominantWeight(as_vector(lam))


def _check_weight(mu: Sequence, rank: int, name: str) -> Tuple[Fraction, ...]:
    mu = as_vector(mu)
    if len(mu) != rank + 1:
        raise ValidationError("bad-length", f"{name} must have {rank + 1} entries")
    if not is_integral(to_fundamental(mu)):
        raise ValidationError(
            "non-integral-weight", f"{name} needs integer consecutive differences"
        )
    return mu


def _signature_product(w1: Permutation, w2: Permutation) -> int:
    return w1.signature * w2.signature


def _length_product_sign(w1: Permutation, w2: Permutation) -> int:
    return -1 if (w1.inversions * w2.inversions) % 2 else 1


# The couple sign in the tensor sum.  Arbitrated against the tableau oracle
# (see kostant/arbitration.py); the product of the individual signatures is
# the convention that survives.
COUPLE_SIGN = _signature_product


def multiplicity(lam, mu: Sequence, *, threads: Optional[int] = None) -> int:
    """Multiplicity of the weight mu in the irreducible V(lam).

    lam must be dominant; mu needs integer consecutive differences and the
    same entry sum as lam.  Weights differing from lam by something outside
    the root lattice have multiplicity zero, which is returned, not raised.
    """
    lam = _as_dominant(lam)
    mu = _check_weight(mu, lam.rank, "mu")
    if sum(lam.canonical) != sum(mu):
        raise ValidationError("unequal-sums", "lambda and mu must have equal entry sums")
    if not is_integral(vec_sub(lam.canonical, mu)):
        return 0
    # Translating both weights by the same multiple of (1, ..., 1) leaves
    # every partition argument unchanged; zero-mean is the canonical choice.
    rho_v = rho(lam.rank)
    u = vec_add(zero_mean(lam.canonical), rho_v)
    v = vec_add(zero_mean(mu), rho_v)
    terms = [
        (w.signature, int_vector(vec_sub(w.apply(u), v)))
        for w in valid_permutations(u, v)
    ]
    values = map_counts(partition_counts, [arg for _, arg in terms], threads)
    total = sum(sign * value for (sign, _), value in zip(terms, values))
    if total < 0:
        raise AssertionError("alternating multiplicity sum came out negative")
    return total


def tensor_product(lam, mu, nu, *, threads: Optional[int] = None, _sign=None) -> int:
    """Coefficient of V(nu) in V(lam) (x) V(mu); all three weights dominant."""
    lam = _as_dominant(lam)
    mu = _as_dominant(mu)
    nu = _as_dominant(nu)
    if not (lam.rank == mu.rank == nu.rank):
        raise ValidationError("bad-length", "weights must share one rank")
    if sum(lam.canonical) + sum(mu.canonical) != sum(nu.canonical):
        raise ValidationError("unequal-sums", "sum(lambda) + sum(mu) must equal sum(nu)")
    if not is_integral(
        vec_sub(vec_add(lam.canonical, mu.canonical), nu.canonical)
    ):
        return 0
    sign_rule = _sign or COUPLE_SIGN
    rho_v = rho(lam.rank)
    u1 = vec_add(zero_mean(lam.canonical), rho_v)
    u2 = vec_add(zero_mean(mu.canonical), rho_v)
    target = vec_add(zero_mean(nu.canonical), vec_scale(rho_v, 2))
    terms = [
        (
            sign_rule(w1, w2),
            int_vector(vec_sub(vec_add(w1.apply(u1), w2.apply(u2)), target)),
        )
        for w1, w2 in valid_couples(u1, u2, target)
    ]
    values = map_counts(partition_counts, [arg for _, arg in terms], threads)
    total = sum(sign * value for (sign, _), value in zip(terms, values))
    if _sign is None and total < 0:
        raise AssertionError("alternating tensor sum came out negative")
    return total


@dataclass(frozen=True)
class RayPolynomial:
    """Exact polynomial agreeing with a dilation ray of counts.

    coefficients[k] multiplies N^k; sample_points were interpolated and
    verified_points checked against freshly computed counts.
    """

    coefficients: Tuple[Fraction, ...]
    sample_points: Tuple[int, ...]
    verified_points: Tuple[int, ...]

    @property
    def degree(self) -> int:
        deg = len(self.coefficients) - 1
        while deg > 0 and self.coefficients[deg] == 0:
            deg -= 1
        return deg

    def evaluate(self, n) -> Fraction:
        n = Fraction(n)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc


@dataclass(frozen=True)
class RayFitFailure:
    """Raw ray data returned when the sampled counts fail to be polynomial."""

    reason: str
    sample_points: Tuple[int, ...]
    values: Tuple[int, ...]


_CHAMBER_CROSSING = "ray crosses chamber structure inconsistently"


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> Tuple[Fraction, ...]:
    """Newton interpolation through (xs[i], ys[i]), exact, monomial coefficients."""
    n = len(xs)
    divided = [Fraction(y) for y in ys]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / Fraction(xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]  # expands prod (x - xs[k]) incrementally
    coeffs[0] = divided[0]
    for k in range(1, n):
        new_basis = [Fraction(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            new_basis[i] -= b * xs[k - 1]
            new_basis[i + 1] += b
        basis = new_basis
        for i, b in enumerate(basis):
            coeffs[i] += divided[k] * b
    return tuple(coeffs)


def _ray_fit(counter, degree: int) -> Union[RayPolynomial, RayFitFailure]:
    xs = list(range(1, degree + 2))
    ys = [counter(n) for n in xs]
    coeffs = _interpolate(xs, ys)
    top = len(coeffs)
    while top > 1 and coeffs[top - 1] == 0:
        top -= 1
    check_points = (degree + 2, degree + 3)
    poly = RayPolynomial(coeffs[:top], tuple(xs), check_points)
    check_values = [counter(n) for n in check_points]
    if any(poly.evaluate(n) != v for n, v in zip(check_points, check_values)):
        return RayFitFailure(_CHAMBER_CROSSING, tuple(xs + list(check_points)),
                             tuple(ys + check_values))
    return poly


def multiplicity_polynomial(lam, mu: Sequence, *, threads: Optional[int] = None):
    """Polynomial N -> multiplicity of N*mu in V(N*lam), degree <= r(r-1)/2.

    Interpolates exactly on N = 1..d+1 and verifies at d+2 and d+3; if the
    verification fails the raw values are returned in a RayFitFailure
    instead of a polynomial.
    """
    lam = _as_dominant(lam)
    mu = _check_weight(mu, lam.rank, "mu")
    if sum(lam.canonical) != sum(mu):
        raise ValidationError("unequal-sums", "lambda and mu must have equal entry sums")
    r = lam.rank
    degree = r * (r - 1) // 2

    def counter(n: int) -> int:
        return multiplicity(lam.scaled(n), vec_scale(mu, n), threads=threads)

    return _ray_fit(counter, degree)


def tensor_polynomial(lam, mu, nu, *, threads: Optional[int] = None):
    """Polynomial N -> coefficient of V(N*nu) in V(N*lam) (x) V(N*mu)."""
    lam = _as_dominant(lam)
    mu = _as_dominant(mu)
    nu = _as_dominant(nu)
    if not (lam.rank == mu.rank == nu.rank):
        raise ValidationError("bad-length", "weights must share one rank")
    if sum(lam.canonical) + sum(mu.canonical) != sum(nu.canonical):
        raise ValidationError("unequal-sums", "sum(lambda) + sum(mu) must equal sum(nu)")
    r = lam.rank
    degree = r * (r - 1) // 2

    def counter(n: int) -> int:
        return tensor_product(lam.scaled(n), mu.scaled(n), nu.scaled(n), threads=threads)

    return _ray_fit(counter, degree)
