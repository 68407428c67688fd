"""Weight multiplicities and tensor coefficients as alternating partition sums.

The multiplicity of a weight mu in the irreducible V(lambda) is

    sum over valid w of sign(w) * partitions(w(lambda+rho) - (mu+rho)),

and the coefficient of V(nu) in V(lambda) (x) V(mu) is the same shape of sum
over valid couples, with sign sign(w1) sign(w2) and argument
w1(lambda+rho) + w2(mu+rho) - (nu+2rho).  "Valid" means the partition
argument lands in the positive-root cone, which the pruned searches in
permsearch guarantee by construction.  The arguments of one sum are counted
in-process by one batched call of partition_counts.  The couple sign is the
only one of two plausible readings that matches the tableau oracle;
kostant/arbitration.py weighs the terms of _couple_terms by both.

Every w fixes the multiples of (1, ..., 1), so translating the weights by
such multiples (balanced on both sides) and rho by (r/2)(1, ..., 1) leaves
every partition argument as it is.  Each weight is therefore taken to an
integer representative once, at the API edge: its last entry is subtracted
and rho' = (r, r-1, ..., 0) added.  The searches and the arguments are then
built on ints.

Along the ray N -> (N*lambda, N*mu) the weights meet the root lattice at the
multiples of a step s (the denominator of the last entry of lambda - mu, or
of lambda + mu - nu), and there the counts agree with a polynomial of degree
at most r(r-1)/2; the polynomial is recovered by exact interpolation on
N = s, 2s, ..., (d+1)s and verified at (d+2)s and (d+3)s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

from .parallel import map_counts
from .permsearch import valid_couples, valid_permutations
from .permutations import Permutation
from .residues import partition_counts
from .vectors import Exact, _exact, weight_pair, weight_triple


def _lift(weight: Sequence[Exact], shift: Exact, rho_multiple: int) -> Tuple[int, ...]:
    """weight - shift*(1, ..., 1) + rho_multiple*(r, r-1, ..., 0), as ints."""
    r = len(weight) - 1
    return tuple(int(x - shift) + rho_multiple * (r - i) for i, x in enumerate(weight))


def _alternating_sum(terms: Iterable[Tuple[int, Tuple[int, ...]]]) -> int:
    """The sum of sign * partitions(arg) over (sign, arg) terms, counted in one batch."""
    terms = list(terms)
    values = map_counts(partition_counts, [arg for _, arg in terms])
    return sum(sign * value for (sign, _), value in zip(terms, values))


def multiplicity(lam, mu: Sequence) -> int:
    """Multiplicity of the weight mu in the irreducible V(lam).

    lam must be dominant; mu needs integer consecutive differences and the
    same entry sum as lam.  Weights differing from lam by something outside
    the root lattice have multiplicity zero, which is returned, not raised.
    """
    lam, mu = weight_pair(lam, mu)
    # lam and mu have integer consecutive differences, so lam - mu is
    # integral exactly when its last entry is, and then both weights
    # translated by lam's last entry are integral.
    shift = lam.canonical[-1]
    if (shift - mu[-1]).denominator != 1:
        return 0
    u = _lift(lam.canonical, shift, 1)
    v = _lift(mu, shift, 1)
    total = _alternating_sum(
        (w.signature, tuple(u[i - 1] - b for i, b in zip(w.images, v)))
        for w in valid_permutations(u, v)
    )
    if total < 0:
        raise AssertionError("alternating multiplicity sum came out negative")
    return total


def _couple_terms(lam, mu, nu) -> List[Tuple[Permutation, Permutation, Tuple[int, ...]]]:
    """(w1, w2, partition argument) of each valid couple of the tensor sum,
    and none when lam + mu - nu is off the root lattice."""
    lam, mu, nu = weight_triple(lam, mu, nu)
    shift1, shift2 = lam.canonical[-1], mu.canonical[-1]
    if (shift1 + shift2 - nu.canonical[-1]).denominator != 1:
        return []
    u1 = _lift(lam.canonical, shift1, 1)
    u2 = _lift(mu.canonical, shift2, 1)
    target = _lift(nu.canonical, shift1 + shift2, 2)
    return [(w1, w2, tuple(u1[i - 1] + u2[j - 1] - t for i, j, t in zip(w1.images, w2.images, target)))
            for w1, w2 in valid_couples(u1, u2, target)]


def tensor_product(lam, mu, nu) -> int:
    """Coefficient of V(nu) in V(lam) (x) V(mu); all three weights dominant."""
    total = _alternating_sum((w1.signature * w2.signature, arg)
                             for w1, w2, arg in _couple_terms(lam, mu, nu))
    if total < 0:
        raise AssertionError("alternating tensor sum came out negative")
    return total


class RayPolynomial(NamedTuple):
    """Exact polynomial agreeing with a dilation ray of counts.

    coefficients[k] multiplies N^k; sample_points were interpolated and
    verified_points checked against freshly computed counts.  The ray meets
    the root lattice only at multiples of step, so the polynomial gives the
    counts there; every other N has count 0.
    """

    coefficients: Tuple[Exact, ...]
    sample_points: Tuple[int, ...]
    verified_points: Tuple[int, ...]
    step: int = 1

    @property
    def degree(self) -> int:
        deg = len(self.coefficients) - 1
        while deg > 0 and self.coefficients[deg] == 0:
            deg -= 1
        return deg

    def evaluate(self, n) -> Exact:
        n, acc = _exact(n), 0
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return _exact(acc)


class RayFitFailure(NamedTuple):
    """Raw ray data returned when the sampled counts fail to be polynomial."""

    reason: str
    sample_points: Tuple[int, ...]
    values: Tuple[int, ...]


_CHAMBER_CROSSING = "ray crosses chamber structure inconsistently"


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> Tuple[Exact, ...]:
    """Newton interpolation through (xs[i], ys[i]), exact, monomial coefficients."""
    n = len(xs)
    divided = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = Fraction(divided[i] - divided[i - 1], xs[i] - xs[i - level])
    coeffs = [0] * n
    basis = [1]  # expands prod (x - xs[k]) incrementally, in ints
    coeffs[0] = divided[0]
    for k in range(1, n):
        new_basis = [0] * (len(basis) + 1)
        for i, b in enumerate(basis):
            new_basis[i] -= b * xs[k - 1]
            new_basis[i + 1] += b
        basis = new_basis
        for i, b in enumerate(basis):
            coeffs[i] += divided[k] * b
    return tuple(map(_exact, coeffs))


def _ray_fit(counter, degree: int, step: int) -> Union[RayPolynomial, RayFitFailure]:
    xs = [step * k for k in range(1, degree + 2)]
    ys = [counter(n) for n in xs]
    coeffs = _interpolate(xs, ys)
    top = len(coeffs)
    while top > 1 and coeffs[top - 1] == 0:
        top -= 1
    check_points = (step * (degree + 2), step * (degree + 3))
    poly = RayPolynomial(coeffs[:top], tuple(xs), check_points, step)
    check_values = [counter(n) for n in check_points]
    if any(poly.evaluate(n) != v for n, v in zip(check_points, check_values)):
        return RayFitFailure(_CHAMBER_CROSSING, tuple(xs + list(check_points)),
                             tuple(ys + check_values))
    return poly


def multiplicity_polynomial(lam, mu: Sequence):
    """Polynomial N -> multiplicity of N*mu in V(N*lam), degree <= r(r-1)/2.

    N*(lam - mu) lies in the root lattice only at the multiples of a step s,
    the denominator of lam_{r+1} - mu_{r+1} (that is (r+1)/gcd(r+1, c) for
    the class c = sum_i i*f_i mod r+1 of the fundamental coordinates f of
    lam - mu).  Interpolates exactly on N = s, 2s, ..., (d+1)s and verifies at
    (d+2)s and (d+3)s; if the verification fails the raw values are returned
    in a RayFitFailure instead of a polynomial.
    """
    lam, mu = weight_pair(lam, mu)
    r = lam.rank
    degree = r * (r - 1) // 2

    def counter(n: int) -> int:
        return multiplicity(lam.scaled(n), tuple(n * x for x in mu))

    return _ray_fit(counter, degree, (lam.canonical[-1] - mu[-1]).denominator)


def tensor_polynomial(lam, mu, nu):
    """Polynomial N -> coefficient of V(N*nu) in V(N*lam) (x) V(N*mu)."""
    lam, mu, nu = weight_triple(lam, mu, nu)
    r = lam.rank
    degree = r * (r - 1) // 2

    def counter(n: int) -> int:
        return tensor_product(lam.scaled(n), mu.scaled(n), nu.scaled(n))

    step = (lam.canonical[-1] + mu.canonical[-1] - nu.canonical[-1]).denominator
    return _ray_fit(counter, degree, step)
