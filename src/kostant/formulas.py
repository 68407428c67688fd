"""Weight multiplicities and tensor coefficients as alternating partition sums.

The multiplicity of a weight mu in the irreducible V(lambda) is Kostant's

    m_lambda(mu) = sum over valid w of sign(w) * partitions(w(lambda+rho) - (mu+rho)),

where "valid" means the partition argument lands in the positive-root cone,
which the pruned search valid_permutations guarantees by construction.  The
multiplicity is constant on Weyl orbits, m_lambda(mu) = m_lambda(w mu), so
mu is sorted to its dominant form first, which has the fewest terms.

The coefficient of V(nu) in V(lambda) (x) V(mu) is the Brauer-Klimyk
(Racah-Speiser) sum of multiplicities

    sum over w of sign(w) * m_lambda(w(nu+rho) - (mu+rho)),

over the w whose argument gamma is a weight of V(lambda) at all, as
permsearch.weyl_candidates finds them.  The w are grouped by the dominant
form of gamma, their signs added, and each gamma left with a non-zero sign
contributes the Kostant terms of its multiplicity, so one coefficient is
one alternating partition sum.  (The paper's form, Steinberg's double sum
over couples (w1, w2), has many times the terms; kostant/arbitration.py
keeps it to arbitrate its couple sign.)  The arguments of one sum are
counted in-process by one batched call of partition_counts, and a sum of
more than TERM_LIMIT terms is refused with BudgetExceeded before it.

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
from itertools import islice
from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

from .parallel import map_counts
from .permsearch import BudgetExceeded, valid_permutations, weyl_candidates
from .residues import partition_counts
from .vectors import Exact, _exact, weight_pair, weight_triple


def _ints(weight: Sequence[Exact], shift: Exact) -> List[int]:
    """weight - shift*(1, ..., 1) as ints.  Each entry differs from shift by
    an integer, so it has shift's denominator d, and the difference is the
    difference of the numerators over d: no Fraction arithmetic."""
    n, d = shift.numerator, shift.denominator
    return [(x.numerator - n) // d for x in weight]


def _plus_rho(v: Sequence[int], multiple: int = 1) -> Tuple[int, ...]:
    """v + multiple*(r, r-1, ..., 0)."""
    r = len(v) - 1
    return tuple(x + multiple * (r - i) for i, x in enumerate(v))


# The most terms one alternating sum may have.  The tests and the benchmark
# peak at 402 (theta(6)) and theta(7) has 2466, about 2 s of cold walks; the
# rank-7 tensor of lambda = mu = 3(w_1 + ... + w_7), nu = 2(w_1 + ... + w_7)
# builds 22068 in 0.16 s and was still walking them after 40 s.
TERM_LIMIT = 4096


def _alternating_sum(terms: Iterable[Tuple[int, Tuple[int, ...]]]) -> int:
    """The sum of sign * partitions(arg) over (sign, arg) terms, counted in one
    batch; more than TERM_LIMIT terms are refused before any is counted."""
    terms = list(islice(terms, TERM_LIMIT + 1))
    if len(terms) > TERM_LIMIT:
        raise BudgetExceeded(f"the sum has more than {TERM_LIMIT} terms; the query is too large")
    values = map_counts(partition_counts, [arg for _, arg in terms])
    return sum(sign * value for (sign, _), value in zip(terms, values))


def _kostant_terms(u: Tuple[int, ...], v: Tuple[int, ...]) -> List[Tuple[int, Tuple[int, ...]]]:
    """(sign(w), w(u) - v) for each valid w: the Kostant sum of the lifts
    u = lam + rho and v = mu + rho."""
    return [(w.signature, tuple(u[i - 1] - b for i, b in zip(w.images, v)))
            for w in valid_permutations(u, v)]


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
    u = _plus_rho(_ints(lam.canonical, shift))
    # m_lam(mu) = m_lam(w mu): the dominant form of mu, sorted as ints
    v = _plus_rho(sorted(_ints(mu, shift), reverse=True))
    total = _alternating_sum(_kostant_terms(u, v))
    if total < 0:
        raise AssertionError("alternating multiplicity sum came out negative")
    return total


def tensor_product(lam, mu, nu) -> int:
    """Coefficient of V(nu) in V(lam) (x) V(mu); all three weights dominant."""
    lam, mu, nu = weight_triple(lam, mu, nu)
    shift1, shift2 = lam.canonical[-1], mu.canonical[-1]
    if (shift1 + shift2 - nu.canonical[-1]).denominator != 1:
        return 0
    lam_ints = _ints(lam.canonical, shift1)
    candidates = weyl_candidates(lam_ints, _plus_rho(_ints(nu.canonical, shift1 + shift2)),
                                 _plus_rho(_ints(mu.canonical, shift2)))
    weights: dict = {}  # dominant gamma -> the sum of the signs of its w
    for sign, gamma in candidates:
        weights[gamma] = weights.get(gamma, 0) + sign
    u = _plus_rho(lam_ints)
    total = _alternating_sum((c * sign, arg) for gamma, c in weights.items() if c
                             for sign, arg in _kostant_terms(u, _plus_rho(gamma)))
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
