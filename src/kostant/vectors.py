"""Exact rational linear algebra for the root system A_r.

Vectors live in R^{r+1}, written in the canonical basis, and every entry is
an exact rational number in one format: an int where the entry is integral
and a Fraction only where it is not.  _exact holds that rule and the one
grammar for number strings, an integer or p/q on the command line and in the
library alike; it refuses floats and anything else with a code.  Every
vector this module returns follows the format, and scaled_ints turns
rational vectors into ints for the integer engine.  The positive roots are
e_i - e_j for i < j.  The conventions fixed here (fundamental coordinates,
rho, the highest root multiples theta, cone membership, subset sums,
regularity, deformation) are shared by every other module in the package,
and so are the input checks: int_entries for integer exponents, root_vector
for a partition argument, dominant, weight_pair and weight_triple for the
weights of a multiplicity or a tensor coefficient.  The engine and the
oracles both call them, so a bad input gets one error code everywhere.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations
from math import lcm
from typing import Iterable, List, Sequence, Tuple, Union

Exact = Union[int, Fraction]
Vector = Tuple[Exact, ...]

_RATIONAL = re.compile(r"[+-]?\d+(/[1-9]\d*)?")  # the number grammar of a string: integer or p/q

# Regularity and the chamber keys of order selection read all 2^r subset
# sums, which is exact but exponential in the rank; practical ranks here are
# single digits.  subset_sums refuses a larger rank before it builds a sum.
_SUBSET_RANK_LIMIT = 20


class ValidationError(ValueError):
    """Invalid input, tagged with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _exact(x) -> Exact:
    """x as an int if it is integral, else as a Fraction.  A string must be an
    integer or p/q once stripped; a float, or any value Fraction refuses, is refused."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise ValidationError("inexact-entry", f"floating-point entry {x!r}; give integers or p/q rationals")
    if isinstance(x, str):
        x = x.strip()
        if not _RATIONAL.fullmatch(x):
            raise ValidationError("malformed-rational", f"entry {x!r} is not an integer or p/q rational")
        try:
            x = Fraction(x) if "/" in x else int(x)
        except ValueError:  # the syntax is checked, so only the digit limit is left
            raise ValidationError("malformed-rational", f"an entry of {len(x)} characters has a number past "
                                  f"the limit of {sys.get_int_max_str_digits()} digits") from None
    elif type(x) is not Fraction:  # subclasses too, so the result is exactly int or Fraction
        try:
            x = Fraction(x)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("malformed-rational", f"{type(x).__name__} entry: {exc}") from None
    return x.numerator if x.denominator == 1 else x


def as_vector(entries: Iterable) -> Vector:
    """The entries as a tuple of r+1 >= 2 exact numbers: ints where integral,
    Fractions otherwise (Fraction(4, 2) becomes 2).  Floats are refused."""
    out = [x if type(x) is int else _exact(x) for x in entries]  # ints skip the call
    if len(out) < 2:
        raise ValidationError("bad-length", "a rank-r vector needs r+1 >= 2 entries")
    return tuple(out)


def scaled_ints(*vectors: Sequence) -> List[Tuple[int, ...]]:
    """The vectors as ints, all multiplied by the lcm of their denominators.

    A positive common factor keeps the sign of every comparison between
    partial sums and subset sums, which is all the searches read.
    """
    vectors = [as_vector(v) for v in vectors]
    scale = lcm(*(x.denominator for v in vectors for x in v))
    return [tuple(x.numerator * (scale // x.denominator) for x in v) for v in vectors]


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(_exact(a + b) for a, b in zip(u, v, strict=True))


def vec_scale(v: Vector, c) -> Vector:
    c = _exact(c)
    return tuple(_exact(c * a) for a in v)


def zero_mean(v: Vector) -> Vector:
    """Translate by a multiple of (1, ..., 1) so the entries sum to zero."""
    shift = Fraction(sum(v), len(v))
    return as_vector(a - shift for a in v)


def is_integral(v: Sequence[Exact]) -> bool:
    return all(a.denominator == 1 for a in v)


def to_fundamental(v: Sequence) -> Tuple[Exact, ...]:
    """Consecutive differences (v_1 - v_2, ..., v_r - v_{r+1})."""
    v = as_vector(v)
    return tuple(_exact(v[i] - v[i + 1]) for i in range(len(v) - 1))


def from_fundamental(coords: Sequence) -> Vector:
    """The unique zero-sum vector with the given consecutive differences."""
    coords = [_exact(c) for c in coords]
    if not coords:
        raise ValidationError("bad-length", "need at least one fundamental coordinate")
    suffix_sums = accumulate(reversed(coords), initial=0)
    return zero_mean(tuple(reversed(list(suffix_sums))))


def rho(r: int) -> Vector:
    """Half the sum of the positive roots: (r/2, r/2 - 1, ..., -r/2)."""
    if r < 1:
        raise ValidationError("bad-rank", "rank must be >= 1")
    return as_vector(Fraction(r, 2) - i for i in range(r + 1))


def positive_roots(r: int) -> list[Vector]:
    """All e_i - e_j with 1 <= i < j <= r+1, in lexicographic order."""
    return [tuple((k == i) - (k == j) for k in range(r + 1))
            for i, j in combinations(range(r + 1), 2)]


def in_positive_cone(a: Sequence) -> bool:
    """Membership in the cone spanned by the positive roots.

    Holds exactly when the entries sum to zero and every proper partial sum
    a_1 + ... + a_k is non-negative.
    """
    a = as_vector(a)
    return sum(a) == 0 and min(accumulate(a)) >= 0


def subset_sums(a: Sequence) -> List:
    """The 2^r subset sums of a_1, ..., a_r, by bit mask: bit k of m stands for
    a_{k+1}, and each doubling appends the sums that include the next entry.
    A rank above _SUBSET_RANK_LIMIT is refused with rank-too-large."""
    if len(a) - 1 > _SUBSET_RANK_LIMIT:
        raise ValidationError("rank-too-large", f"subset sums are limited to rank {_SUBSET_RANK_LIMIT}")
    sums = [0]
    for x in a[:-1]:
        sums += [s + x for s in sums]
    return sums


def is_regular(a: Sequence) -> bool:
    """No non-empty proper subset of entries sums to zero."""
    a = as_vector(a)
    if sum(a) != 0:
        raise ValidationError("not-zero-sum", "regularity is defined for zero-sum vectors")
    # A zero-sum subset or its (zero-sum) complement leaves out the last entry.
    return 0 not in subset_sums(a)[1:]


def int_entries(entries: Iterable) -> Tuple[int, ...]:
    """The entries as ints: a float is refused with inexact-entry and a
    non-integral rational with non-integral, never truncated."""
    v = tuple(x if type(x) is int else _exact(x) for x in entries)
    if Fraction in map(type, v):  # _exact keeps a Fraction only where it is not integral
        raise ValidationError("non-integral", "need integer entries")
    return v


def root_vector(a: Sequence) -> Tuple[int, ...]:
    """A partition argument as ints: an integral zero-sum vector of r+1 >= 2 entries."""
    v = int_entries(as_vector(a))
    if sum(v) != 0:
        raise ValidationError("not-zero-sum", "partition counts need a zero-sum vector")
    return v


def deform(a: Sequence) -> Vector:
    """Regularising shift a + (1/(2r)) * (1, ..., 1, -r) for integral zero-sum a.

    The result is regular, and it lies in the positive-root cone exactly when
    a does, so cone membership and the residue machinery can be evaluated on
    the deformed point without changing the count.
    """
    a = root_vector(a)
    r = len(a) - 1
    eps = Fraction(1, 2 * r)
    return tuple(a[i] + eps for i in range(r)) + (a[r] - r * eps,)


def theta(r: int) -> "DominantWeight":
    """The dominant weight (r, r-1, ..., 1, -r(r+1)/2).

    Its fundamental coordinates are (1, ..., 1, 1 + r(r+1)/2); the weight is
    regular and zero-sum, which makes it the standard stress test direction
    for partition and multiplicity computations.
    """
    if r < 1:
        raise ValidationError("bad-rank", "rank must be >= 1")
    return DominantWeight(tuple(range(r, 0, -1)) + (-r * (r + 1) // 2,))


class DominantWeight(namedtuple("DominantWeight", "canonical")):
    """A weight with non-negative integer fundamental coordinates.

    A named tuple of one field, the canonical vector, checked in __new__, so
    copies, pickles and _replace, which all build through it, are checked too.
    """

    __slots__ = ()

    def __new__(cls, canonical: Sequence):
        v = as_vector(canonical)
        for i in range(len(v) - 1):
            d = v[i] - v[i + 1]
            if d.denominator != 1:
                raise ValidationError("non-integral-weight", f"consecutive difference {i + 1} is not an integer")
            if d < 0:
                raise ValidationError("not-dominant", f"consecutive difference {i + 1} is negative")
        return super().__new__(cls, v)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so it is checked too
        return cls(*iterable)

    @property
    def rank(self) -> int:
        return len(self.canonical) - 1

    def fundamental(self) -> Tuple[Exact, ...]:
        return to_fundamental(self.canonical)

    def scaled(self, n: int) -> "DominantWeight":
        return DominantWeight(vec_scale(self.canonical, n))


def dominant(lam) -> DominantWeight:
    """lam as a DominantWeight, checked on the way in unless it is one already."""
    return lam if isinstance(lam, DominantWeight) else DominantWeight(as_vector(lam))


def weight_pair(lam, mu) -> Tuple[DominantWeight, Vector]:
    """lam dominant; mu a weight of the same rank and entry sum."""
    lam = dominant(lam)
    mu = as_vector(mu)
    if len(mu) != lam.rank + 1:
        raise ValidationError("bad-length", f"mu must have {lam.rank + 1} entries")
    if not is_integral(to_fundamental(mu)):
        raise ValidationError("non-integral-weight", "mu needs integer consecutive differences")
    if sum(lam.canonical) != sum(mu):
        raise ValidationError("unequal-sums", "lambda and mu must have equal entry sums")
    return lam, mu


def weight_triple(lam, mu, nu) -> Tuple[DominantWeight, DominantWeight, DominantWeight]:
    """Three dominant weights of one rank with sum(lam) + sum(mu) = sum(nu)."""
    lam, mu, nu = dominant(lam), dominant(mu), dominant(nu)
    if not (lam.rank == mu.rank == nu.rank):
        raise ValidationError("bad-length", "weights must share one rank")
    if sum(lam.canonical) + sum(mu.canonical) != sum(nu.canonical):
        raise ValidationError("unequal-sums", "sum(lambda) + sum(mu) must equal sum(nu)")
    return lam, mu, nu
