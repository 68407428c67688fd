"""Kostant partition functions for A_r via iterated residues.

For a zero-sum integral vector a in the cone of positive roots, the number
of ways to write a as a non-negative integer combination of the roots
e_i - e_j (i < j) equals an alternating sum of iterated residues at z = 0 of

    (1+z_1)^{a_1 + r - 1} (1+z_2)^{a_2 + r - 2} ... (1+z_r)^{a_r}
    -----------------------------------------------------------
            z_1 z_2 ... z_r  *  prod_{i<j} (z_i - z_j)

taken over a pruned set of variable orders (the "special" permutations of
the regularised vector), each weighted by a sign.  Residues are extracted
one variable at a time, and each step needs only the coefficients below the
pole order of the active variable, so the cost never depends on the sizes of
the entries of a.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add
from typing import Callable, Dict, List, Sequence, Tuple

from .permutations import Permutation
from .vectors import (
    ValidationError,
    as_vector,
    deform,
    in_positive_cone,
    int_vector,
    is_regular,
    rank_of,
)


def binomial(e: int, m: int) -> int:
    """C(e, m) for any integer e and m >= 0, via falling factorials.

    Exact for negative e as well: C(e, m) = (-1)^m C(m - e - 1, m).  Cost
    grows with m only, never with |e|, so exponents around 10^9 are fine.
    """
    if m < 0:
        raise ValueError("lower index must be non-negative")
    if e >= 0:
        return comb(e, m)
    return (-comb(m - e - 1, m)) if (m % 2) else comb(m - e - 1, m)


def special_permutations(a: Sequence) -> List[Permutation]:
    """The variable orders that carry the residue formula for the vector a.

    A permutation w of {1, ..., r} qualifies when, for each i < r, the sign
    of the partial sum a_{w(1)} + ... + a_{w(i)} dictates the step: w(i) <
    w(i+1) if the sum is >= 0 and w(i) > w(i+1) otherwise.  Built by prefix
    extension with pruning; the full factorial set is never materialised.
    """
    a = as_vector(a)
    r = rank_of(a)
    entries = a[:r]
    frontier = [((i,), 1 << i, entries[i - 1]) for i in range(1, r + 1)]
    for _ in range(r - 1):
        extended = []
        for prefix, mask, s in frontier:
            last = prefix[-1]
            candidates = range(last + 1, r + 1) if s >= 0 else range(1, last)
            for j in candidates:
                if not (mask >> j) & 1:
                    extended.append((prefix + (j,), mask | (1 << j), s + entries[j - 1]))
        frontier = extended
    return [Permutation(prefix) for prefix, _, _ in frontier]


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> Tuple[Tuple[int, ...], ...]:
    """Every tuple of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        return ((total,),)
    return tuple((m,) + rest for m in range(total + 1)
                 for rest in _compositions(total - m, parts - 1))


def _residue_step(state: Dict[Tuple[int, ...], int], active: List[int],
                  exponents: Sequence[int], t: int) -> Dict[Tuple[int, ...], int]:
    """Residue at z_t = 0 of state times the integrand factors involving z_t.

    `state` maps exponent tuples over the active variables to coefficients.
    The factors are (1+z_t)^{e_t} and, for every other active z_i,
    1/(z_i - z_t) = sum_m z_t^m z_i^{-1-m}, negated when i > t.  A state term
    with z_t^{-p} pairs with the z_t^{p-1} coefficient of their product: the
    sum over compositions m_0 + sum m_i = p - 1 of C(e_t, m_0) prod z_i^{-1-m_i}.
    Every exponent in a state is at most -1, so p >= 1 and the work depends
    on the pole orders only, never on the size of e_t.
    """
    tpos = active.index(t)
    others = len(active) - 1
    sign = -1 if (others - tpos) % 2 else 1  # active is sorted: others - tpos lie above t
    e_t = exponents[t - 1]
    by_pole: dict = {}
    for exps, c in state.items():
        by_pole.setdefault(-exps[tpos], []).append((exps[:tpos] + exps[tpos + 1:], c))
    out: dict = {}
    for p, terms in by_pole.items():
        shifts = []
        for m in _compositions(p - 1, others + 1):
            c = binomial(e_t, m[0])
            if c:
                shifts.append((tuple(-1 - k for k in m[1:]), sign * c))
        for base, c1 in terms:
            for shift, c2 in shifts:
                e = tuple(map(add, base, shift))
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _residue_sum(exponents: Sequence[int], weighted: Sequence[Tuple[Permutation, int]]):
    """Sum of sign * IRes^w over (w, sign) pairs, sharing inner residue steps.

    The residue for w processes z_{w(r)} first and z_{w(1)} last, so orders
    sharing a prefix of w share their innermost steps; the recursion below
    walks that tree once.
    """
    r = len(exponents)
    total = 0
    items = [(tuple(reversed(w.images)), sign) for w, sign in weighted]

    def descend(state, active, group, depth):
        nonlocal total
        if depth == r:
            value = state.get((), 0)
            if value:
                total += value * sum(sign for _, sign in group)
            return
        by_var: dict = {}
        for seq, sign in group:
            by_var.setdefault(seq[depth], []).append((seq, sign))
        for t in sorted(by_var):
            nxt = _residue_step(state, active, exponents, t)
            if not nxt:
                continue
            descend(nxt, [v for v in active if v != t], by_var[t], depth + 1)

    # The explicit 1/(z_1 ... z_r) factor; everything else enters step by step.
    descend({(-1,) * r: 1}, list(range(1, r + 1)), items, 0)
    return total


def iterated_residue(w: Permutation, exponents: Sequence[int]):
    """IRes^w at z = 0: residues taken in z_{w(r)} first, ..., z_{w(1)} last.

    `exponents` are the numerator exponents (e_1, ..., e_r) of the standard
    integrand; the denominator z_1...z_r prod_{i<j}(z_i - z_j) is implicit.
    """
    if len(w) != len(exponents):
        raise ValueError("permutation size must match the number of variables")
    return _residue_sum([int(e) for e in exponents], [(w, 1)])


def iterated_residue_by_substitution(w: Permutation, exponents: Sequence[int]):
    """IRes^w computed by relabelling variables instead of reordering residues.

    Substituting z_{w^{-1}(k)} for the k-th variable turns the standard
    integrand into the one with exponents permuted by w, at the cost of
    sign(w) from reordering the difference factors; the residues are then
    taken in the standard order.  Must agree with `iterated_residue`.
    """
    if len(w) != len(exponents):
        raise ValueError("permutation size must match the number of variables")
    permuted = w.apply([int(e) for e in exponents])
    identity = Permutation.identity(len(w))
    return w.signature * _residue_sum(permuted, [(identity, 1)])


def descent_sign(w: Permutation) -> int:
    return -1 if w.descents % 2 else 1


def inversion_sign(w: Permutation) -> int:
    return w.signature


# The per-order sign in the alternating residue sum.  Two parities are
# plausible a priori (descents vs. inversions of w); the arbitration module
# checks both against the brute-force count on exhaustive boxes and the
# descent parity is the one that survives.  See kostant/arbitration.py.
TERM_SIGN: Callable[[Permutation], int] = descent_sign


def partition_total(a: Sequence, regularised: Sequence,
                    term_sign: Callable[[Permutation], int] = None):
    """The alternating residue sum for a, with orders drawn from `regularised`.

    Exposed separately so that (i) deformation insensitivity for already
    regular vectors and (ii) candidate sign conventions can be exercised
    directly.  `a` supplies the integrand exponents; `regularised` only
    selects the set of residue orders and must be regular for the
    descent/ascent tests to be unambiguous.
    """
    a = as_vector(a)
    r = rank_of(a)
    sign = term_sign or TERM_SIGN
    orders = special_permutations(as_vector(regularised))
    exponents = [int(a[k]) + r - 1 - k for k in range(r)]
    weighted = [(w, sign(w)) for w in orders]
    return _residue_sum(exponents, weighted)


@lru_cache(maxsize=1 << 15)
def _partition_of(a: Tuple[int, ...]) -> int:
    if not in_positive_cone(a):
        return 0
    av = as_vector(a)
    regularised = av if is_regular(av) else deform(av)
    return partition_total(av, regularised)


def kostant_partition(a: Sequence) -> int:
    """Number of ways to write a as a non-negative integer sum of positive roots."""
    a = as_vector(a)
    if not all(x.denominator == 1 for x in a):
        raise ValidationError("non-integral", "partition counts need an integral vector")
    if sum(a) != 0:
        raise ValidationError("not-zero-sum", "partition counts need a zero-sum vector")
    return _partition_of(int_vector(a))
