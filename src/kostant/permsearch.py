"""Pruned enumeration of the permutations entering the multiplicity sums.

A permutation w contributes to the Kostant multiplicity sum for (u, v) when
w(u) - v lies in the positive-root cone, i.e. when every partial sum
u_{w(1)} + ... + u_{w(k)} dominates v_1 + ... + v_k.  Rational input is
scaled once by the lcm of its denominators, which keeps every comparison, so
the partial sums are ints.  The search extends prefixes position by
position, carrying the partial sums, against the cumulative sums of v;
candidates are visited in decreasing order of their contribution so a failed
bound cuts the rest of the loop.  Prefixes that can no longer satisfy the
current inequality are never extended, so the factorial set is never
materialised.  Each prefix also carries its inversion count (appending i
adds the number of larger entries already placed), so no result recounts it
for its signature.

Couples (w1, w2) for the tensor sum need w1(u1) + w2(u2) - v in the cone:
for a fixed w2 that is Kostant's condition on w1 against v - w2(u2), so the
couples come from the same search, run for w2 and then for each w2's w1.

The tensor sum searches a third set the same way: the w for which
w(a) - b is a weight of V(lam) (Brauer-Klimyk), pruned on each entry and
each partial sum, on the int lifts formulas builds.  Every search refuses a
frontier of more than FRONTIER_LIMIT prefixes with BudgetExceeded, so a
query too large to answer fails fast instead of running without bound.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter
from typing import List, Sequence, Tuple

from .permutations import Permutation
from .vectors import ValidationError, scaled_ints

# The most prefixes any search keeps between two positions, and the most
# couples valid_couples returns.  The benchmark's queries peak at 402
# (theta(6)) and the test suite at 10944 (the couples of a rank-4 query);
# theta(7)'s multiplicity reaches 2466, theta(8)'s 19824 and theta(9)'s
# 162192, which takes a second to build.
FRONTIER_LIMIT = 16384


class BudgetExceeded(RuntimeError):
    """A query refused past a cost limit, tagged with its code: a search past
    FRONTIER_LIMIT prefixes, a couple list past FRONTIER_LIMIT couples, or a
    sum past formulas.TERM_LIMIT terms."""

    code = "budget-exceeded"


def _bounded(frontier: list) -> list:
    if len(frontier) > FRONTIER_LIMIT:
        raise BudgetExceeded(f"a search passed {FRONTIER_LIMIT} prefixes or couples; the query is too large")
    return frontier


def valid_permutations(u: Sequence, v: Sequence) -> List[Permutation]:
    """All w with w(u) - v in the positive-root cone, w(u) = (u_{w(1)}, ...).

    Ties (partial sums meeting v's exactly) are accepted.  When u is
    strictly decreasing the returned permutations give pairwise distinct
    rearrangements, so no deduplication is performed.
    """
    u, v = scaled_ints(u, v)
    n = len(u)
    if len(v) != n:
        raise ValidationError("bad-length", "u and v must have the same length")
    if sum(u) != sum(v):
        raise ValidationError("unequal-sums", "u and v must have equal entry sums")

    # Candidates (i, u_i) in decreasing u-order: once a candidate fails the
    # running inequality every later one fails too.
    order = sorted(enumerate(u, 1), key=itemgetter(1), reverse=True)
    frontier: List[Tuple[Tuple[int, ...], int, int, int]] = [((), 0, 0, 0)]
    for bound in accumulate(v):
        extended = []
        for prefix, mask, s, inv in frontier:
            for i, x in order:
                if (mask >> i) & 1:
                    continue
                s_next = s + x
                if s_next < bound:
                    break
                extended.append((prefix + (i,), mask | (1 << i), s_next,
                                 inv + (mask >> i).bit_count()))
        frontier = _bounded(extended)
    found = sorted((p, inv) for p, _, _, inv in frontier)
    return [Permutation._searched(p, inv) for p, inv in found]


def valid_couples(u1: Sequence, u2: Sequence, v: Sequence) -> List[Tuple[Permutation, Permutation]]:
    """All couples (w1, w2) with w1(u1) + w2(u2) - v in the positive-root cone.

    Two Kostant searches: the w2 for which w2(u2) plus the k largest entries
    of u1 reaches v's k-th partial sum for every k, then for each the w1 with
    w1(u1) - (v - w2(u2)) in the cone, ties accepted.  FRONTIER_LIMIT bounds
    the w2 search, each w1 search and the running list of couples.
    """
    u1, u2, v = scaled_ints(u1, u2, v)
    n = len(v)
    if len(u1) != n or len(u2) != n:
        raise ValidationError("bad-length", "u1, u2 and v must have the same length")
    if sum(u1) + sum(u2) != sum(v):
        raise ValidationError("unequal-sums", "sum(u1) + sum(u2) must equal sum(v)")

    found = []
    for w2 in valid_permutations(u2, [b - x for b, x in zip(v, sorted(u1, reverse=True))]):
        found.extend((w1, w2) for w1 in valid_permutations(u1, [b - u2[j - 1] for b, j in zip(v, w2.images)]))
        _bounded(found)
    return sorted(found, key=lambda c: (c[0].images, c[1].images))


def weyl_candidates(lam: Sequence[int], a: Sequence[int], b: Sequence[int]) -> List[Tuple[int, Tuple[int, ...]]]:
    """(sign(w), gamma sorted) for each w with gamma = w(a) - b a weight of V(lam).

    Ints only, unchecked, as formulas builds them: lam non-increasing, a
    non-increasing and sum(a) - sum(b) = sum(lam).  An int vector of lam's
    sum is a weight exactly when its sorted form is dominated by lam, so a
    prefix needs each entry in [lam_min, lam_max] and its sum of k entries
    between the k smallest and the k largest of lam; the full dominance
    check waits for the leaves.  Candidates are visited in decreasing a, so
    gamma's next entry only falls along the loop.
    """
    top = list(accumulate(lam))
    bottom = list(accumulate(reversed(lam)))
    high, low = lam[0], lam[-1]
    frontier: List[Tuple[Tuple[int, ...], int, int, int]] = [((), 0, 0, 0)]  # gamma prefix, mask, sum, inversions
    for k, y in enumerate(b):
        floor, ceiling = bottom[k], top[k]
        extended = []
        for prefix, mask, s, inv in frontier:
            for i, x in enumerate(a, 1):
                if (mask >> i) & 1:
                    continue
                g = x - y
                if g > high or s + g > ceiling:
                    continue
                if g < low or s + g < floor:
                    break
                extended.append((prefix + (g,), mask | (1 << i), s + g, inv + (mask >> i).bit_count()))
        frontier = _bounded(extended)
    found = []
    for gamma, _, _, inv in frontier:
        gamma = tuple(sorted(gamma, reverse=True))
        if all(s <= t for s, t in zip(accumulate(gamma), top)):
            found.append((-1 if inv % 2 else 1, gamma))
    return found
