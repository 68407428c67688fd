"""Pruned enumeration of the permutations entering the multiplicity sums.

A permutation w contributes to the Kostant multiplicity sum for (u, v) when
w(u) - v lies in the positive-root cone, i.e. when every partial sum
u_{w(1)} + ... + u_{w(k)} dominates v_1 + ... + v_k.  Couples (w1, w2) for
the tensor sum satisfy the same inequalities for w1(u1) + w2(u2) against v.
Rational input is scaled once by the lcm of its denominators, which keeps
every comparison, so the partial sums are ints.  Both searches extend
prefixes position by position, carrying the partial sums, against the
cumulative sums of v; candidates are visited in decreasing order of their
contribution so a failed bound cuts the rest of the loop.  Prefixes that can
no longer satisfy the current inequality are never extended, so the
factorial set is never materialised.  Each prefix also carries its inversion
count (appending i adds the number of larger entries already placed), so no
result recounts it for its signature.

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

# The most prefixes any search keeps between two positions.  The benchmark's
# queries peak at 402 (theta(6)) and the test suite at 10944 (a rank-4 couple
# search); theta(7)'s multiplicity reaches 2466, theta(8)'s 19824 and
# theta(9)'s 162192, which takes a second to build.
FRONTIER_LIMIT = 16384


class BudgetExceeded(RuntimeError):
    """A query refused past a cost limit, tagged with its code: a search past
    FRONTIER_LIMIT prefixes, or a sum past formulas.TERM_LIMIT terms."""

    code = "budget-exceeded"


def _bounded(frontier: list) -> list:
    if len(frontier) > FRONTIER_LIMIT:
        raise BudgetExceeded(f"the search frontier passed {FRONTIER_LIMIT} prefixes; the query is too large")
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

    Both prefixes grow in lockstep (position k of each before position k+1),
    pruning on the combined partial sum.  The first component is additionally
    screened against the best completion by the second, which prunes without
    losing couples.
    """
    u1, u2, v = scaled_ints(u1, u2, v)
    n = len(v)
    if len(u1) != n or len(u2) != n:
        raise ValidationError("bad-length", "u1, u2 and v must have the same length")
    if sum(u1) + sum(u2) != sum(v):
        raise ValidationError("unequal-sums", "sum(u1) + sum(u2) must equal sum(v)")

    order1 = sorted(enumerate(u1, 1), key=itemgetter(1), reverse=True)
    order2 = sorted(enumerate(u2, 1), key=itemgetter(1), reverse=True)
    frontier = [((), (), 0, 0, 0, 0, 0)]  # prefixes, masks, partial sum, inversion counts
    for bound in accumulate(v):
        extended = []
        for p1, p2, m1, m2, s, inv1, inv2 in frontier:
            best2 = next(y for j, y in order2 if not (m2 >> j) & 1)
            for i, x in order1:
                if (m1 >> i) & 1:
                    continue
                s1 = s + x
                if s1 + best2 < bound:
                    break
                q1, n1, i1 = p1 + (i,), m1 | (1 << i), inv1 + (m1 >> i).bit_count()
                for j, y in order2:
                    if (m2 >> j) & 1:
                        continue
                    s2 = s1 + y
                    if s2 < bound:
                        break
                    extended.append((q1, p2 + (j,), n1, m2 | (1 << j), s2,
                                     i1, inv2 + (m2 >> j).bit_count()))
        frontier = _bounded(extended)
    found = sorted((p1, p2, inv1, inv2) for p1, p2, _, _, _, inv1, inv2 in frontier)
    return [(Permutation._searched(p1, inv1), Permutation._searched(p2, inv2))
            for p1, p2, inv1, inv2 in found]


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
