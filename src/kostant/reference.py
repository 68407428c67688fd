"""Brute-force reference implementations used to cross-check the fast path.

Deliberately naive and independent of the residue machinery: partition
counts by dynamic programming over the positive roots, weight multiplicities
by the Freudenthal recursion, tensor coefficients by counting
Littlewood-Richardson skew tableaux, and dimensions by the Weyl product
formula.  All are box-limited; out-of-box inputs raise OracleDomainError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import prod
from typing import Dict, Sequence, Tuple

from .vectors import (
    ValidationError,
    dominant,
    is_integral,
    rho,
    root_vector,
    vec_add,
    weight_pair,
    weight_triple,
    zero_mean,
)


class OracleDomainError(ValidationError):
    """Input outside the box a brute-force reference can afford."""

    def __init__(self, message: str):
        super().__init__("oracle-out-of-box", message)


DP_ENTRY_BOUND = 12
# Coin-change updates (states times roots) a DP table may take: rank 6 with
# entries up to 3 needs 1.65M, rank 5 with entries up to 6 would need 2.36M.
_DP_WORK_LIMIT = 2_000_000


def _dp_counts(rank: int, bound: int, roots: Sequence[Tuple[int, int]]) -> Dict[Tuple[int, ...], int]:
    """Partition counts of every zero-sum integral vector with |a_i| <= bound.

    Keyed by the prefix-sum vector (P_1, ..., P_r) of a, which is
    non-negative exactly on the cone; zero counts are left out.  The roots
    e_i - e_j, given as (i, j), are folded in one at a time with a
    coin-change pass; adding e_i - e_j bumps P_k for i <= k < j, so a
    lexicographically ascending sweep sees the smaller state first.
    """
    # |a_i| <= b confines the prefix sums to 0 <= P_k <= min(k, r+1-k)*b.
    caps = [min(k, rank + 1 - k) * bound for k in range(1, rank + 1)]
    work = prod(cap + 1 for cap in caps) * len(roots)
    if work > _DP_WORK_LIMIT:
        raise OracleDomainError(f"DP table would need {work} coin-change updates")
    states = list(product(*(range(cap + 1) for cap in caps)))
    counts = dict.fromkeys(states, 0)
    counts[(0,) * rank] = 1
    for i, j in roots:
        lo, hi = i - 1, min(j - 1, rank)  # prefix positions bumped by e_i - e_j
        for state in states:
            previous = list(state)
            ok = True
            for k in range(lo, hi):
                previous[k] -= 1
                if previous[k] < 0:
                    ok = False
                    break
            if ok:
                counts[state] += counts[tuple(previous)]
    return {s: c for s, c in counts.items() if c}


# The largest table built so far per rank, as (bound, table).  Adding a root
# only raises prefix sums, so it already holds every count a smaller bound's
# table would, and a larger bound replaces it.
_dp_tables: Dict[int, Tuple[int, Dict[Tuple[int, ...], int]]] = {}


def _dp_table(rank: int, bound: int) -> Dict[Tuple[int, ...], int]:
    built = _dp_tables.get(rank)
    if built is None or built[0] < bound:
        roots = [(i, j) for i in range(1, rank + 2) for j in range(i + 1, rank + 2)]
        built = _dp_tables[rank] = (bound, _dp_counts(rank, bound, roots))
    return built[1]


def kostant_partition_bruteforce(a: Sequence) -> int:
    """Partition count by dynamic programming; entries limited to |a_i| <= 12."""
    v = root_vector(a)
    rank, bound = len(v) - 1, max(1, max(map(abs, v)))
    if bound > DP_ENTRY_BOUND:
        raise OracleDomainError(f"entries exceed the oracle bound {DP_ENTRY_BOUND}")
    return _dp_table(rank, bound).get(tuple(accumulate(v[:-1])), 0)


_FREUDENTHAL_RANK_LIMIT = 4
_FREUDENTHAL_STATE_LIMIT = 2_000_000


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


@lru_cache(maxsize=256)
def _freudenthal_table(lam0: Tuple[Fraction, ...]) -> Dict[Tuple[Fraction, ...], int]:
    """Multiplicities of all dominant weights of V(lam0), lam0 zero-sum dominant."""
    n = len(lam0)
    r = n - 1
    simple_count = r
    caps = [int(p) for p in accumulate(lam0[:-1])]  # c_k <= prefix sum of lam0 (floor)
    size = prod(cap + 1 for cap in caps)
    if size > _FREUDENTHAL_STATE_LIMIT:
        raise OracleDomainError(f"weight lattice box would need {size} points")

    candidates = []
    for c in product(*(range(cap + 1) for cap in caps)):
        mu = tuple(
            lam0[i]
            - (c[i] if i < simple_count else 0)
            + (c[i - 1] if i >= 1 else 0)
            for i in range(n)
        )
        if all(mu[i] >= mu[i + 1] for i in range(n - 1)):
            candidates.append((sum(c), c, mu))
    candidates.sort(key=lambda item: (item[0], item[1]))

    rho_v = rho(r)
    lam_norm = _dot(vec_add(lam0, rho_v), vec_add(lam0, rho_v))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    mult: Dict[Tuple[Fraction, ...], int] = {}
    for level, c, mu in candidates:
        if level == 0:
            mult[mu] = 1
            continue
        acc = Fraction(0)
        for i, j in pairs:
            span = range(i, min(j, simple_count))
            k_max = min(c[l] for l in span)
            for k in range(1, k_max + 1):
                nu = list(mu)
                nu[i] += k
                nu[j] -= k
                m = mult.get(tuple(sorted(nu, reverse=True)), 0)
                if m:
                    acc += m * (nu[i] - nu[j])
        denom = lam_norm - _dot(vec_add(mu, rho_v), vec_add(mu, rho_v))
        value = 2 * acc / denom
        if value.denominator != 1:
            raise AssertionError("Freudenthal recursion produced a non-integer")
        mult[mu] = int(value)
    return mult


def freudenthal_multiplicities(lam) -> Dict[Tuple[Fraction, ...], int]:
    """Dominant-weight multiplicities of V(lam), keyed by zero-mean weights."""
    lam = dominant(lam)
    if lam.rank > _FREUDENTHAL_RANK_LIMIT:
        raise OracleDomainError(f"Freudenthal oracle limited to rank {_FREUDENTHAL_RANK_LIMIT}")
    return _freudenthal_table(zero_mean(lam.canonical))


def multiplicity_freudenthal(lam, mu: Sequence) -> int:
    """Multiplicity of the weight mu in V(lam), by the Freudenthal recursion."""
    lam, mu = weight_pair(lam, mu)
    if not is_integral(tuple(a - b for a, b in zip(lam.canonical, mu))):
        return 0  # mu is not in the root lattice translate of lambda
    table = freudenthal_multiplicities(lam)
    dominant = tuple(sorted(zero_mean(mu), reverse=True))
    return table.get(dominant, 0)


_LR_RANK_LIMIT = 3
_LR_CELL_LIMIT = 60


def _lr_count(outer: Sequence[int], inner: Sequence[int], content: Sequence[int]) -> int:
    """Littlewood-Richardson tableaux of shape outer/inner with given content.

    Fills cells in reading order (rows top to bottom, right to left within a
    row), keeping rows weakly increasing, columns strictly increasing, and
    every reading-word prefix a lattice word.
    """
    rows = len(outer)
    cells = [
        (i, col)
        for i in range(rows)
        for col in range(outer[i] - 1, inner[i] - 1, -1)
    ]
    m = len(content)
    remaining = list(content)
    entries: Dict[Tuple[int, int], int] = {}
    seen = [0] * (m + 1)

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, col = cells[idx]
        right = entries.get((i, col + 1))
        above = entries.get((i - 1, col))
        total = 0
        for value in range(1, m + 1):
            if remaining[value - 1] == 0:
                continue
            if right is not None and value > right:
                continue
            if above is not None and value <= above:
                continue
            if value > 1 and seen[value - 1] <= seen[value]:
                continue  # placing it would break the lattice property
            entries[(i, col)] = value
            remaining[value - 1] -= 1
            seen[value] += 1
            total += fill(idx + 1)
            seen[value] -= 1
            remaining[value - 1] += 1
            del entries[(i, col)]
        return total

    return fill(0)


def tensor_bruteforce_lr(lam, mu, nu) -> int:
    """Tensor coefficient by Littlewood-Richardson counting, small ranks only."""
    lam, mu, nu = weight_triple(lam, mu, nu)
    if lam.rank > _LR_RANK_LIMIT:
        raise OracleDomainError(f"tableau oracle limited to rank {_LR_RANK_LIMIT}")

    n = lam.rank + 1
    lam_p = [int(x - lam.canonical[-1]) for x in lam.canonical]
    mu_p = [int(x - mu.canonical[-1]) for x in mu.canonical]
    nu_p = [int(x - nu.canonical[-1]) for x in nu.canonical]

    shift, rest = divmod(sum(lam_p) + sum(mu_p) - sum(nu_p), n)
    if rest:
        return 0  # nu is not in the root-lattice translate of lambda + mu
    pad = max(0, -shift)
    outer = [x + shift + pad for x in nu_p]
    inner = [x + pad for x in lam_p]
    if any(i > o for i, o in zip(inner, outer)):
        return 0
    if sum(outer) - sum(inner) > _LR_CELL_LIMIT:
        raise OracleDomainError("skew shape too large for the tableau oracle")
    return _lr_count(outer, inner, mu_p)


def weyl_dimension(lam) -> int:
    """dim V(lam) = prod_{i<j} (l_i - l_j) / (j - i) with l = lam + rho."""
    lam = dominant(lam)
    l = vec_add(lam.canonical, rho(lam.rank))
    n = lam.rank + 1
    value = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            value *= Fraction(l[i] - l[j], j - i)
    if value.denominator != 1:
        raise AssertionError("Weyl dimension product is not an integer")
    return int(value)
