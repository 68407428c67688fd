"""Kostant partition functions for A_r via iterated residues.

For a zero-sum integral vector a in the cone of positive roots, the number
of ways to write a as a non-negative integer combination of the roots
e_i - e_j (i < j) equals an alternating sum of iterated residues at z = 0 of

    (1+z_1)^{a_1 + r - 1} (1+z_2)^{a_2 + r - 2} ... (1+z_r)^{a_r}
    -----------------------------------------------------------
            z_1 z_2 ... z_r  *  prod_{i<j} (z_i - z_j)

taken over a pruned set of variable orders (the "special" permutations of
the regularised vector), the residue for an order w weighted by
(-1)^(descents of w).  The order search carries that parity, and
kostant/arbitration.py re-derives the sign against its only rival, the
inversion parity, on exhaustive boxes.  Residues are extracted
one variable at a time, and each step needs only the coefficients below the
pole order of the active variable, so the cost never depends on the sizes of
the entries of a.  Only the exponents differ between vectors of one rank, so
a batch of them is walked together: one residue step per distinct order
prefix, with a row of integer coefficients per exponent tuple, or one int
per exponent tuple once a single column is left, so a single-vector walk
costs what one column of a batched walk costs.  Each step is a plan, cached
per process, of which exponent tuples arise and from which (entry, m_0)
pairs, and an apply that does only integer multiply-adds.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add, mul
from typing import List, Sequence, Tuple

from .permutations import Permutation
from .vectors import ValidationError, int_entries, root_vector, scaled_ints, subset_sums


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


# One object per distinct tuple held by any plan or chamber entry: orders,
# (i, m_0) pairs, exponent tuples and source lists recur across entries, and
# the rank bounds their number.
_SHARED: dict = {}


def _chamber(a: Sequence[int]) -> bytes:
    """Byte m is 1 when subset sum m of a is >= 0: the chamber of a in the
    arrangement of walls a_S = 0, and all that order selection reads."""
    return bytes([s >= 0 for s in subset_sums(a)])


@lru_cache(maxsize=4096)
def _special_orders(chamber: bytes) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """(images, sign) of each special order w of the vectors in a chamber.

    A permutation w of {1, ..., r} qualifies when, for each i < r, the sign
    of the partial sum a_{w(1)} + ... + a_{w(i)} dictates the step: w(i) <
    w(i+1) if the sum is >= 0 and w(i) > w(i+1) otherwise.  A prefix's set of
    positions is its bit mask, so its sign is chamber[mask >> 1], and a step
    is a descent exactly when that byte is 0.  Each prefix carries the parity
    of its descents, so the sign of a term, (-1)^(descents of w), costs
    nothing.  Built by prefix extension with pruning; the full factorial set
    is never materialised.  Cached per process: every vector of a chamber
    shares it.

    For integral a these are also the orders of deform(a), regular or not:
    the deformation adds i/(2r) to a partial sum of i < r entries, which
    keeps a non-negative integer sum non-negative and a negative one negative.
    """
    r = len(chamber).bit_length() - 1
    frontier = [((i,), 1 << i, 1) for i in range(1, r + 1)]
    for _ in range(r - 1):
        extended = []
        for prefix, mask, sign in frontier:
            last = prefix[-1]
            if chamber[mask >> 1]:
                candidates = range(last + 1, r + 1)
            else:
                candidates, sign = range(1, last), -sign
            for j in candidates:
                if not (mask >> j) & 1:
                    extended.append((prefix + (j,), mask | (1 << j), sign))
        frontier = extended
    orders = ((prefix, sign) for prefix, _, sign in frontier)
    return tuple(_SHARED.setdefault(order, order) for order in orders)


def _order_chamber(a: Tuple[int, ...]) -> bytes:
    """The chamber of an order-selecting vector, refused with not-zero-sum
    unless its entries sum to zero (the chamber reads the first r only)."""
    if sum(a):
        raise ValidationError("not-zero-sum", "the order-selecting vector must sum to zero")
    return _chamber(a)


def special_permutations(a: Sequence) -> List[Permutation]:
    """The variable orders that carry the residue formula for the vector a.

    Rational entries are scaled to integers by a positive common denominator,
    which leaves the sign of every partial sum, and so the orders, unchanged.
    """
    return [Permutation(images) for images, _ in _special_orders(_order_chamber(*scaled_ints(a)))]


def _shifts(total: int, others: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """(m_0, (-1-m_1, ..., -1-m_others)) for every m_0 + m_1 + ... + m_others = total."""
    if others == 0:
        return ((total, ()),)
    return tuple((m0, (-1 - m,) + rest) for m in range(total + 1)
                 for m0, rest in _shifts(total - m, others - 1))


@lru_cache(maxsize=4096)
def _plan(keys: Tuple[Tuple[int, ...], ...], tpos: int):
    """The shape of one residue step: which exponent tuples come out, and from what.

    Returns (top, out_keys, sources): sources[k] lists the (i, m_0) whose
    products rows[i] * C(e_t, m_0) add up to the coefficients of out_keys[k],
    and every m_0 is below top.  Nothing here depends on the exponents e_t,
    so one plan serves every query whose walk reaches the same state shape.
    """
    others, share, sources = len(keys[0]) - 1, _SHARED.setdefault, {}
    for i, exps in enumerate(keys):
        base = exps[:tpos] + exps[tpos + 1:]
        for m0, shift in _shifts(-exps[tpos] - 1, others):
            e = tuple(map(add, base, shift))
            sources.setdefault(share(e, e), []).append(share((i, m0), (i, m0)))
    return (-min(exps[tpos] for exps in keys), tuple(sources),
            tuple(share(src, src) for src in map(tuple, sources.values())))


def _binomials(sign: int, e: int, top: int) -> List[int]:
    """sign * C(e, m) for m < top: C(e, m-1) (e-m+1) / m, exact for any e."""
    b = [sign]
    for m in range(1, top):
        b.append(b[-1] * (e - m + 1) // m)
    return b


def _binomial_rows(sign: int, e_t: Sequence[int], top: int) -> List[List[int]]:
    """Row m < top is sign * C(e, m) per e in e_t, by the recurrence of `_binomials`."""
    rows = [[sign] * len(e_t)]
    for m in range(1, top):
        rows.append([b * (e - m + 1) // m for b, e in zip(rows[-1], e_t)])
    return rows


def _residue_step(keys: Tuple[Tuple[int, ...], ...], rows: list,
                  active: List[int], e_t: Sequence[int], t: int) -> tuple:
    """Residue at z_t = 0 of the state times the integrand factors involving z_t.

    The state gives the coefficient of the exponent tuple keys[i] over the
    active variables, one per batch column: a row rows[i] of ints when the
    batch has several columns, the int rows[i] itself when it has one.  Column
    j has the factor (1+z_t)^{e_t[j]}, and every other active z_i brings the
    shared 1/(z_i - z_t) = sum_m z_t^m z_i^{-1-m}, negated when i > t.  A term
    with z_t^{-p} pairs with the z_t^{p-1} coefficient of their product: the
    sum over m_0 + sum m_i = p - 1 of C(e_t, m_0) prod z_i^{-1-m_i}.  Every
    state exponent is at most -1, so p >= 1 and the work never depends on e_t.
    The cached `_plan` says which products feed which output; this call only
    multiplies and adds them, in the state's own form, and drops the outputs
    that come out zero.
    """
    tpos = active.index(t)
    sign = -1 if (len(active) - 1 - tpos) % 2 else 1  # active is sorted: these lie above t
    top, out_keys, sources = _plan(keys, tpos)
    if len(e_t) == 1:
        b = _binomials(sign, e_t[0], top)
        out = [sum([rows[i] * b[m0] for i, m0 in src]) for src in sources]
        live = [k for k, v in enumerate(out) if v]
    else:
        binomials = _binomial_rows(sign, e_t, top)
        out = [list(map(sum, zip(*[map(mul, rows[i], binomials[m0]) for i, m0 in src])))
               for src in sources]
        live = [k for k, row in enumerate(out) if any(row)]
    if len(live) == len(out):
        return out_keys, out
    return tuple(out_keys[k] for k in live), [out[k] for k in live]


def _residue_sum(exponents: Sequence[Sequence[int]],
                 weighted: Sequence[Sequence[Tuple[Tuple[int, ...], int]]]) -> List[int]:
    """For each column j, the sum of sign * IRes^w over (w.images, sign) in weighted[j].

    Every column is the same rank-r integrand with its own exponents[j].  The
    residue for w processes z_{w(r)} first and z_{w(1)} last, so orders that
    share a prefix of reversed w share their innermost steps, across columns
    as well; the recursion below walks the union prefix tree of every order
    of every column once.  A node's state holds only the columns whose orders
    pass through it, as rows of ints, or as one int per exponent tuple once a
    single column is left.
    """
    r = len(exponents[0])
    totals = [0] * len(exponents)
    items = [(tuple(reversed(images)), j, sign)
             for j, orders in enumerate(weighted) for images, sign in orders]

    def descend(keys, rows, active, cols, group, depth):
        # Row position i of the state is column cols[i]; items index rows.
        if depth == r:  # keys == ((),): every variable is gone
            for _, i, sign in group:
                totals[cols[i]] += sign * (rows[0] if len(cols) == 1 else rows[0][i])
            return
        by_var: dict = {}
        for item in group:
            by_var.setdefault(item[0][depth], []).append(item)
        for t in sorted(by_var):
            sub, sub_rows, sub_cols = by_var[t], rows, cols
            keep = sorted({i for _, i, _ in sub})
            if len(keep) < len(cols):
                where = {i: k for k, i in enumerate(keep)}
                sub = [(seq, where[i], sign) for seq, i, sign in sub]
                sub_cols = [cols[i] for i in keep]
                sub_rows = ([row[keep[0]] for row in rows] if len(keep) == 1 else
                            [[row[i] for i in keep] for row in rows])
            nxt = _residue_step(keys, sub_rows, active, [exponents[j][t - 1] for j in sub_cols], t)
            if nxt[0]:
                descend(*nxt, [v for v in active if v != t], sub_cols, sub, depth + 1)

    # The explicit 1/(z_1 ... z_r) factor; everything else enters step by step.
    columns = list(range(len(exponents)))
    root = [1] if len(columns) == 1 else [[1] * len(columns)]
    descend(((-1,) * r,), root, list(range(1, r + 1)), columns, items, 0)
    return totals


def _sized(exponents: Sequence[int], size: int) -> Tuple[int, ...]:
    """The exponents as ints, refused with bad-length unless there are `size` of them."""
    exponents = int_entries(exponents)
    if len(exponents) != size:
        raise ValidationError("bad-length", f"need {size} exponents, one per variable, not {len(exponents)}")
    return exponents


def iterated_residue(w: Permutation, exponents: Sequence[int]):
    """IRes^w at z = 0: residues taken in z_{w(r)} first, ..., z_{w(1)} last.

    `exponents` are the numerator exponents (e_1, ..., e_r) of the standard
    integrand; the denominator z_1...z_r prod_{i<j}(z_i - z_j) is implicit.
    """
    exponents = _sized(exponents, len(w))
    return _residue_sum([exponents], [[(w.images, 1)]])[0]


def iterated_residue_by_substitution(w: Permutation, exponents: Sequence[int]):
    """IRes^w computed by relabelling variables instead of reordering residues.

    Substituting z_{w^{-1}(k)} for the k-th variable turns the standard
    integrand into the one with exponents permuted by w, at the cost of
    sign(w) from reordering the difference factors; the residues are then
    taken in the standard order.  Must agree with `iterated_residue`.
    """
    exponents = _sized(exponents, len(w))
    permuted = w.apply(exponents)
    return w.signature * _residue_sum([permuted], [[(tuple(range(1, len(w) + 1)), 1)]])[0]


def _exponents(a: Tuple[int, ...]) -> List[int]:
    r = len(a) - 1
    return [a[k] + r - 1 - k for k in range(r)]


def partition_total(a: Sequence, regularised: Sequence):
    """The alternating residue sum for a, with orders drawn from `regularised`.

    Exposed separately so that deformation insensitivity can be exercised
    directly: a regular vector, or any vector of its chamber, selects the
    same orders as its deformation.  `a` supplies the integrand exponents
    and is checked by root_vector, so a non-integral entry is refused, not
    truncated; `regularised`, of the same length (bad-length otherwise) and
    summing to zero (not-zero-sum otherwise), only selects the orders by its
    chamber.  It need not be regular: a zero subset sum reads as
    non-negative, as it does in the deformation of an integral vector, so
    for integral a, partition_total(a, a) equals partition_total(a, deform(a)).
    """
    regularised, = scaled_ints(regularised)
    exponents = _sized(_exponents(root_vector(a)), len(regularised) - 1)
    return _residue_sum([exponents], [_special_orders(_order_chamber(regularised))])[0]


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Memo(OrderedDict):
    """Bounded least-recently-used table of partition counts by integer vector,
    with functools.lru_cache's statistics: one hit or miss per looked-up vector."""

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize
        self.hits = self.misses = 0

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, self.maxsize, len(self))

    def cache_clear(self) -> None:
        self.clear()
        self.hits = self.misses = 0


_partition_of = _Memo(1 << 15)


def partition_counts(vectors: Sequence[Sequence[int]]) -> List[int]:
    """Partition counts of integral zero-sum vectors, in input order.

    Repeats and earlier results come from the memo; the rest are counted by
    one batched residue walk per rank (zero outside the cone).  Each vector
    is checked by root_vector, so a bad one raises its ValidationError code,
    and an in-cone one above the rank limit of subset_sums raises
    rank-too-large before its chamber key is built.
    """
    memo = _partition_of
    keys = [root_vector(a) for a in vectors]
    fresh = {}
    for a in dict.fromkeys(keys):
        if a in memo:
            memo.move_to_end(a)
        else:
            fresh[a] = 0
    by_rank: dict = {}
    for a in fresh:
        if min(accumulate(a)) >= 0:  # in the cone
            by_rank.setdefault(len(a), []).append(a)
    for batch in by_rank.values():
        weighted = [_special_orders(_chamber(a)) for a in batch]
        fresh.update(zip(batch, _residue_sum([_exponents(a) for a in batch], weighted)))
    memo.misses += len(fresh)
    memo.hits += len(keys) - len(fresh)
    out = [fresh[a] if a in fresh else memo[a] for a in keys]
    memo.update(fresh)
    while len(memo) > memo.maxsize:
        memo.popitem(last=False)
    return out


def kostant_partition(a: Sequence) -> int:
    """Number of ways to write a as a non-negative integer sum of positive roots."""
    return partition_counts([a])[0]
