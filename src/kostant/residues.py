"""Kostant partition functions for A_r via iterated residues.

For a zero-sum integral vector a in the cone of positive roots, the number
of ways to write a as a non-negative integer combination of the roots
e_i - e_j (i < j) equals an alternating sum of iterated residues at z = 0 of

    (1+z_1)^{a_1 + r - 1} (1+z_2)^{a_2 + r - 2} ... (1+z_r)^{a_r}
    -----------------------------------------------------------
            z_1 z_2 ... z_r  *  prod_{i<j} (z_i - z_j)

taken over a pruned set of variable orders (the "special" permutations of
the regularised vector), the residue for an order w weighted by
(-1)^(descents of w).  The order search carries that parity, and the test
suite (tests/_arbitration.py) re-derives the sign against its only rival,
the inversion parity, on exhaustive boxes.

Residues are extracted one variable at a time, z_{w(r)} first, and each
step needs only the coefficients below the pole order of the active
variable, so the cost never depends on the sizes of the entries of a.  A
step is a plan of which exponent tuples arise and from which (entry, m_0)
pairs, cached per process and named by the rank, the depth and the position
of the eliminated variable among the active ones, and an apply that does
only integer multiply-adds.  Orders whose elimination sequences w(r),
w(r-1), ... share a prefix share their steps, so one walker runs a compiled
program: the union prefix tree of a set of orders over one or more exponent
columns, flattened depth first.  The fresh vectors of one rank run the
program of their chamber sequence, compiled once per sequence from one
order search per distinct chamber, and a run binds each variable's
binomials once.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import add, itemgetter, mul
from typing import List, Sequence, Tuple

from .permsearch import _bounded
from .permutations import Permutation
from .vectors import ValidationError, int_entries, root_vector, scaled_ints, subset_sums


def _chamber(a: Sequence[int]) -> bytes:
    """Byte m is 1 when subset sum m of a is >= 0: the chamber of a in the
    arrangement of walls a_S = 0, and all that order selection reads."""
    return bytes([s >= 0 for s in subset_sums(a)])


def _special_orders(chamber: bytes) -> List[Tuple[Tuple[int, ...], int]]:
    """(images, sign) of each special order w of the vectors in a chamber.

    A permutation w of {1, ..., r} qualifies when, for each i < r, the sign
    of the partial sum a_{w(1)} + ... + a_{w(i)} dictates the step: w(i) <
    w(i+1) if the sum is >= 0 and w(i) > w(i+1) otherwise.  A prefix's set of
    positions is its bit mask, so its sign is chamber[mask >> 1], and a step
    is a descent exactly when that byte is 0.  Each prefix carries the parity
    of its descents, so the sign of a term, (-1)^(descents of w), costs
    nothing.  Built by prefix extension with pruning; the full factorial set
    is never materialised.  Not cached: _program searches each distinct
    chamber of its sequence once, and every column of that chamber reads
    the one result.

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
        frontier = _bounded(extended)
    return [(prefix, sign) for prefix, _, sign in frontier]


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


@lru_cache(maxsize=None)  # r(r + 1)/2 plans per rank
def _plan(r: int, depth: int, tpos: int):
    """The shape of a rank-r residue step that, after `depth` residues, takes
    the one in the active variable at position `tpos`: which exponent tuples
    come out, and from what.

    Returns (sign, top, out_keys, sources): sources[k] lists the (i, m_0)
    whose products rows[i] * sign * C(e_t, m_0) add up to the coefficients of
    out_keys[k], and every m_0 is below top.  The sign is -1 when an odd
    number of the active variables lie above the eliminated one.  Nothing
    here depends on the exponents e_t.  The root (-1, ..., -1) is symmetric
    in the variables and so is a step, so every elimination prefix of a depth
    gives one key set; sorted, it is the row layout of every state at that
    depth, and a step at `depth` reads the out_keys of _plan(r, depth - 1, 0).
    """
    keys = _plan(r, depth - 1, 0)[2] if depth else ((-1,) * r,)
    others, sources = r - depth - 1, {}
    for i, exps in enumerate(keys):
        base = exps[:tpos] + exps[tpos + 1:]
        for m0, shift in _shifts(-exps[tpos] - 1, others):
            sources.setdefault(tuple(map(add, base, shift)), []).append((i, m0))
    out_keys = tuple(sorted(sources))
    return (-1 if (others - tpos) % 2 else 1, -min(exps[tpos] for exps in keys), out_keys,
            tuple(tuple(sources[e]) for e in out_keys))


def _binomials(e: int, top: int) -> List[int]:
    """C(e, m) for m < top: C(e, m-1) (e-m+1) / m, exact for any e."""
    b = [1]
    for m in range(1, top):
        b.append(b[-1] * (e - m + 1) // m)
    return b


def _binomial_rows(e_t: Sequence[int], top: int) -> List[List[int]]:
    """Row m < top is C(e, m) per e in e_t, by the recurrence of `_binomials`."""
    rows = [[1] * len(e_t)]
    for m in range(1, top):
        rows.append([b * (e - m + 1) // m for b, e in zip(rows[-1], e_t)])
    return rows


def _compile(columns: Sequence[Sequence[Tuple[Tuple[int, ...], int]]]) -> tuple:
    """The walk of the union prefix tree of weighted orders over exponent
    columns, flattened depth first; it never reads the exponents.

    columns[j] lists the (w.images, sign) of column j's orders, as
    _special_orders gives them, and may be empty.  Returns (steps, leaves,
    tops), steps and leaves each a tuple of fields with one entry per step
    or leaf.  Step k reads state parents[k] (state 0, the root, is the
    factor 1/(z_1 ... z_r), 1 in every column), keeps only its row positions
    keeps[k] (None when no column drops), takes the residue in variable
    variables[k] + 1 by its plan's sources[k] for the columns holds[k], and
    writes state k + 1; lasts[k] marks the parent's last reader.  A step is
    linear, so its plan's sign moves to the leaves: a leaf (slot, position,
    column, sign) adds sign times entry `position` of the one row of state
    slot, or the entry itself (position None) when the state holds one
    column, to the column's total.  tops[v] bounds variable v + 1's m_0.  A
    step's plan is _plan(r, depth, position of its variable among the
    active ones), so no exponent tuple is passed down the tree.  The step at
    depth d eliminates images[~d]: z_{w(r)} first.
    """
    items = [(images, j, sign) for j, orders in enumerate(columns) for images, sign in orders]
    r = len(items[0][0]) if items else 0
    steps, leaves, tops = [], [], [0] * r

    def build(active, cols, group, slot, path_sign):
        # State `slot` holds the columns cols, row position k being column cols[k].
        if not active:  # every variable is gone: the state holds one key, ()
            where = {j: k for k, j in enumerate(cols)} if len(cols) > 1 else {cols[0]: None}
            leaves.extend((slot, where[j], j, path_sign * sign) for _, j, sign in group)
            return
        by_var, depth = {}, r - len(active)
        for item in group:
            by_var.setdefault(item[0][~depth], []).append(item)
        for t, sub in sorted(by_var.items()):
            held = {j for _, j, _ in sub} if len(cols) > 1 else cols
            sub_cols, keep = cols, None
            if len(held) < len(cols):
                sub_cols = tuple(sorted(held))
                keep = tuple(map({j: k for k, j in enumerate(cols)}.get, sub_cols))
            sign, top, _, sources = _plan(r, depth, active.index(t))
            tops[t - 1] = max(tops[t - 1], top)
            child = len(steps)
            steps.append([slot, t - 1, sources, keep, sub_cols, False])
            build([v for v in active if v != t], sub_cols, sub, child + 1, path_sign * sign)
        steps[child][-1] = True

    build(list(range(1, r + 1)), tuple(range(len(columns))), items, 0, 1)
    del build  # a cycle through its own closure, which would hold steps until a GC pass
    return tuple(zip(*steps)), tuple(zip(*leaves)), tuple(tops)


@lru_cache(maxsize=1024)
def _program(chambers: Tuple[bytes, ...]) -> tuple:
    """The program of the special orders of chambers[j] in column j, compiled
    once per chamber sequence, which searches each of its distinct chambers
    once.  Its plans depend on the rank and the order prefixes alone, so it
    serves any vectors of those chambers: a lone vector runs its chamber's
    1-tuple, and the samples of a ray share a few programs."""
    orders = {chamber: _special_orders(chamber) for chamber in dict.fromkeys(chambers)}
    return _compile([orders[chamber] for chamber in chambers])


def _run(program: tuple, exponent_columns: Sequence[Sequence[int]]) -> List[int]:
    """Per exponent column, the signed sum of the residues of its orders in `program`.

    A state gives the coefficient of each exponent tuple of its plan's
    out_keys over the variables still active: a row of ints, one per column
    it holds, or the int itself once it holds a single column.  Column j has
    the factor (1+z_t)^{e_t[j]}, and every other active z_i brings the shared
    1/(z_i - z_t) = sum_m z_t^m z_i^{-1-m}, negated when i > t.  A term with
    z_t^{-p} pairs with the z_t^{p-1} coefficient of their product: the sum
    over m_0 + sum m_i = p - 1 of C(e_t, m_0) prod z_i^{-1-m_i}.  Every state
    exponent is at most -1, so p >= 1 and the work never depends on e_t.
    Each variable's binomials are bound once per run: a list for one column,
    rows over every column for a batch, whose columns a narrowed step picks.
    A step's sources say which products feed which output, so a step only
    narrows its parent's rows to the columns it holds, then multiplies and
    adds, in the state's own form, and keeps every output.
    """
    steps, leaves, tops = program
    width = len(exponent_columns)
    if width == 1:
        binomials = list(map(_binomials, exponent_columns[0], tops))
        states = [[1]]
    else:
        binomials = list(map(_binomial_rows, zip(*exponent_columns), tops))
        states = [[[1] * width]]
    for parent, v, sources, keep, cols, last in zip(*steps):
        vals = states[parent]
        if last:
            states[parent] = None
        if keep is not None:  # itemgetter of one position gives the int itself
            vals = list(map(itemgetter(*keep), vals))
        b = binomials[v]
        if len(cols) < width:
            b = list(map(itemgetter(*cols), b))
        if len(cols) == 1:
            states.append([sum([vals[i] * b[m0] for i, m0 in src]) for src in sources])
        else:
            states.append([list(map(sum, zip(*[map(mul, vals[i], b[m0]) for i, m0 in src])))
                           for src in sources])
    totals = [0] * width
    for slot, position, column, sign in zip(*leaves):
        value = states[slot][0]
        totals[column] += sign * (value if position is None else value[position])
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
    return _run(_compile([[(w.images, 1)]]), [_sized(exponents, len(w))])[0]


def _exponents(a: Tuple[int, ...]) -> List[int]:
    r = len(a) - 1
    return [a[k] + r - 1 - k for k in range(r)]


def partition_total(a: Sequence, regularised: Sequence):
    """The partition count of a, with orders drawn from `regularised`: the
    alternating residue sum in the cone of positive roots, 0 outside it.

    Exposed separately so that deformation insensitivity can be exercised
    directly: a regular vector, or any vector of its chamber, selects the
    same orders as its deformation.  `a` supplies the integrand exponents
    and is checked by root_vector, so a non-integral entry is refused, not
    truncated; `regularised`, of the same length (bad-length otherwise) and
    summing to zero (not-zero-sum otherwise), only selects the orders by its
    chamber.  It need not be regular: a zero subset sum reads as
    non-negative, as it does in the deformation of an integral vector, so
    for integral a, partition_total(a, a) equals partition_total(a, deform(a)).
    Both vectors are checked, in the cone or not.
    """
    a = root_vector(a)
    regularised, = scaled_ints(regularised)
    exponents = _sized(_exponents(a), len(regularised) - 1)
    chamber = _order_chamber(regularised)
    return _run(_program((chamber,)), [exponents])[0] if min(accumulate(a)) >= 0 else 0


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


def _counts(keys: Sequence[Tuple[int, ...]]) -> List[int]:
    """Partition counts of zero-sum int tuples, in input order, unchecked:
    the arguments the engine builds itself are such tuples already.

    Repeats and earlier results come from the memo, and a vector outside the
    cone counts zero.  The fresh vectors of each rank run the one program of
    their sequence of chambers, compiled once per sequence.  An in-cone
    vector above the rank limit of subset_sums raises rank-too-large before
    its chamber key is built.
    """
    memo = _partition_of
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
        program = _program(tuple(map(_chamber, batch)))
        fresh.update(zip(batch, _run(program, [_exponents(a) for a in batch])))
    memo.misses += len(fresh)
    memo.hits += len(keys) - len(fresh)
    out = [fresh[a] if a in fresh else memo[a] for a in keys]
    memo.update(fresh)
    while len(memo) > memo.maxsize:
        memo.popitem(last=False)
    return out


def partition_counts(vectors: Sequence[Sequence[int]]) -> List[int]:
    """Partition counts of integral zero-sum vectors, in input order, each
    checked by root_vector first, so a bad one raises its code."""
    return _counts([root_vector(a) for a in vectors])


def kostant_partition(a: Sequence) -> int:
    """Number of ways to write a as a non-negative integer sum of positive roots."""
    return partition_counts([a])[0]
