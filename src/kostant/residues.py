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
only integer multiply-adds.  A residue is linear in its integrand, so the
walker applies the steps transposed, backward from the one coefficient
left at the end: z_{w(1)}'s step first.  Orders whose images w(1), w(2),
... share a prefix then share the steps of that prefix, the late and
costly ones, and the columns of a batch whose exponents agree on the
prefix's variables share its state.  One walker runs a compiled program:
the prefix tree of the images of a set of orders over one or more exponent
columns, flattened depth first.  The fresh vectors of one rank run the
program of their chamber sequence, compiled once per sequence from one
order search per distinct chamber, and a run binds each variable's
binomials once.

The diagram automorphism of A_r keeps every count: P(a) = P(flip(a)) with
flip(a) = (-a_{r+1}, ..., -a_1).  A fresh vector a is counted as flip(a)
exactly when a_1 + a_{r+1} > 0, the case in which the flip's chamber has at
least as many non-negative subset sums; a single comparison, about half
the orders, and no second search.  Each step's products P(r, depth) have a
closed form, and a walk takes P times the classes of each step, so every
walk is priced before a plan is built: the compiler sums P over its prefix
tree, exact for one column and a lower bound for a batch, and a batch's
run prices it by the classes it merges.  A walk past WORK_LIMIT is refused
with BudgetExceeded; a lone vector refused on one side of the flip tries
the other first.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb
from operator import add
from typing import List, Sequence, Tuple

from .permsearch import BudgetExceeded, _bounded
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

    Returns (out_keys, into): into[i] lists the (k, m_0) such that
    coefficient i of the step's input, times C(e_t, m_0), adds to
    coefficient k of its output, whose exponent tuples are out_keys.
    Nothing here depends on the exponents e_t.  The root (-1, ..., -1) is
    symmetric in the variables and so is a step, so every elimination prefix
    of a depth gives one key set; sorted, it is the layout of every state at
    that depth, and a step at `depth` reads the out_keys of
    _plan(r, depth - 1, 0).
    """
    keys = _plan(r, depth - 1, 0)[0] if depth else ((-1,) * r,)
    others, rows = r - depth - 1, []
    for exps in keys:
        base = exps[:tpos] + exps[tpos + 1:]
        rows.append([(tuple(map(add, base, shift)), m0) for m0, shift in _shifts(-exps[tpos] - 1, others)])
    out_keys = sorted({e for row in rows for e, _ in row})
    index = dict(zip(out_keys, range(len(out_keys))))
    return tuple(out_keys), tuple(tuple((index[e], m0) for e, m0 in row) for row in rows)


@lru_cache(maxsize=None)
def _products(r: int, depth: int) -> int:
    """P(r, depth), the multiply-adds of one residue step at that depth, from
    its key set alone, never from a plan.  After d residues the key set is
    every tuple of n = r - d exponents that are each at most -(d + 1) and
    sum to at least -(d + 1) n - B, with B = d(d - 1)/2: the sum starts at
    -r and a step at depth i lowers it by at most r - 2 - i.  Sliding down
    its exponent by f >= 0, a key's eliminated entry has pole order d + 1 +
    f and takes C(d + f + n - 1, n - 1) products, and C(B - f + n - 1, n - 1)
    keys of the other n - 1 entries leave room for f."""
    n, room = r - depth, depth * (depth - 1) // 2
    return sum(comb(depth + f + n - 1, n - 1) * comb(room - f + n - 1, n - 1) for f in range(room + 1))


# The most multiply-adds one walk may take.  The largest that answers in
# the tests, the acceptance cases and the benchmark is theta(7)'s sum,
# 2,251,836 by its classes, which _run counts (at least 141,872 by its tree,
# which _compile counts); the rank-8 vector 198,176,-22,37,-20,-18,-87,-116,-148
# takes 7,063,876 on its flip side, about 1.2 s.  The rank-9 partition
# counts of 118,108,115,44,-6,-6,54,-68,-83,-276 (107.0M) and of
# 179,255,4,114,32,-52,-193,-95,-164,-80 (211.7M on its flip side) and the
# rank-12 identity order's residue (300.7M) are refused by _compile.
WORK_LIMIT = 10_000_000


def _priced(work: int) -> None:
    """Refuse a walk of `work` multiply-adds past WORK_LIMIT."""
    if work > WORK_LIMIT:
        raise BudgetExceeded(f"a residue walk of {work} multiply-adds passes the limit of {WORK_LIMIT}; "
                             "the query is too large")


def _binomials(e: int, top: int) -> List[int]:
    """C(e, m) for m < top: C(e, m-1) (e-m+1) / m, exact for any e."""
    b = [1]
    for m in range(1, top):
        b.append(b[-1] * (e - m + 1) // m)
    return b


def _compile(columns: Sequence[Sequence[Tuple[Tuple[int, ...], int]]]) -> tuple:
    """The walk of the prefix tree of the images w(1), w(2), ... of weighted
    orders over exponent columns, flattened depth first: tuples only, which
    no run changes.

    columns[j] lists the (w.images, sign) of column j's orders, as
    _special_orders gives them, and may be empty.  Returns (steps, tops),
    steps the fields (variables, shapes, holds, ends), one entry per tree
    node but the root.  Step n is a node (w(1), ..., w(k+1)).  The step of
    w(k+1) is the residue at depth i = r - 1 - k, at the position p of
    w(k+1) among w(1), ..., w(k+1): shapes[n] is (P(r, i), i, p), and its
    plan is _plan(r, i, p).  It reads the state that its parent, the last
    node of residue depth i + 1 before it, left, takes the transposed
    residue in variable variables[n] + 1 = w(k+1) for the columns holds[n]
    whose orders pass through it, and leaves its state at depth i.  It is
    linear, so its sign, (-1)^(k - p) for the k - p active variables
    above w(k+1), moves to the ends.  The first residue, in z_{w(r)} alone,
    only multiplies by C(e, 0) = 1, so above rank 1 w(r) takes no step and
    its sign joins the ends of the node (w(1), ..., w(r-1)): each (column,
    class, sign) of ends[n] adds sign times the one coefficient of the
    class's state to the column's total, compiled with the column as its
    own class.  tops[v] bounds variable v + 1's m_0: a key at depth i has
    pole order at most i + 1 + i(i - 1)/2 (see _products).

    Every step takes at least one class, so the sum over the steps of
    P(r, i) bounds any walk of the program from below, and it is exact for
    one column.  Past WORK_LIMIT the walk is refused before any plan is
    built.
    """
    items = sorted((images, j, sign) for j, orders in enumerate(columns) for images, sign in orders)
    r = len(items[0][0]) if items else 0
    full = max(r - 1, 1)  # the depth of the nodes with ends
    steps, tops = [], [0] * r
    path, masks, signs = [0] * (r + 1), [0] * (r + 1), [1] * (r + 1)
    last = [[-1] * len(columns) for _ in range(r + 1)]  # the last node per depth to hold each column
    lone = (0,) if len(columns) == 1 else None  # one column: every node holds it, one shared tuple
    prev = (0,) * r
    for images, j, sign in items:
        k = 0
        while k < r and images[k] == prev[k]:
            k += 1
        for d in range(k, r):  # the node at depth d + 1, below the path's node at depth d
            t, mask = images[d], masks[d]
            p = bin(mask & ((1 << t) - 1)).count("1")
            masks[d + 1], signs[d + 1] = mask | 1 << t, -signs[d] if (d - p) % 2 else signs[d]
            if d < full:
                i = r - 1 - d
                tops[t - 1] = max(tops[t - 1], i + 1 + i * (i - 1) // 2)
                path[d + 1] = len(steps)
                steps.append((t - 1, (_products(r, i), i, p), lone or [], []))
        for d in range(1, full + 1) if lone is None else ():
            if last[d][j] != path[d]:
                last[d][j] = path[d]
                steps[path[d]][2].append(j)
        steps[path[full]][3].append((j, j, signs[r] * sign))
        prev = images
    _priced(sum(shape[0] for _, shape, _, _ in steps))
    # Tuples: the garbage collector stops tracking them, where lists stay tracked.
    fields = tuple(zip(*[(v, shape, tuple(held), tuple(ends)) for v, shape, held, ends in steps]))
    return fields or ((),) * 4, tuple(tops)


@lru_cache(maxsize=1024)
def _program(chambers: Tuple[bytes, ...]) -> tuple:
    """The program of the special orders of chambers[j] in column j, compiled
    once per chamber sequence, which searches each of its distinct chambers
    once.  Its plans depend on the rank and the order prefixes alone, so it
    serves any vectors of those chambers: a lone vector runs its chamber's
    1-tuple, and the samples of a ray share a few programs.  A tree that
    _compile refuses raises BudgetExceeded, which the cache does not keep; a
    batch that _run refuses by its classes leaves its tree here, for vectors
    of those chambers whose exponents merge more."""
    orders = {chamber: _special_orders(chamber) for chamber in dict.fromkeys(chambers)}
    return _compile([orders[chamber] for chamber in chambers])


def _run(program: tuple, exponent_columns: Sequence[Sequence[int]]) -> List[int]:
    """Per exponent column, the signed sum of the residues of its orders in `program`.

    A residue is linear in its integrand, so the walk runs backward: the
    value is l . M_{w(1)} ... M_{w(r)} . 1, where 1 is the factor
    1/(z_1 ... z_r), M_t takes the residue in z_t and l reads the one
    coefficient left at the end.  A state is a covector over the exponent
    tuples of its depth, a list of ints, and a step's entry i is the sum
    over its plan's into[i] of out[k] * C(e_t, m_0).  Column j has the
    factor (1+z_t)^{e_t[j]}, and every other active z_i brings the shared
    1/(z_i - z_t) = sum_m z_t^m z_i^{-1-m}, negated when i > t; every
    exponent is at most -1, so the work never depends on e_t.  The covector
    of a node (w(1), ..., w(k)) depends on that prefix and on the exponents
    of w(1), ..., w(k) alone, so the columns of a node fall into classes,
    one per (e_{w(k)}, parent class) and named by its first column, and
    each class takes the step once.  A batch finds its classes in one pass
    before any state: per step, each class by its (exponent, parent class),
    and the class of each of its ends.  The walk's price is then P(r, i)
    times the classes of each step, refused past WORK_LIMIT; one column is
    one class per step, priced exactly by _compile.  The walk looks up each
    step's plan as it takes the step, so a refused walk builds none, and it
    writes nothing into the program.  Each variable's binomials are bound
    once per run, one list per distinct exponent, which every column of
    that exponent holds.
    """
    (variables, shapes, holds, ends), tops = program
    r, width = len(tops), len(exponent_columns)
    if width == 1:  # column 0 names every class
        binomials = list(zip(map(_binomials, exponent_columns[0], tops)))
        merged = repeat({(0, 0): 0}.items())
    else:  # one list per distinct exponent, held by each of its columns
        exponents = list(zip(*exponent_columns))
        binomials = [tuple(map({e: _binomials(e, top) for e in set(ev)}.get, ev)) for ev, top in zip(exponents, tops)]
        classes = [[0] * width for _ in range(r + 1)]  # per residue depth, each column's class; the root's last
        merged, resolved, work = [], [], 0
        for v, (products, i, _), held, reached in zip(variables, shapes, holds, ends):
            ev, cls, child, reps = exponents[v], classes[i + 1], classes[i], {}
            for j in held:
                child[j] = reps.setdefault((ev[j], cls[j]), j)
            merged.append(reps.items())
            resolved.append(reached and [(j, child[j], sign) for j, _, sign in reached])
            work += products * len(reps)
        _priced(work)
        ends = resolved
    states = [None] * r + [{0: [1]}]  # per residue depth, each class's covector; the root's last
    totals = [0] * width
    for v, (_, i, p), reps, reached in zip(variables, shapes, merged, ends):
        into, b, parents, state = _plan(r, i, p)[1], binomials[v], states[i + 1], {}
        for (_, c), j in reps:
            out, bins = parents[c], b[j]
            state[j] = [sum([out[k] * bins[m0] for k, m0 in src]) for src in into]
        states[i] = state
        for j, c, sign in reached:
            totals[j] += sign * state[c][0]
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
    The order of no variables is refused with bad-length, and a walk past
    WORK_LIMIT with budget-exceeded before any plan is built.
    """
    exponents = _sized(exponents, len(w))
    if not exponents:
        raise ValidationError("bad-length", "an order needs at least one variable")
    return _run(_compile([[(w.images, 1)]]), [exponents])[0]


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


def _flip(a: Tuple[int, ...]) -> Tuple[int, ...]:
    """The diagram flip (-a_{r+1}, ..., -a_1).  It maps the root e_i - e_j to
    e_{r+2-j} - e_{r+2-i}, so a and its flip have one partition count."""
    return tuple(-x for x in reversed(a))


def _walk(sides: List[Tuple[int, ...]]) -> List[int]:
    """The residue sums of in-cone vectors of one rank, by one run of the
    program of their chambers."""
    return _run(_program(tuple(map(_chamber, sides))), [_exponents(a) for a in sides])


def _counts(keys: Sequence[Tuple[int, ...]]) -> List[int]:
    """Partition counts of zero-sum int tuples, in input order, unchecked:
    the arguments the engine builds itself are such tuples already.

    Repeats and earlier results come from the memo, keyed by the caller's
    vectors, and a vector outside the cone counts zero.  Each fresh in-cone
    vector a is counted as its flip when a_1 + a_{r+1} > 0, where the flip's
    chamber has at least as many non-negative subset sums: both count the
    subsets that hold 1 but not r + 1, and each subset of {2, ..., r} that a
    counts comes back for the flip with 1 and r + 1 added, its sum raised by
    a_1 + a_{r+1}.  Its orders are then about half as many.  The vectors of
    each rank run the one program of their sequence of chambers, compiled
    once per sequence.  A lone vector refused by the order search or by
    WORK_LIMIT on that side tries the other before it is refused.  An
    in-cone vector above the rank limit of subset_sums raises rank-too-large
    before its chamber key is built.
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
        sides = [_flip(a) if a[0] + a[-1] > 0 else a for a in batch]
        try:
            fresh.update(zip(batch, _walk(sides)))
        except BudgetExceeded:
            if len(batch) > 1 or _flip(sides[0]) == sides[0]:
                raise
            fresh.update(zip(batch, _walk([_flip(sides[0])])))
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
