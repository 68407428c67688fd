"""Deterministic evaluation of a batch of independent partition-count terms.

`map_counts` applies a batch function: a list in, a list of the same length
out.  It runs in-process unless the caller asks for more than one worker and
there is enough work to amortise forking; then contiguous chunks go to a
fork pool and the results are joined in input order, so the values are
bit-identical at any worker count.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

_MIN_PARALLEL_ITEMS = 24


def effective_workers(threads: int | None) -> int:
    if threads is None:
        return 1
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    return threads


def map_counts(fn: Callable, items: Sequence, threads: int | None = None) -> List:
    """fn(items), or fn over contiguous chunks of items on a fork pool."""
    items = list(items)
    workers = min(effective_workers(threads), len(items))
    if workers <= 1 or len(items) < _MIN_PARALLEL_ITEMS:
        return fn(items)
    try:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
    except (ImportError, ValueError):
        return fn(items)
    size = -(-len(items) // workers)
    chunks = [items[i:i + size] for i in range(0, len(items), size)]
    with ctx.Pool(len(chunks)) as pool:
        return [value for part in pool.map(fn, chunks, chunksize=1) for value in part]
