"""The seam each sum hands its batch of partition arguments through.

map_counts(fn, items) is fn(items), in-process.  It is kept only because the
benchmark tracer (bench/tracing.py) wraps kostant.parallel.map_counts by
module and name to capture each sum's arguments, and its self-tests count
those calls; once that hook moves to partition_counts, this module goes.
"""


def map_counts(fn, items):
    """fn(items): one batch function applied to the whole batch."""
    return fn(items)
