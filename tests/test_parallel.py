"""The batch seam the term evaluators call."""

import os

from kostant.parallel import map_counts


def _pid_batch(xs):
    return [os.getpid()] * len(xs)


class TestMapCounts:
    def test_default_runs_in_process(self):
        calls = []

        def batch(xs):
            calls.append(list(xs))
            return [x * x for x in xs]

        items = list(range(40))
        assert map_counts(batch, items) == [x * x for x in items]
        assert calls == [items]
        assert map_counts(_pid_batch, items) == [os.getpid()] * len(items)
