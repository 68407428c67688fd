"""Ordered batch mapping used by the term evaluators."""

import os

import pytest

from kostant.parallel import effective_workers, map_counts


def _negate_batch(xs):
    # module level, so the fork pool can pickle it by name
    return [-x for x in xs]


def _pid_batch(xs):
    return [os.getpid()] * len(xs)


class TestEffectiveWorkers:
    def test_defaults_to_one_worker(self):
        assert effective_workers(None) == 1

    def test_explicit_count_passes_through(self):
        assert effective_workers(3) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            effective_workers(0)


class TestMapCounts:
    def test_matches_sequential_order(self):
        # two workers over enough items: contiguous chunks on the pool
        items = list(range(-30, 30))
        assert map_counts(_negate_batch, items, threads=2) == [-x for x in items]
        assert set(map_counts(_pid_batch, items, threads=2)) != {os.getpid()}

    def test_single_worker_path(self):
        items = list(range(50))
        assert map_counts(_negate_batch, items, threads=1) == [-x for x in items]

    def test_default_runs_in_process(self):
        calls = []

        def batch(xs):  # a closure would not pickle: this must run here
            calls.append(list(xs))
            return [x * x for x in xs]

        items = list(range(40))
        assert map_counts(batch, items) == [x * x for x in items]
        assert calls == [items]
        assert map_counts(_pid_batch, items) == [os.getpid()] * len(items)

    def test_small_batches_stay_sequential(self):
        # below the pool threshold even a high thread count runs inline
        assert map_counts(_pid_batch, [1, 2, 3], threads=8) == [os.getpid()] * 3
        assert map_counts(_negate_batch, [1, 2, 3], threads=8) == [-1, -2, -3]
