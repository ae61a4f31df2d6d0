"""Unit tests for execution options and row chunking (engine/parallel.py)
and the thread-safety contract of the execution cache."""

from __future__ import annotations

import threading

import pytest

from repro.engine.cache import MISS, ExecutionCache
from repro.engine.parallel import (
    ExecutionOptions,
    chunk_ranges,
    get_default_options,
    map_row_chunks,
    resolve_options,
    set_default_options,
)
from repro.errors import QueryError


class TestExecutionOptions:
    def test_bad_chunk_rows_rejected(self):
        with pytest.raises(QueryError):
            ExecutionOptions(chunk_rows=0)

    def test_resolve_options(self):
        explicit = ExecutionOptions(chunk_rows=3)
        assert resolve_options(explicit) is explicit
        assert resolve_options(None) is get_default_options()

    def test_set_default_options_returns_previous(self):
        previous = set_default_options(ExecutionOptions(chunk_rows=2))
        try:
            assert get_default_options().chunk_rows == 2
        finally:
            assert set_default_options(previous).chunk_rows == 2


class TestChunkRanges:
    def test_empty_table(self):
        assert chunk_ranges(0, 100) == []
        assert chunk_ranges(-5, 100) == []

    def test_single_chunk_when_small(self):
        assert chunk_ranges(50, 100) == [(0, 50)]

    def test_ranges_tile_the_rows(self):
        for n_rows in (1, 7, 100, 65537, 200_001):
            ranges = chunk_ranges(n_rows, 4096)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == n_rows
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert stop == start

    def test_layout_independent_of_worker_count(self):
        # The layout is a pure function of (n_rows, chunk_rows): there is
        # no worker-count parameter to leak into the association order.
        assert chunk_ranges(10_000, 1024) == chunk_ranges(10_000, 1024)

    def test_bad_chunk_rows_rejected(self):
        with pytest.raises(QueryError):
            chunk_ranges(10, 0)

    def test_map_row_chunks_concatenates_in_chunk_order(self):
        options = ExecutionOptions(chunk_rows=7)
        parts = map_row_chunks(lambda s, e: list(range(s, e)), 50, options)
        flat = [x for part in parts for x in part]
        assert flat == list(range(50))


class _Anchor:
    """Weakref-able anchor object for cache entries."""


class TestExecutionCacheThreadSafety:
    N_THREADS = 8
    OPS_PER_THREAD = 400

    def test_concurrent_hammering_loses_no_updates(self):
        cache = ExecutionCache()
        anchors = [_Anchor() for _ in range(16)]
        errors: list[BaseException] = []
        lookups = [0] * self.N_THREADS
        barrier = threading.Barrier(self.N_THREADS)

        def worker(thread_index: int) -> None:
            try:
                barrier.wait()
                for op in range(self.OPS_PER_THREAD):
                    anchor = anchors[(thread_index + op) % len(anchors)]
                    kind = f"kind{op % 3}"
                    value = cache.get(kind, [anchor], extra=op % 5)
                    lookups[thread_index] += 1
                    if value is MISS:
                        cache.put(kind, [anchor], thread_index, extra=op % 5)
                    if op % 50 == 49:
                        cache.invalidate_object(anchor)
                    if op % 97 == 96:
                        len(cache)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        metrics = cache.metrics
        # No lost counter updates: every lookup is either a hit or a miss.
        assert metrics.total_hits() + metrics.total_misses() == sum(lookups)
        assert sum(lookups) == self.N_THREADS * self.OPS_PER_THREAD
        assert metrics.snapshot()["invalidations"] >= 0
        # Structure survives: every remaining entry resolves to a live
        # anchor and the reverse index agrees with the entries.
        assert len(cache) <= len(anchors) * 3 * 5
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_get_or_compute_stampede_is_benign(self):
        cache = ExecutionCache()
        anchor = _Anchor()
        computed = []
        barrier = threading.Barrier(self.N_THREADS)
        results = [None] * self.N_THREADS

        def worker(thread_index: int) -> None:
            barrier.wait()
            results[thread_index] = cache.get_or_compute(
                "stampede", [anchor], lambda: computed.append(1) or 42
            )

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Every caller sees the value; the compute may run multiple times
        # (documented stampede) but at least once and never corrupts.
        assert results == [42] * self.N_THREADS
        assert 1 <= len(computed) <= self.N_THREADS
        assert cache.get("stampede", [anchor]) == 42
