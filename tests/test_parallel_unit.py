"""The thread-safety contract of the execution cache."""

from __future__ import annotations

import threading

from repro.engine.cache import MISS, ExecutionCache


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
