"""Parallel execution subsystem: shared worker pool + deterministic scatter/gather.

Pre-processing scans, zone-map builds and column statistics are
embarrassingly parallel over row ranges, and an exact star join gathers
its dimension columns independently.  (The §4.2.2 query pieces are not
scattered: each scans a small sample table, so the combiner runs them
in a serial loop.)  This module provides the shared machinery these
sites use:

* :class:`ExecutionOptions` — the knob object (``max_workers``,
  preprocessing ``chunk_rows``) threaded through the executor, the
  combiner, pre-processing, and the middleware session;
* a **shared, lazily-started thread pool** — threads, not processes,
  because the hot loops are numpy kernels (``bincount``, ``unique``,
  ``isin``, fancy indexing) that release the GIL, so same-process
  threads scale on multicore without serialising tables across process
  boundaries;
* :func:`parallel_map` — scatter/gather that returns results in
  **submission order** regardless of completion order, the property the
  deterministic combine relies on;
* :func:`chunk_ranges` / :func:`map_row_chunks` — row-range chunking
  whose layout depends only on the data size (never on the worker
  count), so chunked map-reduce scans produce bit-identical reductions
  for any ``max_workers``.

Determinism argument
--------------------
Every parallel site in the engine follows the same discipline: the
*work list* is built serially in a deterministic order, the tasks are
pure functions of their inputs (no shared-state mutation — enforced
statically by lint rule RL007), and the gather step consumes results by
submission index, not completion order.  Floating-point reductions
therefore associate in exactly the serial order, and answers are
byte-identical for ``max_workers`` ∈ {1, 2, …}.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.errors import QueryError
from repro.obs.registry import get_registry
from repro.obs.trace import NULL_SPAN, Span

#: Name prefix of pool threads; used to refuse nested pool submission
#: (a task that fans out into the pool it runs on can deadlock once the
#: pool is saturated with waiting parents).
_THREAD_NAME_PREFIX = "repro-worker"

#: Hard ceiling on the shared pool size (a runaway ``max_workers`` must
#: not spawn thousands of OS threads).
MAX_POOL_WORKERS = 64


@dataclass(frozen=True)
class ExecutionOptions:
    """Tuning knobs for parallel execution and pre-processing.

    Attributes
    ----------
    max_workers:
        Worker threads used to scatter independent work (pre-processing
        chunks, star-join column gathers).  ``1`` (the default) executes serially on
        the calling thread — the pool is never started.  ``0`` means
        "one per CPU" (``os.cpu_count()``).
    chunk_rows:
        Target rows per pre-processing chunk.  The chunk layout is a
        function of the data size only — never of ``max_workers`` — so
        map-reduced scans associate identically at every worker count.
    data_skipping:
        Whether WHERE evaluation consults the per-chunk zone-map
        summaries (see :mod:`repro.engine.zonemap`) to skip chunks a
        predicate provably cannot match.  Answers are byte-identical
        either way; the flag exists for benchmarking and debugging.
    incremental_appends:
        Whether ``Database.append_rows`` emits a structured append event
        (:class:`repro.engine.cache.AppendEvent`) so derived structures
        — zone maps, bitmask word summaries, provenance sketches — are
        *extended* for the appended tail instead of dropped and rebuilt
        from scratch on the next query.  Answers are byte-identical
        either way (the extend paths reuse a per-chunk summary only when
        the chunk's row range is provably unchanged); the flag exists so
        tests and benchmarks can exercise the full-invalidation path.
        ``insert_rows``/``drop_table`` always take the full-invalidation
        path.
    """

    max_workers: int = 1
    chunk_rows: int = 65536
    data_skipping: bool = True
    incremental_appends: bool = True

    def __post_init__(self) -> None:
        if self.max_workers < 0:
            raise QueryError(
                f"max_workers must be >= 0, got {self.max_workers}"
            )
        if self.chunk_rows < 1:
            raise QueryError(
                f"chunk_rows must be >= 1, got {self.chunk_rows}"
            )

    @property
    def workers(self) -> int:
        """The resolved worker count (``0`` → one per CPU), capped."""
        n = self.max_workers if self.max_workers > 0 else (os.cpu_count() or 1)
        return min(n, MAX_POOL_WORKERS)


# ----------------------------------------------------------------------
# Shared pool (lazily started, grown on demand, never shrunk)
# ----------------------------------------------------------------------
_POOL: ThreadPoolExecutor | None = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def get_pool(workers: int) -> ThreadPoolExecutor:
    """The shared thread pool, lazily started with >= ``workers`` threads.

    The pool is process-wide and shared by every caller (concurrent
    sessions included) so the thread count stays bounded by the largest
    request, not the number of live sessions.  It only ever grows: a
    request for more workers replaces the pool (the old one finishes its
    queue and is shut down without blocking).
    """
    global _POOL, _POOL_WORKERS
    workers = max(1, min(workers, MAX_POOL_WORKERS))
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < workers:
            old = _POOL
            _POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=_THREAD_NAME_PREFIX
            )
            _POOL_WORKERS = workers
            if old is not None:
                old.shutdown(wait=False)
        return _POOL


def shutdown_pool() -> None:
    """Stop the shared pool (tests / interpreter teardown)."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=True)


# Non-daemon pool threads would otherwise block interpreter teardown.
atexit.register(shutdown_pool)


def _in_pool_thread() -> bool:
    """Whether the current thread is a shared-pool worker."""
    return threading.current_thread().name.startswith(_THREAD_NAME_PREFIX)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any] | Iterable[Any],
    max_workers: int,
    span: Span = NULL_SPAN,
) -> list[Any]:
    """Apply ``fn`` to every item, returning results in item order.

    With ``max_workers <= 1``, a single item, or when called *from* a
    pool worker (nested fan-out would risk pool-saturation deadlock),
    this degenerates to a plain serial loop on the calling thread.
    Otherwise items are scattered across the shared pool and gathered by
    submission index, so the output order — and therefore any downstream
    floating-point reduction order — is identical to the serial path.
    The first task exception propagates to the caller.

    ``span`` (when profiling) gains a ``pool.scatter`` child recording
    task count and submit/wait seconds; the shared metrics registry
    counts scattered tasks and observes the latencies process-wide.
    Both are write-only channels (RL009) — answers never depend on them.
    """
    items = list(items)
    if max_workers <= 1 or len(items) <= 1 or _in_pool_thread():
        return [fn(item) for item in items]
    pool = get_pool(max_workers)
    started = time.perf_counter()
    futures = [pool.submit(fn, item) for item in items]
    submitted = time.perf_counter()
    results = [future.result() for future in futures]
    gathered = time.perf_counter()
    scatter_span = span.child("pool.scatter")
    scatter_span.seconds = gathered - started
    scatter_span.annotate(
        tasks=len(items),
        submit_seconds=submitted - started,
        wait_seconds=gathered - submitted,
    )
    registry = get_registry()
    registry.incr("pool.tasks_scattered", len(items))
    registry.observe("pool.submit_seconds", submitted - started)
    registry.observe("pool.wait_seconds", gathered - submitted)
    return results


# ----------------------------------------------------------------------
# Deterministic row chunking
# ----------------------------------------------------------------------
def chunk_ranges(n_rows: int, chunk_rows: int) -> list[tuple[int, int]]:
    """Split ``[0, n_rows)`` into contiguous ranges of ~``chunk_rows``.

    The layout depends only on ``(n_rows, chunk_rows)`` — never on the
    worker count — so per-chunk partial results reduce in the same
    association order at every ``max_workers``.
    """
    if n_rows <= 0:
        return []
    if chunk_rows < 1:
        raise QueryError(f"chunk_rows must be >= 1, got {chunk_rows}")
    n_chunks = max(1, (n_rows + chunk_rows - 1) // chunk_rows)
    bounds = [
        n_rows * i // n_chunks for i in range(n_chunks + 1)
    ]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(n_chunks)
        if bounds[i] < bounds[i + 1]
    ]


def _apply_range(item: tuple[Callable[[int, int], Any], int, int]) -> Any:
    """Pool task: apply a range function to one ``(start, stop)`` chunk."""
    fn, start, stop = item
    return fn(start, stop)


def map_row_chunks(
    fn: Callable[[int, int], Any],
    n_rows: int,
    options: "ExecutionOptions",
    span: Span = NULL_SPAN,
) -> list[Any]:
    """Map ``fn(start, stop)`` over deterministic row chunks, in order.

    The work list is the :func:`chunk_ranges` layout; results come back
    in chunk order, so callers can ``np.concatenate`` them (row-order
    scans) or fold them left-to-right (map-reduce histograms) and get
    the serial result bit-for-bit.
    """
    items = [
        (fn, start, stop) for start, stop in chunk_ranges(n_rows, options.chunk_rows)
    ]
    return parallel_map(_apply_range, items, options.workers, span=span)


# ----------------------------------------------------------------------
# Process-wide default options
# ----------------------------------------------------------------------
_DEFAULT_OPTIONS = ExecutionOptions()
_OPTIONS_LOCK = threading.Lock()


def get_default_options() -> ExecutionOptions:
    """The process-wide default :class:`ExecutionOptions`."""
    return _DEFAULT_OPTIONS


def set_default_options(options: ExecutionOptions) -> ExecutionOptions:
    """Replace the process-wide defaults; returns the previous value.

    Used by the CLI's ``--max-workers`` flag and by benchmarks that
    sweep worker counts; sessions and techniques can also carry their
    own :class:`ExecutionOptions` explicitly.
    """
    global _DEFAULT_OPTIONS
    with _OPTIONS_LOCK:
        previous = _DEFAULT_OPTIONS
        _DEFAULT_OPTIONS = options
    return previous


def resolve_options(options: ExecutionOptions | None) -> ExecutionOptions:
    """``options`` if given, else the process-wide defaults."""
    return options if options is not None else _DEFAULT_OPTIONS


__all__ = [
    "ExecutionOptions",
    "MAX_POOL_WORKERS",
    "chunk_ranges",
    "get_default_options",
    "get_pool",
    "map_row_chunks",
    "parallel_map",
    "resolve_options",
    "set_default_options",
    "shutdown_pool",
]
