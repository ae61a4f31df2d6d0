"""Execution options and deterministic row chunking.

The engine is one serial program: every scan, gather and §4.2.2 query
piece runs on the calling thread.  (The only concurrency left is the
HTTP server's handler threads and the locks that guard them; see
``docs/internals.md`` §8.)  This module provides:

* :class:`ExecutionOptions` — the knob object (``chunk_rows``,
  ``data_skipping``) threaded through the
  executor, the combiner, pre-processing, and the middleware session;
* :func:`chunk_ranges` / :func:`map_row_chunks` — the fixed row-range
  chunk layout zone maps and chunked membership scans are built over.
  The layout depends only on the data size, so a per-chunk summary stays
  valid for as long as its row range is unchanged.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import QueryError


@dataclass(frozen=True)
class ExecutionOptions:
    """Tuning knobs for execution and pre-processing.

    Attributes
    ----------
    chunk_rows:
        Target rows per chunk: the granularity of zone-map summaries and
        chunked pre-processing scans.  The chunk layout is a function of
        the data size only.
    data_skipping:
        Whether WHERE evaluation consults the per-chunk zone-map
        summaries (see :mod:`repro.engine.zonemap`) to skip chunks a
        predicate provably cannot match.  Answers are byte-identical
        either way; the flag exists for benchmarking and debugging.
    """

    chunk_rows: int = 65536
    data_skipping: bool = True

    def __post_init__(self) -> None:
        if self.chunk_rows < 1:
            raise QueryError(
                f"chunk_rows must be >= 1, got {self.chunk_rows}"
            )


# ----------------------------------------------------------------------
# Deterministic row chunking
# ----------------------------------------------------------------------
def chunk_ranges(n_rows: int, chunk_rows: int) -> list[tuple[int, int]]:
    """Split ``[0, n_rows)`` into contiguous ranges of ~``chunk_rows``.

    The layout depends only on ``(n_rows, chunk_rows)``, so per-chunk
    summaries line up with the same row ranges on every build.
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


def map_row_chunks(
    fn: Callable[[int, int], Any],
    n_rows: int,
    options: "ExecutionOptions",
) -> list[Any]:
    """Map ``fn(start, stop)`` over the :func:`chunk_ranges` layout, in order.

    Results come back in chunk order, so callers can ``np.concatenate``
    them (row-order scans) or keep one summary per chunk (zone maps).
    """
    return [fn(start, stop) for start, stop in chunk_ranges(n_rows, options.chunk_rows)]


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

    Used by the CLI's ``--chunk-rows`` flag and by tests that sweep chunk
    layouts; sessions and techniques can also carry their own
    :class:`ExecutionOptions` explicitly.
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
    "chunk_ranges",
    "get_default_options",
    "map_row_chunks",
    "resolve_options",
    "set_default_options",
]
