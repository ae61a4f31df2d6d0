"""Ingestion benchmark: incremental append maintenance vs full invalidation.

One workload, emitting ``BENCH_ingest.json`` at the repo root: a
chunk-aligned append stream racing queries.  A clustered table answers
the same BETWEEN aggregate after every appended batch, so each append
forces the zone maps back into service immediately.  With
``incremental_appends`` off, every append invalidates the summaries and
the next query rebuilds them over the *whole* table; with the flag on,
the append event extends them, recomputing only the appended tail
chunks.  ``ingest.rows_recomputed`` counts exactly the rows whose stored
values were re-read to (re)build summaries, so the gate is
deterministic: the invalidation path must recompute >= 5x the rows the
incremental path does, with byte-identical answers.

Chunk-aligned batches are the favourable case by design — the paper's
appends arrive in load batches, and ``chunk_ranges``'s balanced layout
keeps every old boundary stable exactly when the row count grows by a
multiple of ``chunk_rows``.  (Misaligned appends degrade toward a fuller
recompute and are covered for correctness in ``tests/test_ingest.py``.)

Sizes honour ``REPRO_BENCH_ROWS`` (default 60000) so the CI smoke step
runs the same code path in seconds.  Append throughput (appends/sec with
a query after every batch) is reported for context but not gated (timing
noise on loaded runners).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.engine import selection as sel
from repro.engine.cache import get_cache
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.executor import execute
from repro.engine.parallel import ExecutionOptions
from repro.engine.table import Table
from repro.obs.registry import get_registry
from repro.sql.parser import parse_query

_RAW_ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "60000"))
CHUNK_ROWS = max(256, _RAW_ROWS // 60)
#: Rounded down to a chunk multiple: ``chunk_ranges``'s balanced layout
#: keeps old boundaries stable only when the row count stays a multiple
#: of ``chunk_rows``, which is the aligned-append case this gates.
ROWS = max(CHUNK_ROWS, (_RAW_ROWS // CHUNK_ROWS) * CHUNK_ROWS)
N_APPENDS = 8

SQL_TEMPLATE = (
    "SELECT COUNT(*) AS cnt, SUM(amount) AS total FROM events "
    "WHERE x BETWEEN {lo} AND {hi}"
)


def _base_table(n_rows: int) -> Table:
    x = np.arange(n_rows, dtype=np.int64)
    amount = np.linspace(0.0, 100.0, num=n_rows)
    return Table.from_dict("events", {"x": x, "amount": amount})


def _batch(ordinal: int) -> Table:
    """One chunk-aligned batch; values keep ``x`` globally clustered."""
    start = ROWS + ordinal * CHUNK_ROWS
    x = np.arange(start, start + CHUNK_ROWS, dtype=np.int64)
    amount = np.linspace(0.0, 100.0, num=CHUNK_ROWS)
    return Table.from_dict("events", {"x": x, "amount": amount})


def _query(ordinal: int):
    """A fresh predicate per step so no cached WHERE mask can serve it."""
    lo = int(ROWS * 0.4) + ordinal
    hi = int(ROWS * 0.6) + ordinal
    return parse_query(SQL_TEMPLATE.format(lo=lo, hi=hi))


def _append_stream(incremental: bool) -> dict:
    """Run the racing workload once; return counters and the final answer."""
    get_cache().clear()
    sel.reset_sketch_store()
    db = Database([_base_table(ROWS)])
    options = ExecutionOptions(
        chunk_rows=CHUNK_ROWS, incremental_appends=incremental
    )
    registry = get_registry()

    # Cold query: builds the zone maps both modes start from.
    execute(db, _query(0), options=options)
    recomputed_before = registry.counter("ingest.rows_recomputed")
    extended_before = registry.counter("ingest.chunks_extended")

    start = time.perf_counter()
    for ordinal in range(1, N_APPENDS + 1):
        db.append_rows("events", _batch(ordinal), options=options)
        execute(db, _query(ordinal), options=options)
    seconds = time.perf_counter() - start

    final = execute(db, _query(0), options=options)
    return {
        "rows_recomputed": int(
            registry.counter("ingest.rows_recomputed") - recomputed_before
        ),
        "chunks_extended": int(
            registry.counter("ingest.chunks_extended") - extended_before
        ),
        "seconds": seconds,
        "appends_per_sec": round(N_APPENDS / max(seconds, 1e-9), 2),
        "final_rows": final.rows,
        "final_counts": final.raw_counts,
    }


def test_ingest():
    payload: dict = {
        "benchmark": "incremental_ingest",
        "rows": ROWS,
        "chunk_rows": CHUNK_ROWS,
        "n_appends": N_APPENDS,
        "batch_rows": CHUNK_ROWS,
        "cpu_count": os.cpu_count() or 1,
    }
    try:
        incremental = _append_stream(incremental=True)
        invalidation = _append_stream(incremental=False)

        answers_identical = (
            incremental["final_rows"] == invalidation["final_rows"]
            and incremental["final_counts"] == invalidation["final_counts"]
        )
        reduction = invalidation["rows_recomputed"] / max(
            1, incremental["rows_recomputed"]
        )
        for mode in (incremental, invalidation):
            del mode["final_rows"], mode["final_counts"]
            mode["seconds"] = round(mode["seconds"], 6)
        payload["incremental"] = incremental
        payload["invalidation"] = invalidation
        payload["rows_recomputed_reduction"] = round(reduction, 2)
        payload["answers_identical"] = answers_identical

        assert answers_identical, payload
        # The append stream extended summaries instead of rebuilding.
        assert incremental["chunks_extended"] > 0, payload
        assert invalidation["chunks_extended"] == 0, payload
        # The headline gate: >= 5x fewer summary rows recomputed than
        # the historical invalidate-and-rebuild path.
        assert reduction >= 5.0, payload
    finally:
        out = Path(__file__).resolve().parents[1] / "BENCH_ingest.json"
        out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        get_cache().clear()
        sel.reset_sketch_store()
