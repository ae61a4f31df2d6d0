"""Op lists for the four workloads, made from the workload seed alone.

The server only ever sees what is generated here: SQL text rendered by
``format_query`` from ``generate_workload`` queries (the paper's section
5.2.3 recipe) and view-shaped append batches.  The same seed gives
byte-identical lists (``ops_digest``); the dataset and the quality panel
are fixed and do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.datagen.tpch import TPCH_KEY_COLUMNS
from repro.engine.database import Database
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.sql.formatter import format_query
from repro.workload.generator import eligible_grouping_columns, generate_workload
from repro.workload.spec import WorkloadConfig

from benchmarks.e2e.config import BATCH_ROWS

SUM_MEASURES = ("l_extendedprice", "l_quantity")

#: Seed of the quality panel: fixed, so answer quality repeats exactly.
PANEL_SEED = 4242
PANEL_SIZE = 16

N_TEMPLATES = 12
#: Untimed distinct ad-hoc queries before the ad-hoc and exact phases,
#: after one query per column (``column_sweep``).
ADHOC_WARMUP = 4


@dataclass(frozen=True)
class QueryOp:
    """One query request; ``query`` is kept for the oracle."""

    kind = "query"

    sql: str
    mode: str
    query: Query = field(compare=False, repr=False)

    def wire(self) -> dict:
        return {"op": self.kind, "sql": self.sql, "mode": self.mode}


@dataclass(frozen=True)
class AppendOp:
    """One view-shaped append batch for the fact table."""

    kind = "append"

    table: str
    rows: dict[str, list] = field(repr=False)

    def wire(self) -> dict:
        return {"op": self.kind, "table": self.table, "rows": self.rows}


def ops_digest(ops: list) -> str:
    """SHA-256 of the wire form of an op list (seed-determinism check)."""
    payload = json.dumps([op.wire() for op in ops], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _generate(db: Database, seed: int, per_combo: int, **overrides) -> list[Query]:
    """Half COUNT, half SUM queries, stratified then de-duplicated.

    ``generate_workload`` emits queries grouped by parameter combination;
    they are re-ordered here into rounds holding one query of each
    (aggregate, grouping columns, predicates, fraction) combination, and
    within a round so that every run of consecutive queries cycles
    through the numbers of grouping columns in a seed-shuffled order.
    The number of grouping columns is what latency depends on most (the
    engine computes group ids over the whole table whatever the
    predicate selects), so a time-limited prefix of the list is the same
    mix of cheap and dear queries on every seed and its percentiles are
    comparable; which columns and values are drawn still varies.
    """
    count = generate_workload(
        db,
        WorkloadConfig(
            aggregate="COUNT",
            queries_per_combo=per_combo,
            exclude_columns=TPCH_KEY_COLUMNS,
            seed=seed,
            **overrides,
        ),
    )
    total = generate_workload(
        db,
        WorkloadConfig(
            aggregate="SUM",
            measure_columns=SUM_MEASURES,
            queries_per_combo=per_combo,
            exclude_columns=TPCH_KEY_COLUMNS,
            seed=seed + 1,
            **overrides,
        ),
    )
    combos = len(count) // per_combo
    rng = np.random.default_rng([seed, 0xE2E])
    ordered: list[Query] = []
    for round_ in range(per_combo):
        by_width: dict[int, list[Query]] = {}
        for workload in (count, total):
            for combo in range(combos):
                generated = workload.queries[combo * per_combo + round_]
                by_width.setdefault(generated.n_group_columns, []).append(generated.query)
        for bucket in by_width.values():
            rng.shuffle(bucket)
        widths = sorted(by_width)
        for position in range(min(len(bucket) for bucket in by_width.values())):
            for i in rng.permutation(len(widths)):
                ordered.append(by_width[widths[i]][position])
    seen: set[str] = set()
    unique = []
    for query in ordered:
        text = format_query(query)
        if text not in seen:
            seen.add(text)
            unique.append(query)
    return unique


def column_sweep(db: Database, mode: str) -> list[QueryOp]:
    """One single-column GROUP BY per eligible column (untimed warm-up).

    Touches every dimension column once, so the one-off foreign-key
    gathers are paid before the timed phase on every seed alike instead
    of by whichever timed query happens to meet a column first.
    """
    config = WorkloadConfig(exclude_columns=TPCH_KEY_COLUMNS)
    count = (AggregateSpec(AggFunc.COUNT, alias="cnt"),)
    queries = [
        Query(db.fact_table.name, count, (column,))
        for column in eligible_grouping_columns(db.joined_view(), config)
    ]
    return [QueryOp(format_query(q), mode, q) for q in queries]


def adhoc_queries(db: Database, seed: int, n: int, mode: str) -> list[QueryOp]:
    """At least ``n`` distinct queries of the paper's workload, in ``mode``."""
    per_combo = -(-n // 64) + 1  # 64 combinations per round, plus slack for duplicates
    queries = _generate(db, seed, per_combo)
    return [QueryOp(format_query(q), mode, q) for q in queries]


def template_queries(db: Database, seed: int, mode: str = "approx") -> list[QueryOp]:
    """The dashboard's 12 templates: 1-2 grouping columns, one predicate."""
    queries = _generate(
        db,
        seed + 7,
        per_combo=1,
        group_column_counts=(1, 2),
        predicate_counts=(1,),
        subset_fractions=(0.1, 0.2, 0.3),
    )
    if len(queries) < N_TEMPLATES:
        raise RuntimeError(f"only {len(queries)} distinct templates generated")
    return [QueryOp(format_query(q), mode, q) for q in queries[:N_TEMPLATES]]


def panel_queries(db: Database) -> list[QueryOp]:
    """The fixed quality panel, asked in approximate mode after every run."""
    queries = _generate(db, PANEL_SEED, per_combo=1)
    return [QueryOp(format_query(q), "approx", q) for q in queries[:PANEL_SIZE]]


def append_batches(db: Database, seed: int, n: int) -> list[AppendOp]:
    """``n`` view-shaped batches sampled (with replacement) from the joined view."""
    view = db.joined_view()
    rng = np.random.default_rng([seed, 0xA99])
    fact = db.fact_table.name
    batches = []
    for _ in range(n):
        rows = view.take(rng.integers(0, view.n_rows, BATCH_ROWS))
        batches.append(
            AppendOp(fact, {name: rows.column(name).to_list() for name in view.column_names})
        )
    return batches
