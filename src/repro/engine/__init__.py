"""Relational engine substrate: columnar tables, predicates, joins, group-by.

The engine plays the role of the commercial DBMS the paper's middleware ran
against: it stores base tables and sample tables as ordinary relations and
executes the aggregation-query subset (COUNT/SUM/AVG/MIN/MAX with GROUP BY,
selection predicates, and star-schema foreign-key joins).
"""

from repro.engine.bitmask import Bitmask, BitmaskVector
from repro.engine.column import Column, ColumnKind
from repro.engine.database import Database
from repro.engine.executor import GroupedResult, aggregate_table, execute
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    And,
    Between,
    BitmaskDisjoint,
    Compare,
    CompareOp,
    Equals,
    InSet,
    Not,
    Or,
    Predicate,
    Query,
    conjoin,
)
from repro.engine.reservoir import (
    ReservoirSampler,
    bernoulli_sample_indices,
    uniform_sample_indices,
    weighted_sample_indices,
)
from repro.engine.schema import ForeignKey, StarSchema
from repro.engine.stats import (
    DEFAULT_DISTINCT_THRESHOLD,
    ColumnStats,
    collect_column_stats,
    column_stats,
    per_group_selectivity,
)
from repro.engine.table import Table

__all__ = [
    "AggFunc",
    "AggregateSpec",
    "And",
    "Between",
    "Bitmask",
    "BitmaskDisjoint",
    "BitmaskVector",
    "Column",
    "ColumnKind",
    "ColumnStats",
    "Compare",
    "CompareOp",
    "Database",
    "DEFAULT_DISTINCT_THRESHOLD",
    "Equals",
    "ForeignKey",
    "GroupedResult",
    "InSet",
    "Not",
    "Or",
    "Predicate",
    "Query",
    "ReservoirSampler",
    "StarSchema",
    "Table",
    "aggregate_table",
    "bernoulli_sample_indices",
    "collect_column_stats",
    "column_stats",
    "conjoin",
    "execute",
    "per_group_selectivity",
    "uniform_sample_indices",
    "weighted_sample_indices",
]
