"""Star schema metadata.

The paper considers queries over a single fact table or over a *star
schema*: a fact table joined to dimension tables through foreign-key joins.
:class:`StarSchema` records that structure so the executor can resolve
which physical table owns each column, and so samples can be materialised
as *join synopses* (pre-joined wide rows, per [3]).

Column names must be globally unique across the fact table and all
dimension tables (TPC-H style ``l_``/``p_``/``s_`` prefixes); this keeps
queries, which reference bare column names, unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key join edge from the fact table to one dimension table.

    Attributes
    ----------
    fact_column:
        Key column on the fact table.
    dimension_table:
        Name of the dimension table.
    dimension_key:
        Primary-key column on the dimension table.
    """

    fact_column: str
    dimension_table: str
    dimension_key: str


@dataclass(frozen=True)
class StarSchema:
    """Join structure of a star-schema database.

    Attributes
    ----------
    fact_table:
        Name of the central fact table.
    foreign_keys:
        One entry per dimension table reachable from the fact table.
    """

    fact_table: str
    foreign_keys: tuple[ForeignKey, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        dims = [fk.dimension_table for fk in self.foreign_keys]
        if len(dims) != len(set(dims)):
            raise SchemaError("duplicate dimension table in star schema")
        if self.fact_table in dims:
            raise SchemaError("fact table cannot also be a dimension table")
