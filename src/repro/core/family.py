"""The small group sample family as a value, and the functions over it (§3).

Pre-processing (:func:`repro.core.smallgroup.build`) produces one
:class:`SampleFamily`; the runtime rewrite is a pure function of
(family, query) (:func:`plan`); an append produces the *next* family
(:meth:`SampleFamily.with_batch`).  Nothing edits a family in place: a
reader holding one keeps a consistent snapshot however many appends
follow, and the session serving the current family publishes the next
one with a single assignment, so a failed append publishes nothing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.rewriter import SamplePiece, require_scale_discipline
from repro.engine.bitmask import Bitmask, BitmaskVector
from repro.engine.column import ColumnKind
from repro.engine.database import Database
from repro.engine.expressions import BitmaskDisjoint, Query
from repro.engine.reservoir import as_generator, reservoir_replacements
from repro.engine.table import Table
from repro.errors import SamplingError
from repro.obs.registry import get_registry

if TYPE_CHECKING:
    from repro.core.smallgroup import SmallGroupConfig


@dataclass(frozen=True)
class SampleTableMeta:
    """Metadata-table entry for one small group sample table.

    Mirrors the paper's metadata table: which column(s) the table covers,
    its bit index, its sampling rate, and its stored size.
    """

    name: str
    columns: tuple[str, ...]
    bit_index: int
    rate: float
    level: int
    class_rows: int
    stored_rows: int


@dataclass(frozen=True)
class ColumnClass:
    """Membership test for one (column, level) class on a batch of rows.

    A value belongs to the class when it is outside this level's common
    set but inside the next-stricter level's common set (always true for
    level 0).  Unseen values land in level 0.  Membership is decided once
    per dictionary code, then gathered by the batch's codes.
    """

    column: str
    common: frozenset
    previous_common: frozenset | None

    @property
    def columns(self) -> tuple[str]:
        """The grouping columns the class is defined on."""
        return (self.column,)

    def __call__(self, batch: Table) -> np.ndarray:
        col = batch.column(self.column)
        dictionary = col.dictionary or ()
        if len(dictionary) == 0:
            return np.zeros(batch.n_rows, dtype=bool)
        in_common = np.asarray([v in self.common for v in dictionary])
        if self.previous_common is None:
            in_previous = np.ones(len(dictionary), dtype=bool)
        else:
            in_previous = np.asarray(
                [v in self.previous_common for v in dictionary]
            )
        member_by_code = ~in_common & in_previous
        return member_by_code[col.data]


@dataclass(frozen=True)
class PairClass:
    """Membership test for a pair class: the joint value is uncommon.

    The common pairs are mapped onto the batch's dictionary codes once,
    so rows are tested as joint codes, never decoded one by one.
    """

    columns: tuple[str, str]
    common_pairs: frozenset

    def __call__(self, batch: Table) -> np.ndarray:
        col_a = batch.column(self.columns[0])
        col_b = batch.column(self.columns[1])
        radix = len(col_b.require_dictionary())
        common_codes = []
        for a, b in self.common_pairs:
            code_a, code_b = col_a.code_for(a), col_b.code_for(b)
            if code_a >= 0 and code_b >= 0:
                common_codes.append(code_a * radix + code_b)
        joint = col_a.data.astype(np.int64) * radix + col_b.data
        return ~np.isin(joint, np.asarray(common_codes, dtype=np.int64))


ValueClass = ColumnClass | PairClass


@dataclass(frozen=True)
class OverallPart:
    """One stratum of the overall sample.

    The basic algorithm has a single uniform part; the outlier-enhanced
    variant (Section 4.2.1's "small group sampling enhanced with outlier
    indexing") replaces it with an exact outlier stratum plus a uniform
    sample of the remainder.
    """

    table: Table
    rate: float
    zero_variance: bool = False

    def __post_init__(self) -> None:
        require_scale_discipline(self.rate, None, self.zero_variance)

    @property
    def scale(self) -> float:
        """Aggregate scale factor ``1/rate``."""
        return 1.0 / self.rate

    def variance_weights(self) -> np.ndarray | None:
        """Per-row variance contributions for this part."""
        if self.zero_variance:
            return None
        return np.full(
            self.table.n_rows, (1.0 - self.rate) * self.scale * self.scale
        )


@dataclass(frozen=True, eq=False)
class SampleFamily:
    """Everything small group pre-processing built, as one immutable value.

    ``metas``/``tables`` are the metadata table and the small group
    tables in bit order; ``classes`` re-test each table's class
    membership for new rows (membership is value-determined, so a frozen
    class stays correct for seen values, and unseen values land in the
    100% level); ``append_ordinal`` counts the batches absorbed since the
    build and seeds each append's RNG stream.  Every sample table is a
    join synopsis: it carries all ``view_columns``, dimension attributes
    inline.  Compared by identity: a memo keyed by a family is valid
    while its holder still holds it.
    """

    config: SmallGroupConfig
    metas: tuple[SampleTableMeta, ...]
    tables: tuple[Table, ...]
    overall_parts: tuple[OverallPart, ...]
    classes: tuple[ValueClass, ...]
    n_bits: int
    view_rows: int
    append_ordinal: int
    view_columns: tuple[str, ...]

    @classmethod
    def of_database(
        cls,
        db: Database,
        config: SmallGroupConfig,
        metas: Sequence[SampleTableMeta],
        tables: Sequence[Table],
        overall_parts: Sequence[OverallPart],
        classes: Sequence[ValueClass],
    ) -> SampleFamily:
        """A fresh family (no appends) drawn from ``db``'s current rows."""
        return cls(
            config=config,
            metas=tuple(metas),
            tables=tuple(tables),
            overall_parts=tuple(overall_parts),
            classes=tuple(classes),
            n_bits=max(1, len(metas)),
            view_rows=db.fact_table.n_rows,
            append_ordinal=0,
            view_columns=tuple(db.view_column_names()),
        )

    def check_catalog(self, db: Database) -> None:
        """Raise :class:`SamplingError` unless the family describes ``db``'s fact table.

        A family answers for the rows it was drawn from: served over a
        catalog with other rows or columns, its scale-ups would be wrong.
        """
        rows, columns = db.fact_table.n_rows, tuple(db.view_column_names())
        if (self.view_rows, self.view_columns) != (rows, columns):
            raise SamplingError(
                f"the samples describe {self.view_rows} rows of columns "
                f"{list(self.view_columns)}, but the catalog's fact table "
                f"has {rows} rows of columns {list(columns)}"
            )

    @property
    def appendable(self) -> bool:
        """Whether :meth:`with_batch` applies: one uniform overall part.

        Variants that restructure the overall sample (e.g. the outlier
        hybrid) must rebuild instead.
        """
        return (
            len(self.overall_parts) == 1
            and not self.overall_parts[0].zero_variance
        )

    def check_batch(self, batch: Table) -> tuple[str, ...]:
        """The view columns ``batch`` must (and does) carry for :meth:`with_batch`.

        Raises :class:`SamplingError` when the family cannot absorb
        appends or the batch lacks a joined-view column.
        """
        if not self.appendable:
            raise SamplingError(
                "incremental maintenance requires the basic single-part "
                "overall sample; rebuild with preprocess()"
            )
        missing = [c for c in self.view_columns if not batch.has_column(c)]
        if missing:
            raise SamplingError(
                f"insert batch is missing view columns {missing}"
            )
        return self.view_columns

    def with_batch(self, batch: Table) -> SampleFamily:
        """The family after ``batch`` is appended to the view; ``self`` stays as it is.

        ``batch`` must carry the joined-view schema (every column of the
        stored sample tables).  Each new row is

        * appended to the small group tables whose value classes it falls
          into — classes are value-determined, so the frozen common-value
          sets stay correct for seen values, and *unseen* values are
          uncommon by definition and land in the 100% level;
        * offered to the overall reservoir, which keeps its fixed size
          (the classic reservoir discipline), so the overall sampling
          rate is re-derived as ``k / N`` after each batch.

        Tables that gain no rows are shared with the new family.  An
        empty batch returns ``self``.
        """
        batch = batch.select(list(self.check_batch(batch)))
        n_new = batch.n_rows
        if n_new == 0:
            return self
        # Deterministic per-append RNG stream: the draws for append #i
        # are a pure function of (seed, i), never of how many queries
        # ran in between, so any interleaving of appends and queries
        # yields samples byte-identical to a fresh session replaying the
        # same appends in order at the same seed.
        rng = as_generator(
            np.random.default_rng(
                [int(self.config.seed), 0x5EED, self.append_ordinal]
            )
        )

        # Class membership of the new rows across every small group table.
        member_matrix = (
            np.stack([clf(batch) for clf in self.classes], axis=1)
            if self.classes
            else np.zeros((n_new, 0), dtype=bool)
        )

        # Encode once: the stored columns, coded against the sample tables'
        # dictionaries (every sample table holds the catalog's, and a
        # served batch arrives coded against them, so this maps nothing),
        # so each extension below concatenates codes as-is; and the
        # bitmask words packed once, so each extension takes its rows'
        # words instead of packing them again.
        reference = self.overall_parts[0].table
        encoded = {}
        for c in self.view_columns:
            column = batch.column(c)
            if column.kind is ColumnKind.STRING:
                column = column.encoded_like(reference.column(c))
            encoded[c] = column
        stored_batch = Table(
            batch.name,
            encoded,
            BitmaskVector.from_membership(member_matrix, self.n_bits),
        )

        # 1. Extend the small group tables: each stored row is gathered
        # straight into the tail of the table's buffers.
        metas, tables = list(self.metas), list(self.tables)
        for i, meta in enumerate(self.metas):
            class_indices = np.flatnonzero(member_matrix[:, i])
            if class_indices.size == 0:
                continue
            if meta.rate >= 1.0:
                stored = class_indices
            else:
                keep = rng.random(class_indices.size) < meta.rate
                stored = class_indices[keep]
            if stored.size:
                tables[i] = tables[i].concat(stored_batch, rows=stored)
            metas[i] = replace(
                meta,
                class_rows=meta.class_rows + int(class_indices.size),
                stored_rows=meta.stored_rows + int(stored.size),
            )

        # 2. Maintain the overall reservoir at its fixed capacity: the
        # kept rows, then the incoming ones, into one new buffer per column.
        overall = reference
        k = overall.n_rows
        replacements = reservoir_replacements(k, self.view_rows, n_new, rng)
        total = self.view_rows + n_new
        if replacements:
            get_registry().incr("ingest.reservoir_updates", len(replacements))
            keep_mask = np.ones(k, dtype=bool)
            keep_mask[list(replacements)] = False
            incoming = np.asarray(sorted(set(replacements.values())))
            overall = overall.concat(
                stored_batch, rows=incoming, keep=np.flatnonzero(keep_mask)
            )
        return replace(
            self,
            metas=tuple(metas),
            tables=tuple(tables),
            overall_parts=(OverallPart(overall, overall.n_rows / total),),
            view_rows=total,
            append_ordinal=self.append_ordinal + 1,
        )

    def maintenance_report(self) -> dict:
        """Quantify the drift this family absorbed through :meth:`with_batch`.

        Returns per-table class fractions against the configured caps.
        A ``fill_ratio`` well above 1 means value-frequency drift has
        outgrown a small group table and a rebuild is warranted.
        """
        levels = self.config.effective_levels()
        tables = []
        worst = 0.0
        for meta in self.metas:
            cap_fraction = levels[min(meta.level, len(levels) - 1)][0]
            fraction = meta.class_rows / max(1, self.view_rows)
            fill = fraction / cap_fraction if cap_fraction > 0 else 0.0
            worst = max(worst, fill)
            tables.append(
                {
                    "name": meta.name,
                    "class_fraction": fraction,
                    "cap_fraction": cap_fraction,
                    "fill_ratio": fill,
                }
            )
        return {
            "view_rows": self.view_rows,
            "tables": tables,
            "worst_fill_ratio": worst,
            "rebuild_recommended": worst > 1.5,
        }


# ----------------------------------------------------------------------
# Runtime phase (Section 4.2.2)
# ----------------------------------------------------------------------
def applicable_tables(family: SampleFamily, query: Query) -> list[int]:
    """Indices (into the metadata table) of tables usable for ``query``.

    A single-column table applies when its column is in the query's
    GROUP BY list; a pair table applies when both its columns are.
    ``max_tables_per_query`` (Section 4.2.3's "heuristic for picking a
    subset") may then keep only the smallest tables.
    """
    metas = family.metas
    grouping = set(query.group_by)
    chosen = [i for i, meta in enumerate(metas) if set(meta.columns) <= grouping]
    cap = family.config.max_tables_per_query
    if cap is not None and len(chosen) > cap:
        chosen = sorted(chosen, key=lambda i: metas[i].stored_rows)[:cap]
    chosen.sort(key=lambda i: metas[i].bit_index)
    return chosen


def plan(family: SampleFamily, query: Query) -> list[SamplePiece]:
    """Rewrite ``query`` into small-group pieces + the overall pieces.

    One unscaled piece per applicable small group table, each filtered
    with ``bitmask & m = 0`` against the previously used tables, then the
    ``1/r``-scaled overall parts filtered against all used tables.
    """
    pieces: list[SamplePiece] = []
    used_bits: list[int] = []
    for i in applicable_tables(family, query):
        meta = family.metas[i]
        table = family.tables[i]
        piece_query = query.with_table(meta.name)
        if used_bits:
            piece_query = piece_query.and_where(
                BitmaskDisjoint(Bitmask(family.n_bits, used_bits))
            )
        if meta.rate >= 1.0:
            sampling = dict(
                rate=1.0, zero_variance=True, description=f"{meta.name} (exact)"
            )
        else:
            rate = (
                meta.stored_rows / meta.class_rows
                if meta.class_rows
                else meta.rate
            )
            scale = 1.0 / rate
            sampling = dict(
                rate=rate,
                variance_weights=np.full(
                    table.n_rows, (1.0 - rate) * scale * scale
                ),
                description=f"{meta.name} (rate {rate:.3f})",
            )
        pieces.append(SamplePiece(table=table, query=piece_query, **sampling))
        used_bits.append(meta.bit_index)
    overall_mask = Bitmask(family.n_bits, used_bits)
    for part in family.overall_parts:
        part_query = query.with_table(part.table.name)
        if used_bits:
            part_query = part_query.and_where(BitmaskDisjoint(overall_mask))
        pieces.append(
            SamplePiece(
                table=part.table,
                query=part_query,
                rate=part.rate,
                variance_weights=part.variance_weights(),
                zero_variance=part.zero_variance,
                # An overall part never fully covers a group by itself,
                # so its groups are not reported as exact.
                counts_as_exact=False,
                description=f"{part.table.name} (rate {part.rate:.4f})",
            )
        )
    return pieces

