"""Small group sampling (Section 4).

The pre-processing phase takes a base sampling rate ``r`` and a small
group fraction ``t`` and builds, over the (joined) database of ``N`` rows:

* the **overall sample** — a uniform reservoir sample of ``N·r`` rows;
* a **small group table** per retained column ``C`` holding *all* rows
  whose value on ``C`` falls outside the common-value set ``L(C)`` (the
  minimal set of values covering at least ``N·(1 − t)`` rows) — at most
  ``N·t`` rows by construction;
* a **metadata table** assigning each small group table a bit index; and
* a **bitmask** on every stored sample row recording which small group
  classes the row belongs to, used at runtime to avoid double counting.

The first scan counts value frequencies per column, dropping columns with
more than ``τ`` distinct values (τ = 5000 in the paper); the second scan
populates the small group tables and the reservoir.

At runtime a query grouping on columns ``C1 … Cg`` is rewritten into a
UNION ALL: one unscaled branch per applicable small group table, each
filtered with ``bitmask & m = 0`` against the previously used tables, plus
a ``1/r``-scaled branch against the overall sample filtered against all
used tables (Section 4.2.2).  Answers for groups coming from small group
tables are exact.

Variations from Section 4.2.3 are implemented as options:

* ``levels`` — a multi-level hierarchy (e.g. 100% of small groups, 10% of
  medium groups, base rate for the rest);
* ``pair_columns`` — small group tables for selected column *pairs*;
* ``columns`` — an explicit (e.g. workload-trimmed) candidate column set;
* ``max_tables_per_query`` — a runtime cap on the number of small group
  tables consulted per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.core.architecture import DynamicSampleSelection
from repro.core.interfaces import SampleTableInfo
from repro.core.rewriter import SamplePiece
from repro.engine.bitmask import Bitmask, BitmaskVector
from repro.engine.column import ColumnKind
from repro.engine.database import Database
from repro.engine.expressions import BitmaskDisjoint, Query
from repro.engine.reservoir import (
    ReservoirSampler,
    as_generator,
    reservoir_replacements,
    uniform_sample_indices,
)
from repro.engine.stats import DEFAULT_DISTINCT_THRESHOLD, collect_column_stats
from repro.engine.table import Table
from repro.errors import PreprocessingError, SamplingError
from repro.obs.registry import get_registry
from repro.sql.parser import BITMASK_COLUMN


@dataclass(frozen=True)
class SmallGroupConfig:
    """Tuning parameters for small group sampling.

    Attributes
    ----------
    base_rate:
        The base sampling rate ``r`` (overall sample size as a fraction of
        the database).  The paper's experiments mostly use 1%.
    allocation_ratio:
        The sampling allocation ratio ``γ = t/r``; the analysis in Section
        4.4 recommends 0.5 and finds 0.25–1.0 near-optimal.
    distinct_threshold:
        ``τ`` — columns with more distinct values are dropped from ``S``.
    columns:
        Optional explicit candidate column list (e.g. workload-trimmed);
        ``None`` means every categorical column of the joined view.
    exclude_columns:
        Columns never considered (keys, free text).
    levels:
        Extra sampling levels as ``(fraction, rate)`` pairs beyond the
        default ``((t, 1.0),)``.  Fractions are cumulative coverage
        targets; rates are the per-level sampling rates.  Example for the
        paper's three-level sketch: ``((t, 1.0), (4*t, 0.1))``.
    pair_columns:
        Column pairs to build joint small group tables for.
    max_tables_per_query:
        Runtime cap on the number of small group tables used per query
        (``None`` = use all applicable).
    max_rows_per_query:
        Runtime cap on the total sample rows scanned per query (the
        overall sample plus chosen small group tables).  When the
        applicable tables exceed the remaining budget, they are chosen
        greedily by class coverage per stored row — Section 4.2.3's
        "heuristic for picking a subset of the relevant small group
        tables" driven by an explicit time budget.
    use_reservoir:
        Build the overall sample with streaming reservoir sampling
        (faithful to the paper) or with a direct uniform draw (faster,
        statistically equivalent).
    storage:
        How star-schema sample tables are materialised. ``"inline"``
        stores full join synopses (every dimension attribute inline);
        ``"renormalized"`` applies the paper's §5.2.2 space optimisation:
        sample tables keep only fact columns, plus one *reduced*
        dimension table per original dimension (the union of dimension
        rows any sample references), re-joined at runtime.
    seed:
        RNG seed.
    """

    base_rate: float = 0.01
    allocation_ratio: float = 0.5
    distinct_threshold: int = DEFAULT_DISTINCT_THRESHOLD
    columns: tuple[str, ...] | None = None
    exclude_columns: tuple[str, ...] = ()
    levels: tuple[tuple[float, float], ...] | None = None
    pair_columns: tuple[tuple[str, str], ...] = ()
    max_tables_per_query: int | None = None
    max_rows_per_query: int | None = None
    use_reservoir: bool = True
    storage: str = "inline"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.base_rate <= 1.0:
            raise SamplingError(
                f"base rate must be in (0, 1], got {self.base_rate}"
            )
        if self.storage not in ("inline", "renormalized"):
            raise SamplingError(
                f"storage must be 'inline' or 'renormalized', "
                f"got {self.storage!r}"
            )
        if self.allocation_ratio < 0.0:
            raise SamplingError(
                f"allocation ratio must be >= 0, got {self.allocation_ratio}"
            )
        if self.levels is not None:
            fractions = [f for f, _ in self.levels]
            rates = [r for _, r in self.levels]
            if fractions != sorted(fractions):
                raise SamplingError("level fractions must be increasing")
            if any(not 0.0 < r <= 1.0 for r in rates):
                raise SamplingError("level rates must be in (0, 1]")
            if rates != sorted(rates, reverse=True):
                raise SamplingError("level rates must be decreasing")

    @property
    def small_fraction(self) -> float:
        """The small group fraction ``t = γ · r``."""
        return min(1.0, self.allocation_ratio * self.base_rate)

    def effective_levels(self) -> tuple[tuple[float, float], ...]:
        """The level ladder, defaulting to the single 100% level."""
        if self.levels is not None:
            return self.levels
        return ((self.small_fraction, 1.0),)


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


@dataclass
class _Stratification:
    """Output of the first scan: per-table row-class membership.

    ``classifiers`` re-test class membership for *new* rows (incremental
    maintenance): one callable per table mapping a batch table to a
    boolean membership array.  Class membership is value-determined, so a
    frozen classifier stays correct for already-seen values; unseen values
    are uncommon by definition and classify into the first (100%) level.
    """

    metas: list[SampleTableMeta]
    class_members: list[np.ndarray]  # boolean (N,) per table
    n_rows: int
    classifiers: list = field(default_factory=list)


def _single_column_classifier(
    column: str, common: set, previous_common: set | None
):
    """Membership test for one (column, level) class on a batch of rows.

    A value belongs to the class when it is outside this level's common
    set but inside the next-stricter level's common set (always true for
    level 0).  Unseen values land in level 0.
    """

    def classify(batch: Table) -> np.ndarray:
        col = batch.column(column)
        dictionary = col.dictionary or ()
        in_common = np.asarray([v in common for v in dictionary])
        if previous_common is None:
            in_previous = np.ones(len(dictionary), dtype=bool)
        else:
            in_previous = np.asarray(
                [v in previous_common for v in dictionary]
            )
        member_by_code = ~in_common & in_previous
        if len(dictionary) == 0:
            return np.zeros(batch.n_rows, dtype=bool)
        return member_by_code[col.data]

    return classify


def _pair_classifier(pair: tuple[str, str], common_pairs: set):
    """Membership test for a pair class: the joint value is uncommon."""

    def classify(batch: Table) -> np.ndarray:
        col_a = batch.column(pair[0])
        col_b = batch.column(pair[1])
        out = np.empty(batch.n_rows, dtype=bool)
        for i in range(batch.n_rows):
            out[i] = (col_a[i], col_b[i]) not in common_pairs
        return out

    return classify


@dataclass
class OverallPart:
    """One stratum of the overall sample.

    The basic algorithm has a single uniform part; the outlier-enhanced
    variant (Section 4.2.1's "small group sampling enhanced with outlier
    indexing") replaces it with an exact outlier stratum plus a uniform
    sample of the remainder.
    """

    table: Table
    scale: float
    rate: float
    zero_variance: bool = False

    def variance_weights(self) -> np.ndarray | None:
        """Per-row variance contributions for this part."""
        if self.zero_variance:
            return None
        return np.full(
            self.table.n_rows, (1.0 - self.rate) * self.scale * self.scale
        )


class SmallGroupSampling(DynamicSampleSelection):
    """The paper's small group sampling technique."""

    name = "small_group"

    def __init__(self, config: SmallGroupConfig | None = None) -> None:
        super().__init__()
        self.config = config or SmallGroupConfig()
        self._metas: list[SampleTableMeta] = []
        self._tables: list[Table] = []
        self._table_weights: list[np.ndarray | None] = []
        self._overall_parts: list[OverallPart] = []
        self._n_bits: int = 0
        self._view_rows: int = 0
        self._classifiers: list = []
        #: Completed ``insert_rows`` batches since the last preprocess:
        #: seeds the deterministic per-append maintenance RNG stream.
        self._append_ordinal: int = 0
        self._view_columns: tuple[str, ...] = ()
        self._fact_columns: tuple[str, ...] = ()
        self._foreign_keys: tuple = ()
        self._dimensions: dict[str, Table] = {}
        self._reduced_dims: dict[str, Table] = {}

    # ------------------------------------------------------------------
    # Pre-processing: first scan
    # ------------------------------------------------------------------
    def candidate_columns(self, view: Table) -> list[str]:
        """Columns considered for small group tables.

        Categorical (string) columns only — numeric measures and key
        columns are not meaningful grouping targets — minus exclusions.
        """
        if self.config.columns is not None:
            return [c for c in self.config.columns if view.has_column(c)]
        excluded = set(self.config.exclude_columns)
        return [
            c
            for c in view.column_names
            if c not in excluded
            and view.column(c).kind is ColumnKind.STRING
        ]

    def select_strata(self, db: Database, view: Table) -> _Stratification:
        """First scan: frequency counts → per-column value classes.

        For each retained column and each level ``(fraction, rate)``, the
        level's value class is the set of values outside the common prefix
        covering ``1 − fraction`` of rows but inside the next-stricter
        level's prefix.  Rows are classified by their column values, so
        class membership is deterministic — the property the bitmask
        de-duplication relies on.
        """
        candidates = self.candidate_columns(view)
        stats = collect_column_stats(
            view, candidates, self.config.distinct_threshold
        )
        levels = self.config.effective_levels()
        n = view.n_rows
        metas: list[SampleTableMeta] = []
        members: list[np.ndarray] = []
        classifiers: list = []
        for column in candidates:
            if column not in stats:
                continue
            col_stats = stats[column]
            col = view.column(column)
            previous = np.zeros(n, dtype=bool)
            previous_common: set | None = None
            for level_index, (fraction, rate) in enumerate(levels):
                common = col_stats.common_values(fraction)
                uncommon_codes = [
                    col.code_for(v)
                    for v in col_stats.frequencies
                    if v not in common
                ]
                in_class = np.isin(
                    col.data,
                    np.asarray(sorted(uncommon_codes), dtype=col.data.dtype),
                ) if uncommon_codes else np.zeros(n, dtype=bool)
                level_class = in_class & ~previous
                previous |= in_class
                class_rows = int(level_class.sum())
                if class_rows == 0:
                    previous_common = common
                    continue
                suffix = "" if len(levels) == 1 else f"_L{level_index}"
                metas.append(
                    SampleTableMeta(
                        name=f"sg_{column}{suffix}",
                        columns=(column,),
                        bit_index=len(metas),
                        rate=rate,
                        level=level_index,
                        class_rows=class_rows,
                        stored_rows=0,
                    )
                )
                members.append(level_class)
                classifiers.append(
                    _single_column_classifier(column, common, previous_common)
                )
                previous_common = common
        for pair in self.config.pair_columns:
            member, common_pairs = self._pair_class(view, pair)
            class_rows = int(member.sum())
            if class_rows == 0:
                continue
            metas.append(
                SampleTableMeta(
                    name=f"sg_{pair[0]}__{pair[1]}",
                    columns=tuple(pair),
                    bit_index=len(metas),
                    rate=1.0,
                    level=0,
                    class_rows=class_rows,
                    stored_rows=0,
                )
            )
            members.append(member)
            classifiers.append(_pair_classifier(pair, common_pairs))
        return _Stratification(
            metas=metas,
            class_members=members,
            n_rows=n,
            classifiers=classifiers,
        )

    def _pair_class(
        self, view: Table, pair: tuple[str, str]
    ) -> tuple[np.ndarray, set]:
        """Joint small-group class for a column pair (Section 4.2.3).

        Returns the per-row membership array and the set of *common*
        decoded value pairs (for the incremental-maintenance classifier).
        """
        a, b = pair
        if not (view.has_column(a) and view.has_column(b)):
            raise PreprocessingError(f"pair column missing: {pair}")
        col_a, col_b = view.column(a), view.column(b)
        if (
            col_a.kind is not ColumnKind.STRING
            or col_b.kind is not ColumnKind.STRING
        ):
            raise PreprocessingError("pair small group tables need categoricals")
        n = view.n_rows
        t = self.config.small_fraction
        radix = int(col_b.data.max(initial=0)) + 1
        joint = col_a.data.astype(np.int64) * radix + col_b.data
        values, inverse, counts = np.unique(
            joint, return_inverse=True, return_counts=True
        )
        order = np.argsort(-counts, kind="stable")
        covered = np.cumsum(counts[order])
        target = n * (1.0 - t)
        # Minimal prefix of most-common joint values covering >= target.
        n_common = int(np.searchsorted(covered, target - 1e-9)) + 1
        common_positions = set(order[:n_common].tolist())
        is_common = np.asarray(
            [pos in common_positions for pos in range(len(values))]
        )
        common_pairs = {
            (col_a.decode(int(values[pos]) // radix),
             col_b.decode(int(values[pos]) % radix))
            for pos in common_positions
        }
        return ~is_common[inverse], common_pairs

    # ------------------------------------------------------------------
    # Pre-processing: second scan
    # ------------------------------------------------------------------
    def build_samples(
        self, db: Database, view: Table, strata: _Stratification
    ) -> list[SampleTableInfo]:
        """Second scan: materialise sample tables, reservoir, bitmasks.

        All RNG draws — which rows each sub-100% table stores, and the
        overall reservoir — run in metadata order, so the consumed random
        sequence is fixed by the seed.  The row *collection* (gathering
        each table's stored rows out of the view and packing its bitmask)
        is a pure function of those indices.
        """
        rng = as_generator(self.config.seed)
        n = strata.n_rows
        self._n_bits = max(1, len(strata.metas))
        self._view_rows = n
        self._classifiers = list(strata.classifiers)
        self._append_ordinal = 0
        self._view_columns = tuple(view.column_names)
        self._fact_columns = tuple(db.fact_table.column_names)
        self._foreign_keys = (
            db.star_schema.foreign_keys if db.star_schema else ()
        )
        self._dimensions = {
            fk.dimension_table: db.table(fk.dimension_table)
            for fk in self._foreign_keys
        }
        self._reduced_dims = {}
        member_matrix = (
            np.stack(strata.class_members, axis=1)
            if strata.class_members
            else np.zeros((n, 0), dtype=bool)
        )

        metas: list[SampleTableMeta] = []
        tables: list[Table] = []
        weights: list[np.ndarray | None] = []
        infos: list[SampleTableInfo] = []
        for meta, member in zip(strata.metas, strata.class_members):
            class_indices = np.flatnonzero(member)
            if meta.rate >= 1.0:
                stored = class_indices
            else:
                k = max(1, round(meta.rate * class_indices.size))
                stored = class_indices[
                    uniform_sample_indices(class_indices.size, k, rng)
                ]
            table = self._store_rows(view, stored, meta.name, member_matrix)
            stored_meta = SampleTableMeta(
                name=meta.name,
                columns=meta.columns,
                bit_index=meta.bit_index,
                rate=meta.rate,
                level=meta.level,
                class_rows=meta.class_rows,
                stored_rows=int(stored.size),
            )
            metas.append(stored_meta)
            tables.append(table)
            weights.append(None)
            infos.append(
                SampleTableInfo(table=table, kind="small_group", rate=meta.rate)
            )

        self._metas = metas
        self._tables = tables
        self._table_weights = weights
        self._overall_parts = self.build_overall_parts(
            view, member_matrix, rng
        )
        for part in self._overall_parts:
            infos.append(
                SampleTableInfo(
                    table=part.table,
                    kind="outlier" if part.zero_variance else "overall",
                    rate=part.rate,
                )
            )
        if self.config.storage == "renormalized":
            self._build_reduced_dimensions()
            for dim in self._reduced_dims.values():
                infos.append(
                    SampleTableInfo(table=dim, kind="dimension", rate=1.0)
                )
        return infos

    def _store_rows(
        self,
        view: Table,
        rows: np.ndarray,
        name: str,
        member_matrix: np.ndarray,
    ) -> Table:
        """Materialise a sample table from view row indices.

        Inline storage keeps the full join synopsis; renormalized storage
        keeps only the fact columns (dimension attributes are re-joined
        at runtime through the shared reduced dimension tables).
        """
        table = view.take(rows)
        if self.config.storage == "renormalized":
            table = table.select(list(self._fact_columns))
        return table.rename(name).with_bitmask(
            self._pack_bits(member_matrix, rows)
        )

    def _build_reduced_dimensions(self) -> None:
        """One reduced dimension table per original dimension (§5.2.2).

        The paper first renormalizes each join synopsis into per-sample
        small dimension tables, then merges them into a single smaller
        dimension table per original dimension; we build the merged form
        directly: the union of dimension rows referenced by any sample.
        """
        all_samples = list(self._tables) + [
            p.table for p in self._overall_parts
        ]
        for fk in self._foreign_keys:
            dim = self._dimensions[fk.dimension_table]
            referenced: set[int] = set()
            for sample in all_samples:
                referenced.update(
                    np.unique(
                        sample.column(fk.fact_column).numeric_values()
                    ).tolist()
                )
            keys = dim.column(fk.dimension_key).numeric_values()
            keep = np.isin(
                keys, np.asarray(sorted(referenced), dtype=keys.dtype)
            )
            self._reduced_dims[fk.dimension_table] = dim.filter(keep).rename(
                f"sg_dim_{fk.dimension_table}"
            )

    def _piece_table(self, table: Table, query: Query) -> Table:
        """Resolve a sample table for one query's referenced columns.

        Inline samples already carry every column.  Renormalized samples
        re-join the needed dimension attributes from the reduced
        dimension tables, preserving the bitmask.
        """
        if self.config.storage != "renormalized":
            return table
        needed = query.referenced_columns()
        missing = [c for c in needed if not table.has_column(c)]
        if not missing:
            return table
        from repro.engine.database import gather_dimension_column

        columns = {c: table.column(c) for c in table.column_names}
        remaining = set(missing)
        for fk in self._foreign_keys:
            dim = self._reduced_dims[fk.dimension_table]
            wanted = [c for c in remaining if dim.has_column(c)]
            if not wanted:
                continue
            fact_key_col = table.column(fk.fact_column)
            dim_key_col = dim.column(fk.dimension_key)
            for c in wanted:
                columns[c] = gather_dimension_column(
                    fact_key_col, dim_key_col, dim.column(c), c
                )
                remaining.discard(c)
        if remaining:
            raise PreprocessingError(
                f"columns {sorted(remaining)} not found in sample or "
                "reduced dimensions"
            )
        return Table(table.name, columns, table.bitmask)

    def build_overall_parts(
        self,
        view: Table,
        member_matrix: np.ndarray,
        rng: np.random.Generator,
    ) -> list[OverallPart]:
        """Construct the overall sample (hook for the outlier variant).

        The base algorithm draws a single uniform reservoir sample of
        ``base_rate · N`` rows.
        """
        n = view.n_rows
        overall_indices = self._draw_overall(n, rng)
        overall = self._store_rows(
            view, overall_indices, "sg_overall", member_matrix
        )
        rate = overall_indices.size / n if n else self.config.base_rate
        return [
            OverallPart(table=overall, scale=1.0 / rate, rate=rate)
        ]

    def _draw_overall(self, n: int, rng: np.random.Generator) -> np.ndarray:
        k = max(1, round(self.config.base_rate * n))
        if not self.config.use_reservoir:
            return uniform_sample_indices(n, k, rng)
        sampler = ReservoirSampler(k, rng)
        sampler.offer_many(range(n))
        return sampler.sample()

    def _pack_bits(
        self, member_matrix: np.ndarray, rows: np.ndarray
    ) -> BitmaskVector:
        """Bitmask vector for the stored ``rows`` from class membership."""
        vector = BitmaskVector(rows.size, self._n_bits)
        selected = member_matrix[rows]
        for bit in range(selected.shape[1]):
            vector.set_bit(np.flatnonzero(selected[:, bit]), bit)
        return vector

    def preprocess_details(self) -> dict:
        """Metadata-table contents for reports."""
        return {
            "small_group_tables": [
                {
                    "name": m.name,
                    "columns": list(m.columns),
                    "bit_index": m.bit_index,
                    "rate": m.rate,
                    "stored_rows": m.stored_rows,
                }
                for m in self._metas
            ],
            "overall_rows": sum(p.table.n_rows for p in self._overall_parts),
            "overall_parts": [
                {
                    "name": p.table.name,
                    "rows": p.table.n_rows,
                    "rate": p.rate,
                    "exact": p.zero_variance,
                }
                for p in self._overall_parts
            ],
        }

    # ------------------------------------------------------------------
    # Runtime phase
    # ------------------------------------------------------------------
    def metadata(self) -> list[SampleTableMeta]:
        """The metadata table: one entry per small group table."""
        self.require_preprocessed()
        return list(self._metas)

    def sample_catalog(self) -> Database:
        """The sample tables as an ordinary database (middleware view)."""
        self.require_preprocessed()
        tables = list(self._tables) + [p.table for p in self._overall_parts]
        tables.extend(self._reduced_dims.values())
        return Database(tables)

    def applicable_tables(self, query: Query) -> list[int]:
        """Indices (into the metadata list) of tables usable for ``query``.

        A single-column table applies when its column is in the query's
        GROUP BY list; a pair table applies when both its columns are.
        Two runtime caps (Section 4.2.3's "heuristic for picking a
        subset") may then trim the list:

        * ``max_rows_per_query`` — keep tables greedily by class coverage
          per stored row while the total scan (overall sample included)
          fits the row budget;
        * ``max_tables_per_query`` — keep the smallest tables.
        """
        grouping = set(query.group_by)
        chosen = [
            i
            for i, meta in enumerate(self._metas)
            if set(meta.columns) <= grouping
        ]
        row_budget = self.config.max_rows_per_query
        if row_budget is not None:
            remaining = row_budget - sum(
                p.table.n_rows for p in self._overall_parts
            )
            # Greedy knapsack: prefer high class coverage per stored row,
            # then larger coverage outright.
            order = sorted(
                chosen,
                key=lambda i: (
                    -(
                        self._metas[i].class_rows
                        / max(1, self._metas[i].stored_rows)
                    ),
                    -self._metas[i].class_rows,
                ),
            )
            kept = []
            for i in order:
                cost = self._metas[i].stored_rows
                if cost <= remaining:
                    kept.append(i)
                    remaining -= cost
            chosen = kept
        cap = self.config.max_tables_per_query
        if cap is not None and len(chosen) > cap:
            chosen = sorted(
                chosen, key=lambda i: self._metas[i].stored_rows
            )[:cap]
        chosen.sort(key=lambda i: self._metas[i].bit_index)
        return chosen

    def choose_samples(self, query: Query) -> list[SamplePiece]:
        """Rewrite ``query`` into small-group pieces + the overall pieces."""
        pieces: list[SamplePiece] = []
        used_bits: list[int] = []
        for i in self.applicable_tables(query):
            meta = self._metas[i]
            table = self._piece_table(self._tables[i], query)
            filter_mask = Bitmask(self._n_bits, used_bits)
            piece_query = query.with_table(meta.name)
            if used_bits:
                piece_query = piece_query.and_where(
                    BitmaskDisjoint(filter_mask)
                )
            if meta.rate >= 1.0:
                pieces.append(
                    SamplePiece(
                        table=table,
                        query=piece_query,
                        scale=1.0,
                        zero_variance=True,
                        description=f"{meta.name} (exact)",
                    )
                )
            else:
                actual_rate = (
                    meta.stored_rows / meta.class_rows
                    if meta.class_rows
                    else meta.rate
                )
                scale = 1.0 / actual_rate
                variance_weights = np.full(
                    table.n_rows, (1.0 - actual_rate) * scale * scale
                )
                pieces.append(
                    SamplePiece(
                        table=table,
                        query=piece_query,
                        scale=scale,
                        variance_weights=variance_weights,
                        description=f"{meta.name} (rate {actual_rate:.3f})",
                    )
                )
            used_bits.append(meta.bit_index)
        overall_mask = Bitmask(self._n_bits, used_bits)
        for part in self._overall_parts:
            part_query = query.with_table(part.table.name)
            if used_bits:
                part_query = part_query.and_where(
                    BitmaskDisjoint(overall_mask)
                )
            pieces.append(
                SamplePiece(
                    table=self._piece_table(part.table, query),
                    query=part_query,
                    scale=part.scale,
                    variance_weights=part.variance_weights(),
                    zero_variance=part.zero_variance,
                    # An overall part never fully covers a group by itself,
                    # so its groups are not reported as exact.
                    counts_as_exact=False,
                    description=f"{part.table.name} (rate {part.rate:.4f})",
                )
            )
        return pieces

    def rows_for_query(self, query: Query) -> int:
        """Rows scanned for ``query``: overall + applicable small tables."""
        self.require_preprocessed()
        rows = sum(p.table.n_rows for p in self._overall_parts)
        for i in self.applicable_tables(query):
            rows += self._metas[i].stored_rows
        return rows

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def supports_incremental_maintenance(self) -> bool:
        """Whether :meth:`insert_rows` is available.

        True for the basic algorithm (single uniform overall sample);
        variants that restructure the overall sample (e.g. the outlier
        hybrid) must rebuild instead.
        """
        return (
            len(self._overall_parts) == 1
            and not self._overall_parts[0].zero_variance
        )

    def check_insert_batch(self, new_rows: Table) -> tuple[str, ...]:
        """Validate an :meth:`insert_rows` batch without changing anything.

        Returns the joined-view columns the batch must (and does) carry;
        raises :class:`SamplingError` otherwise.  Callers that also store
        the batch elsewhere (``AQPSession.append_rows``) run this first,
        so a rejected batch leaves base data and samples in step.
        """
        self.require_preprocessed()
        if not self.supports_incremental_maintenance():
            raise SamplingError(
                f"{self.name}: incremental maintenance requires the basic "
                "single-part overall sample; rebuild with preprocess()"
            )
        required = self._view_columns or tuple(
            (self._tables[0] if self._tables else self._overall_parts[0].table)
            .column_names
        )
        missing = [c for c in required if not new_rows.has_column(c)]
        if missing:
            raise SamplingError(
                f"insert batch is missing view columns {missing}"
            )
        return required

    def insert_rows(self, new_rows: Table) -> None:
        """Maintain the samples under appended rows.

        ``new_rows`` must carry the joined-view schema (every column of
        the stored sample tables).  Each new row is

        * appended to the small group tables whose value classes it falls
          into — classes are value-determined, so the frozen common-value
          sets stay correct for seen values, and *unseen* values are
          uncommon by definition and land in the 100% level;
        * offered to the overall reservoir, which keeps its fixed size
          (the classic reservoir discipline), so the overall sampling
          rate is re-derived as ``k / N`` after each batch.

        Value-frequency drift can eventually invalidate the common sets;
        :meth:`maintenance_report` quantifies the drift so callers can
        decide when to re-run :meth:`preprocess`.
        """
        required = self.check_insert_batch(new_rows)
        batch = new_rows.select(list(required))
        stored_columns = (
            list(self._fact_columns)
            if self.config.storage == "renormalized"
            else list(required)
        )
        n_new = batch.n_rows
        if n_new == 0:
            return
        # Deterministic per-append RNG stream: the draws for append #i
        # are a pure function of (seed, i), never of how many queries
        # ran in between, so any interleaving of appends and queries
        # yields samples byte-identical to a fresh session replaying the
        # same appends in order at the same seed.
        rng = as_generator(
            np.random.default_rng(
                [int(self.config.seed), 0x5EED, self._append_ordinal]
            )
        )
        self._append_ordinal += 1

        # Class membership of the new rows across every small group table.
        member_matrix = (
            np.stack([clf(batch) for clf in self._classifiers], axis=1)
            if self._classifiers
            else np.zeros((n_new, 0), dtype=bool)
        )

        # Encode once: the stored columns, coded against the sample tables'
        # dictionaries (every sample table took its dictionaries from the
        # same view), so each extension below concatenates codes as-is;
        # and the bitmask words packed once, so each extension takes its
        # rows' words instead of packing them again.
        reference = self._overall_parts[0].table
        encoded = {}
        for c in stored_columns:
            column = batch.column(c)
            if column.kind is ColumnKind.STRING:
                column = column.encoded_like(reference.column(c))
            encoded[c] = column
        stored_batch = Table(
            batch.name,
            encoded,
            self._pack_bits(member_matrix, np.arange(n_new)),
        )

        # 1. Extend the small group tables.
        for i, meta in enumerate(self._metas):
            member = member_matrix[:, i]
            class_indices = np.flatnonzero(member)
            if class_indices.size == 0:
                continue
            if meta.rate >= 1.0:
                stored = class_indices
            else:
                keep = rng.random(class_indices.size) < meta.rate
                stored = class_indices[keep]
            appended = 0
            if stored.size:
                extension = stored_batch.take(stored).rename(meta.name)
                self._tables[i] = self._tables[i].concat(extension)
                appended = int(stored.size)
            self._metas[i] = replace(
                meta,
                class_rows=meta.class_rows + int(class_indices.size),
                stored_rows=meta.stored_rows + appended,
            )

        # 2. Maintain the overall reservoir at its fixed capacity.
        part = self._overall_parts[0]
        overall = part.table
        k = overall.n_rows
        replacements = reservoir_replacements(k, self._view_rows, n_new, rng)
        total = self._view_rows + n_new
        if replacements:
            get_registry().incr("ingest.reservoir_updates", len(replacements))
            keep_mask = np.ones(k, dtype=bool)
            keep_mask[list(replacements)] = False
            kept = overall.filter(keep_mask)
            incoming = np.asarray(sorted(set(replacements.values())))
            addition = stored_batch.take(incoming).rename(overall.name)
            overall = kept.concat(addition)
        self._view_rows = total
        if self.config.storage == "renormalized":
            self._extend_reduced_dimensions(batch)
        rate = overall.n_rows / total
        self._overall_parts[0] = OverallPart(
            table=overall, scale=1.0 / rate, rate=rate
        )
        self._refresh_infos()
        # The overall scale factor moved with the new row count, so any
        # memoised rewrite plans are stale even when no table changed.
        self.invalidate_plans()

    def _extend_reduced_dimensions(self, batch: Table) -> None:
        """Add newly referenced dimension rows to the reduced dimensions."""
        for fk in self._foreign_keys:
            reduced = self._reduced_dims[fk.dimension_table]
            have = set(
                np.unique(
                    reduced.column(fk.dimension_key).numeric_values()
                ).tolist()
            )
            incoming = set(
                np.unique(
                    batch.column(fk.fact_column).numeric_values()
                ).tolist()
            )
            new_keys = incoming - have
            if not new_keys:
                continue
            source = self._dimensions[fk.dimension_table]
            keys = source.column(fk.dimension_key).numeric_values()
            keep = np.isin(
                keys, np.asarray(sorted(new_keys), dtype=keys.dtype)
            )
            addition = source.filter(keep).rename(reduced.name)
            self._reduced_dims[fk.dimension_table] = reduced.concat(addition)

    def _refresh_infos(self) -> None:
        """Rebuild the sample-table info list after maintenance."""
        infos = [
            SampleTableInfo(table=table, kind="small_group", rate=meta.rate)
            for table, meta in zip(self._tables, self._metas)
        ]
        for part in self._overall_parts:
            infos.append(
                SampleTableInfo(
                    table=part.table,
                    kind="outlier" if part.zero_variance else "overall",
                    rate=part.rate,
                )
            )
        for dim in self._reduced_dims.values():
            infos.append(SampleTableInfo(table=dim, kind="dimension", rate=1.0))
        self._infos = infos

    def maintenance_report(self) -> dict:
        """Quantify drift accumulated through :meth:`insert_rows`.

        Returns per-table class fractions against the configured caps.
        A ``fill_ratio`` well above 1 means value-frequency drift has
        outgrown a small group table and a rebuild is warranted.
        """
        self.require_preprocessed()
        levels = self.config.effective_levels()
        tables = []
        worst = 0.0
        for meta in self._metas:
            cap_fraction = levels[meta.level][0] if meta.level < len(levels) else levels[-1][0]
            fraction = meta.class_rows / max(1, self._view_rows)
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
            "view_rows": self._view_rows,
            "tables": tables,
            "worst_fill_ratio": worst,
            "rebuild_recommended": worst > 1.5,
        }


def small_group_table_name(column: str) -> str:
    """Catalog name of the single-level small group table for ``column``."""
    return f"sg_{column}"


# Re-exported so middleware users can build the paper's filters directly.
__all__ = [
    "BITMASK_COLUMN",
    "SampleTableMeta",
    "SmallGroupConfig",
    "SmallGroupSampling",
    "small_group_table_name",
]
