"""Small group sampling (Section 4).

The pre-processing phase (:func:`build`) takes a base sampling rate ``r``
and a small group fraction ``t`` and builds, over the (joined) database
of ``N`` rows, one :class:`~repro.core.family.SampleFamily`:

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

At runtime (:func:`repro.core.family.plan`) a query grouping on columns
``C1 … Cg`` is rewritten into a UNION ALL: one unscaled branch per
applicable small group table, each filtered with ``bitmask & m = 0``
against the previously used tables, plus a ``1/r``-scaled branch against
the overall sample filtered against all used tables (Section 4.2.2).
Answers for groups coming from small group tables are exact.  An append
yields the next family (:meth:`~repro.core.family.SampleFamily.with_batch`);
:class:`SmallGroupSampling` holds the one it built as ``samples``, and a
session publishes the versions its appends derive from it.

Variations from Section 4.2.3 are implemented as options:

* ``levels`` — a multi-level hierarchy (e.g. 100% of small groups, 10% of
  medium groups, base rate for the rest);
* ``pair_columns`` — small group tables for selected column *pairs*;
* ``columns`` — an explicit (e.g. workload-trimmed) candidate column set;
* ``max_tables_per_query`` — a runtime cap on the number of small group
  tables consulted per query.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.core.family import (
    ColumnClass,
    OverallPart,
    PairClass,
    SampleFamily,
    SampleTableMeta,
    ValueClass,
    applicable_tables,
    plan as plan_family,
)
from repro.core.interfaces import (
    AQPTechnique,
    PreprocessReport,
    SampleTableInfo,
)
from repro.core.rewriter import SamplePiece
from repro.engine.bitmask import BitmaskVector
from repro.engine.column import ColumnKind
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.engine.reservoir import (
    ReservoirSampler,
    as_generator,
    uniform_sample_indices,
)
from repro.engine.stats import DEFAULT_DISTINCT_THRESHOLD, collect_column_stats
from repro.engine.table import Table
from repro.errors import PreprocessingError, SamplingError
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
    use_reservoir:
        Build the overall sample with streaming reservoir sampling
        (faithful to the paper) or with a direct uniform draw (faster,
        statistically equivalent).
    seed:
        RNG seed.
    """

    base_rate: float = 0.01
    allocation_ratio: float = 0.5
    distinct_threshold: int = DEFAULT_DISTINCT_THRESHOLD
    columns: tuple[str, ...] | None = None
    levels: tuple[tuple[float, float], ...] | None = None
    pair_columns: tuple[tuple[str, str], ...] = ()
    max_tables_per_query: int | None = None
    use_reservoir: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.base_rate <= 1.0:
            raise SamplingError(
                f"base rate must be in (0, 1], got {self.base_rate}"
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


# ----------------------------------------------------------------------
# Pre-processing: two scans build a family
# ----------------------------------------------------------------------
#: ``store(rows, name)``: view rows ``rows`` as a sample table ``name``.
Store = Callable[[np.ndarray, str], Table]
#: ``draw(view, store, rng)``: the overall sample's parts.
OverallDraw = Callable[[Table, Store, np.random.Generator], list[OverallPart]]


def build(
    db: Database,
    config: SmallGroupConfig,
    overall_parts: OverallDraw,
) -> SampleFamily:
    """First scan (:func:`select_strata`), then second: tables, reservoir, bitmasks.

    All RNG draws — which rows each sub-100% table stores, then the
    overall parts — run in metadata order, so the consumed random
    sequence is fixed by the seed.  The row *collection* (gathering each
    table's stored rows out of the view and packing its bitmask) is a
    pure function of those indices.  ``overall_parts`` draws the overall
    sample (:meth:`SmallGroupSampling.build_overall_parts`, which the
    outlier hybrid overrides).
    """
    view = db.joined_view()
    metas, members, classes = select_strata(view, config)
    n_bits = max(1, len(metas))
    member_matrix = (
        np.stack(members, axis=1)
        if members
        else np.zeros((view.n_rows, 0), dtype=bool)
    )

    def store(rows: np.ndarray, name: str) -> Table:
        # A join synopsis: every view column, dimension attributes inline.
        return view.take(rows).rename(name).with_bitmask(
            BitmaskVector.from_membership(member_matrix[rows], n_bits)
        )

    rng = as_generator(config.seed)
    tables = []
    for i, (meta, member) in enumerate(zip(metas, members)):
        class_indices = np.flatnonzero(member)
        if meta.rate >= 1.0:
            stored = class_indices
        else:
            k = max(1, round(meta.rate * class_indices.size))
            stored = class_indices[
                uniform_sample_indices(class_indices.size, k, rng)
            ]
        tables.append(store(stored, meta.name))
        metas[i] = replace(meta, stored_rows=int(stored.size))
    parts = overall_parts(view, store, rng)
    return SampleFamily.of_database(db, config, metas, tables, parts, classes)


def candidate_columns(view: Table, config: SmallGroupConfig) -> list[str]:
    """Columns considered for small group tables.

    The explicit ``columns`` present in the view, else every categorical
    (string) column — numeric measures and key columns are not meaningful
    grouping targets.
    """
    if config.columns is not None:
        return [c for c in config.columns if view.has_column(c)]
    return [
        c for c in view.column_names if view.column(c).kind is ColumnKind.STRING
    ]


def select_strata(
    view: Table, config: SmallGroupConfig
) -> tuple[list[SampleTableMeta], list[np.ndarray], list[ValueClass]]:
    """First scan: frequency counts → per-column value classes.

    For each retained column and each level ``(fraction, rate)``, the
    level's value class is the set of values outside the common prefix
    covering ``1 − fraction`` of rows but inside the next-stricter
    level's prefix.  Rows are classified by their column values, so class
    membership is deterministic — the property the bitmask
    de-duplication relies on.  Returns the metadata table (stored sizes
    still 0), each table's boolean ``(N,)`` class membership, and each
    table's value class.
    """
    candidates = candidate_columns(view, config)
    stats = collect_column_stats(view, candidates, config.distinct_threshold)
    levels = config.effective_levels()
    drafts: list[tuple[str, float, int, ValueClass]] = []
    for column in candidates:
        if column not in stats:
            continue
        previous_common: frozenset | None = None
        for level_index, (fraction, rate) in enumerate(levels):
            common = frozenset(stats[column].common_values(fraction))
            suffix = "" if len(levels) == 1 else f"_L{level_index}"
            value_class = ColumnClass(column, common, previous_common)
            drafts.append((f"sg_{column}{suffix}", rate, level_index, value_class))
            previous_common = common
    for pair in config.pair_columns:
        value_class = _pair_class(view, pair, config.small_fraction)
        drafts.append((f"sg_{pair[0]}__{pair[1]}", 1.0, 0, value_class))
    metas: list[SampleTableMeta] = []
    members: list[np.ndarray] = []
    classes: list[ValueClass] = []
    for name, rate, level, value_class in drafts:
        member = value_class(view)
        class_rows = int(member.sum())
        if class_rows == 0:
            continue
        metas.append(
            SampleTableMeta(
                name=name,
                columns=value_class.columns,
                bit_index=len(metas),
                rate=rate,
                level=level,
                class_rows=class_rows,
                stored_rows=0,
            )
        )
        members.append(member)
        classes.append(value_class)
    return metas, members, classes


def _pair_class(view: Table, pair: tuple[str, str], t: float) -> PairClass:
    """Joint small-group class for a column pair (Section 4.2.3).

    The class of rows whose joint value falls outside the minimal set of
    most-common value pairs covering ``N·(1 − t)`` rows.
    """
    a, b = pair
    if not (view.has_column(a) and view.has_column(b)):
        raise PreprocessingError(f"pair column missing: {pair}")
    col_a, col_b = view.column(a), view.column(b)
    if col_a.kind is not ColumnKind.STRING or col_b.kind is not ColumnKind.STRING:
        raise PreprocessingError("pair small group tables need categoricals")
    radix = int(col_b.data.max(initial=0)) + 1
    joint = col_a.data.astype(np.int64) * radix + col_b.data
    values, counts = np.unique(joint, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    covered = np.cumsum(counts[order])
    target = view.n_rows * (1.0 - t)
    # Minimal prefix of most-common joint values covering >= target.
    n_common = int(np.searchsorted(covered, target - 1e-9)) + 1
    common_pairs = frozenset(
        (col_a.decode(int(values[pos]) // radix),
         col_b.decode(int(values[pos]) % radix))
        for pos in order[:n_common].tolist()
    )
    return PairClass(tuple(pair), common_pairs)


class SmallGroupSampling(AQPTechnique):
    """The paper's small group sampling technique."""

    name = "small_group"
    samples: SampleFamily | None

    def __init__(self, config: SmallGroupConfig | None = None) -> None:
        super().__init__()
        self.config = config or SmallGroupConfig()

    def preprocess(self, db: Database) -> PreprocessReport:
        """Build the family (:func:`build`) and hold it."""
        start = time.perf_counter()
        self.samples = build(db, self.config, self.build_overall_parts)
        elapsed = time.perf_counter() - start
        return self._report(db, elapsed, details=self.preprocess_details())

    def build_overall_parts(
        self, view: Table, store: Store, rng: np.random.Generator
    ) -> list[OverallPart]:
        """Construct the overall sample (hook for the outlier variant).

        The base algorithm draws a single uniform sample of
        ``base_rate · N`` rows: streaming reservoir sampling (faithful to
        the paper) or, without ``use_reservoir``, a direct uniform draw.
        """
        n = view.n_rows
        k = max(1, round(self.config.base_rate * n))
        if self.config.use_reservoir:
            sampler = ReservoirSampler(k, rng)
            sampler.offer_many(range(n))
            indices = sampler.sample()
        else:
            indices = uniform_sample_indices(n, k, rng)
        rate = indices.size / n if n else self.config.base_rate
        return [OverallPart(table=store(indices, "sg_overall"), rate=rate)]

    def sample_tables(self) -> list[SampleTableInfo]:
        """Small group tables, then overall parts."""
        family = self.samples
        infos = [
            SampleTableInfo(table=table, kind="small_group", rate=meta.rate)
            for table, meta in zip(family.tables, family.metas)
        ]
        infos += [
            SampleTableInfo(
                table=part.table,
                kind="outlier" if part.zero_variance else "overall",
                rate=part.rate,
            )
            for part in family.overall_parts
        ]
        return infos

    def preprocess_details(self) -> dict:
        """Metadata-table contents for reports."""
        family = self.samples
        return {
            "small_group_tables": [
                {
                    "name": m.name,
                    "columns": list(m.columns),
                    "bit_index": m.bit_index,
                    "rate": m.rate,
                    "stored_rows": m.stored_rows,
                }
                for m in family.metas
            ],
            "overall_rows": sum(p.table.n_rows for p in family.overall_parts),
            "overall_parts": [
                {
                    "name": p.table.name,
                    "rows": p.table.n_rows,
                    "rate": p.rate,
                    "exact": p.zero_variance,
                }
                for p in family.overall_parts
            ],
        }

    # ------------------------------------------------------------------
    # Runtime phase
    # ------------------------------------------------------------------
    def metadata(self) -> list[SampleTableMeta]:
        """The metadata table: one entry per small group table."""
        self.require_preprocessed()
        return list(self.samples.metas)

    def sample_catalog(self) -> Database:
        """The sample tables as an ordinary database (middleware view)."""
        self.require_preprocessed()
        return Database([info.table for info in self.sample_tables()])

    def applicable_tables(self, query: Query) -> list[int]:
        """Indices into :meth:`metadata` usable for ``query`` (see :func:`applicable_tables`)."""
        return applicable_tables(self.samples, query)

    def plan(
        self, samples: SampleFamily, query: Query, rate: float | None = None
    ) -> list[SamplePiece]:
        """Rewrite ``query`` into small-group pieces + the overall pieces.

        ``rate`` is ignored: the grouping columns decide which small group
        tables join the overall sample, so the per-query space is fixed
        by the sample layout (Section 5.2.3 matches the baselines to it).
        """
        return plan_family(samples, query)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def insert_rows(self, new_rows: Table) -> None:
        """Maintain the samples this technique holds under appended rows.

        Holds :meth:`SampleFamily.with_batch`'s family with one
        assignment: a batch it refuses (:meth:`SampleFamily.check_batch`)
        or one that fails part-way leaves :attr:`samples` as it was.
        A session never calls this: it appends to the family it
        publishes, and leaves the technique's as installed.
        Value-frequency drift can eventually invalidate the common sets;
        :meth:`SampleFamily.maintenance_report` quantifies it so callers
        can decide when to re-run :meth:`preprocess`.
        """
        self.require_preprocessed()
        self.samples = self.samples.with_batch(new_rows)


# Re-exported so middleware users can build the paper's filters directly.
__all__ = [
    "BITMASK_COLUMN",
    "OverallPart",
    "SampleFamily",
    "SampleTableMeta",
    "SmallGroupConfig",
    "SmallGroupSampling",
]
