"""The AQP middleware session.

The paper frames sampling-based AQP systems as "a thin layer of
middleware which re-writes queries to run against sample tables stored as
ordinary relations in a standard, off-the-shelf database server".
:class:`AQPSession` is that layer over this package's engine: SQL text
goes in, approximate (and/or exact) answers come out, and the latest
queries are logged so the observed workload can drive workload-aware
tuning (column trimming, §5.4.2).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.core.answer import ApproxAnswer
from repro.core.combiner import execute_pieces
from repro.core.interfaces import AQPTechnique, PreprocessReport
from repro.engine.cache import get_cache
from repro.engine.database import Database
from repro.engine.deadline import Deadline
from repro.engine.executor import GroupedResult, execute
from repro.engine.expressions import Query
from repro.engine.table import Table
from repro.errors import InternalError, RuntimePhaseError
from repro.obs.profile import QueryProfile
from repro.obs.registry import get_registry
from repro.obs.trace import NULL_SPAN, Span
from repro.sql.formatter import format_table
from repro.sql.parser import parse_query
from repro.workload.spec import Workload, WorkloadConfig, WorkloadQuery

#: Entries the parse memo and the query log keep.  Above the distinct
#: texts a dashboard or a benchmark run asks, so a repeated text still
#: hits; a full parse memo starts over, the log forgets its oldest query.
SESSION_MEMO_CAP = 1024


@dataclass
class SessionResult:
    """Outcome of one middleware query.

    Holds whichever of the approximate/exact answers were requested, with
    wall-clock timings, and renders a side-by-side comparison.
    """

    sql: str
    query: Query
    approx: ApproxAnswer | None = None
    exact: GroupedResult | None = None
    approx_seconds: float = 0.0
    exact_seconds: float = 0.0
    #: Always ``None`` (a class attribute, not a field): the engine skips
    #: no data.  Kept because ``benchmarks/e2e/tracing.py`` reads it.
    skip_report = None
    #: Whether :meth:`to_text` also renders the approximate answer's
    #: rewritten SQL (``sql(..., explain=True)``).
    explained: bool = False
    #: Per-query observability record (:class:`~repro.obs.QueryProfile`)
    #: when the query ran with ``profile=True``; ``None`` otherwise.
    profile: QueryProfile | None = None

    @property
    def speedup(self) -> float | None:
        """Exact time over approximate time (requires mode="both").

        ``None`` when either side did not run, so it serialises as
        ``null`` in strict JSON.
        """
        if self.approx_seconds <= 0 or self.exact_seconds <= 0:
            return None
        return self.exact_seconds / self.approx_seconds

    def to_text(self, max_rows: int = 20, level: float = 0.95) -> str:
        """Human-readable rendering of the result."""
        lines = []
        if self.approx is not None:
            lines.append(
                f"approximate answer ({self.approx.technique}, "
                f"{self.approx.n_groups} groups, "
                f"{self.approx_seconds * 1000:.1f} ms)"
            )
            headers = list(self.approx.group_columns) + [
                f"{name} (est.)" for name in self.approx.aggregate_names
            ] + [f"{level:.0%} CI", "exact?"]
            rows = []
            ordered = sorted(
                self.approx.groups.items(),
                key=lambda item: -item[1][0].value,
            )
            for group, estimates in ordered[:max_rows]:
                first = estimates[0]
                lo, hi = first.confidence_interval(level)
                rows.append(
                    list(group)
                    + [e.value for e in estimates]
                    + [f"[{lo:.1f}, {hi:.1f}]", "yes" if first.exact else ""]
                )
            lines.append(format_table(headers, rows))
        if self.exact is not None:
            lines.append(
                f"exact answer ({self.exact.n_groups} groups, "
                f"{self.exact_seconds * 1000:.1f} ms)"
            )
            if self.exact.rows:
                headers = list(self.exact.group_columns) + list(
                    self.exact.aggregate_names
                )
                ordered = sorted(
                    self.exact.rows.items(), key=lambda item: -item[1][0]
                )
                lines.append(
                    format_table(
                        headers,
                        [
                            list(group) + list(row)
                            for group, row in ordered[:max_rows]
                        ],
                    )
                )
        if self.approx is not None and self.exact is not None:
            speedup = self.speedup
            lines.append(
                "speedup: "
                + (f"{speedup:.1f}x" if speedup is not None else "n/a")
            )
        if (
            self.explained
            and self.approx is not None
            and self.approx.rewritten_sql is not None
        ):
            lines.append("rewritten SQL:")
            lines.append(self.approx.rewritten_sql)
        if self.profile is not None:
            lines.append(self.profile.to_text())
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One published version: the catalog and the samples kept in step with it.

    A query reads one snapshot from start to finish; an append publishes
    the next one with a single assignment.  Compared and hashed by
    identity: each publication is its own version, and a field-wise
    comparison would walk whole sample families (baseline samples are
    plain dicts, which do not hash).
    """

    db: Database
    samples: Any


class AQPSession:
    """SQL-in / answers-out middleware over a database and an AQP technique.

    :meth:`sql` and :meth:`explain` read the published :class:`Snapshot`
    once and answer from it; :meth:`append_rows` publishes the next one
    with one assignment under ``_append_lock``, which no reader takes, so
    queries never wait for appends nor see half of one.  Queries take no
    lock at all: the parse memo is a dict whose misses may race (the
    last store wins, like :meth:`Column.derived
    <repro.engine.column.Column.derived>`), and the query log is a
    bounded deque.  Both hold at most :data:`SESSION_MEMO_CAP` entries
    (plus one per concurrently missing thread).  :meth:`install` is the
    exception: installing a technique while queries are in flight is
    not supported.

    :meth:`close` is idempotent and may race other callers; once closed,
    every query/ingest entry point raises a clean
    ``InternalError("session closed")`` instead of operating on torn
    state (the serving layer's lifecycle management relies on both).
    """

    def __init__(
        self, db: Database, technique: AQPTechnique | None = None
    ) -> None:
        # The live catalog: only :meth:`append_rows` changes it, and
        # readers see it through published snapshots.
        self._db = db
        self.technique = technique
        self.report: PreprocessReport | None = None
        self._snapshot = Snapshot(
            db.snapshot(), None if technique is None else technique.samples
        )
        self._append_lock = threading.Lock()
        self._closed = False
        # The parsed queries, newest last, for observed_workload().
        self._log: deque[Query] = deque(maxlen=SESSION_MEMO_CAP)
        # SQL text -> parsed Query (parse is deterministic, text is frozen).
        self._parse_memo: dict[str, Query] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> Snapshot:
        """The published version a query starting now would read."""
        return self._snapshot

    @property
    def db(self) -> Database:
        """The current snapshot's catalog."""
        return self._snapshot.db

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def _require_open(self) -> None:
        """Reject use after :meth:`close` with a clean error.

        Without this guard a post-close ``sql()`` would die deep in the
        engine with a raw ``AttributeError``.
        """
        if self._closed:
            raise InternalError("session closed")

    def close(self) -> None:
        """Release session-scoped derived state (idempotent).

        Clears the parse memo.  Engine artifacts (predicate masks,
        grouping codes, join positions) are memoised on the columns they
        describe and are released with those columns.

        Safe to call more than once, and from racing threads: a later
        call only clears a memo that is already empty.
        """
        self._closed = True
        self._parse_memo.clear()

    def __enter__(self) -> "AQPSession":
        self._require_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def install(self, technique: AQPTechnique) -> PreprocessReport:
        """Adopt ``technique``, pre-processing it against the database first.

        A technique that already holds its samples — a family read back
        by :func:`repro.storage.load_samples` — is adopted as it is: only
        one without a :attr:`~AQPTechnique.report` is pre-processed.
        """
        self._require_open()
        self.report = technique.report or technique.preprocess(self.db)
        self.technique = technique
        self._snapshot = Snapshot(self.db, technique.samples)
        return self.report

    def require_technique(self) -> AQPTechnique:
        """The installed technique, or an explanatory error."""
        if self.technique is None:
            raise RuntimePhaseError(
                "no AQP technique installed; call session.install(...) first"
            )
        return self.technique

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append_rows(self, name: str, batch: Table) -> Table:
        """Append ``batch`` to table ``name`` and publish the next snapshot.

        When the appended table is the fact table and the installed
        technique supports incremental maintenance
        (``supports_incremental_maintenance()``), the batch first goes
        to the technique's ``insert_rows``, which validates it and
        replaces its samples; then :meth:`Database.append_rows`
        tail-writes it into the live catalog.  Only then does one
        assignment publish the new catalog and samples together.  A
        step that raises publishes nothing: a refused batch changes
        nothing, and a failed table append restores the technique's
        previous samples, so the table and its samples never diverge.

        Under a star schema the technique classifies against the joined
        view, so the batch may (must, for incremental maintenance) carry
        the dimension attributes too; only the stored table's own
        columns are persisted, the full batch goes to ``insert_rows``.
        """
        self._require_open()
        with self._append_lock:
            snapshot = self._snapshot
            stored_names = snapshot.db.table(name).column_names
            to_store = batch
            if set(stored_names) <= set(batch.column_names) and len(
                batch.column_names
            ) > len(stored_names):
                to_store = batch.select(stored_names)
            technique = self.technique
            # A maintained family was built from this catalog's fact table.
            maintained = (
                technique is not None
                and technique.supports_incremental_maintenance()
                and name == snapshot.db.fact_table.name
            )
            samples = snapshot.samples
            if maintained:
                technique.insert_rows(batch)
                samples = technique.samples
            try:
                merged = self._db.append_rows(name, to_store)
            except BaseException:
                if maintained:
                    technique.samples = snapshot.samples
                raise
            self._snapshot = Snapshot(self._db.snapshot(), samples)
        return merged

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def sql(
        self,
        text: str,
        mode: str = "approx",
        explain: bool = False,
        profile: bool = False,
        deadline: Deadline | None = None,
    ) -> SessionResult:
        """Run a SQL aggregation query.

        ``mode`` is ``"approx"`` (default), ``"exact"``, or ``"both"``.
        With ``explain=True`` :meth:`SessionResult.to_text` also renders
        the approximate answer's rewritten SQL (the §4.2.2 UNION ALL
        that was executed).

        With ``profile=True`` the result additionally carries a
        :class:`~repro.obs.QueryProfile` — the span tree of the query's
        lifecycle (parse → plan → per-piece execution → combine) and the
        memo hit/miss delta.
        Profiling is answer-neutral: the estimates are byte-identical
        with it on or off (the engine treats spans as write-only, and
        the determinism sweep in ``tests/test_obs.py`` verifies it end
        to end for every technique).

        ``deadline`` (a :class:`~repro.engine.deadline.Deadline`) bounds
        the request: checkpoints after parse, before planning, before
        each piece, and between modes raise
        :class:`~repro.errors.DeadlineExceeded` once it expires.
        Deadlines never change answers — a request either completes
        byte-identically to an unbounded run or raises.
        """
        self._require_open()
        if mode not in ("approx", "exact", "both"):
            raise RuntimePhaseError(
                f"mode must be approx, exact, or both; got {mode!r}"
            )
        snapshot = self._snapshot
        root = Span("query") if profile else NULL_SPAN
        cache_before = get_cache().metrics.counts() if profile else None
        registry = get_registry()
        registry.incr("session.queries")
        registry.incr(f"session.queries.{mode}")
        with root:
            parse_span = root.child("parse")
            with parse_span:
                query = self._parse(text)
            if deadline is not None:
                deadline.check("parse")
            result = SessionResult(sql=text, query=query, explained=explain)
            if mode in ("approx", "both"):
                technique = self._require_samples(snapshot)
                approx_span = root.child("execute.approx")
                start = time.perf_counter()
                with approx_span:
                    result.approx = self._answer_approx(
                        technique,
                        snapshot.samples,
                        query,
                        span=approx_span,
                        deadline=deadline,
                    )
                result.approx_seconds = time.perf_counter() - start
                registry.observe(
                    "session.approx_seconds", result.approx_seconds
                )
            if mode in ("exact", "both"):
                if deadline is not None:
                    deadline.check("exact execution")
                exact_span = root.child("execute.exact")
                start = time.perf_counter()
                with exact_span:
                    result.exact = execute(snapshot.db, query, span=exact_span)
                result.exact_seconds = time.perf_counter() - start
                registry.observe(
                    "session.exact_seconds", result.exact_seconds
                )
        if profile:
            result.profile = QueryProfile(
                sql=text,
                mode=mode,
                technique=(
                    result.approx.technique
                    if result.approx is not None
                    else None
                ),
                trace=root,
                approx_seconds=(
                    result.approx_seconds
                    if result.approx is not None
                    else None
                ),
                exact_seconds=(
                    result.exact_seconds
                    if result.exact is not None
                    else None
                ),
                speedup=result.speedup,
                rows_scanned=(
                    result.approx.rows_scanned
                    if result.approx is not None
                    else None
                ),
                cache_before=cache_before,
                cache_after=get_cache().metrics.counts(),
            )
        self._log.append(query)
        return result

    def _parse(self, text: str) -> Query:
        """Parse SQL, memoising by exact text (parsing is deterministic).

        A full memo starts over with ``clear()``, which never iterates
        the dict another thread may be storing into.
        """
        metrics = get_cache().metrics
        query = self._parse_memo.get(text)
        if query is not None:
            metrics.record_hit("sql_parse")
            return query
        metrics.record_miss("sql_parse")
        query = parse_query(text)
        if len(self._parse_memo) >= SESSION_MEMO_CAP:
            self._parse_memo.clear()
        self._parse_memo[text] = query
        return query

    def _require_samples(self, snapshot: Snapshot) -> AQPTechnique:
        """The installed technique, if ``snapshot`` has samples to plan on."""
        technique = self.require_technique()
        if snapshot.samples is None:
            raise RuntimePhaseError(
                f"{technique.name}: preprocess() must run before answering "
                "queries"
            )
        return technique

    def _answer_approx(
        self,
        technique: AQPTechnique,
        samples: Any,
        query: Query,
        span: Span = NULL_SPAN,
        deadline: Deadline | None = None,
    ) -> ApproxAnswer:
        """Answer approximately from ``samples``: plan, then run the pieces.

        Sample selection and rewriting run on every query; they cost a
        fraction of the piece scans (``docs/internals.md`` §14).

        ``span`` (when profiling) gains a ``plan`` child timing sample
        selection/rewriting and a ``pieces`` child owning the per-piece
        execution spans.
        """
        with span.child("plan"):
            pieces = technique.plan(samples, query)
        pieces_span = span.child("pieces")
        with pieces_span:
            return execute_pieces(
                pieces,
                technique=technique.name,
                span=pieces_span,
                deadline=deadline,
            )

    def explain(self, text: str) -> str:
        """Describe how the installed technique would answer ``text``.

        Shows the chosen sample tables and the rewritten SQL without
        executing the aggregation.
        """
        snapshot = self._snapshot
        technique = self._require_samples(snapshot)
        pieces = technique.plan(snapshot.samples, parse_query(text))
        from repro.core.rewriter import pieces_to_sql

        lines = [f"technique: {technique.name}", "pieces:"]
        for piece in pieces:
            lines.append(
                f"  - {piece.description or piece.table.name}: "
                f"{piece.table.n_rows} rows, scale {piece.scale:g}"
                f"{', exact' if piece.zero_variance else ''}"
            )
        lines.append("rewritten SQL:")
        lines.append(pieces_to_sql(pieces))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Workload feedback
    # ------------------------------------------------------------------
    def observed_workload(self) -> Workload:
        """The session's last :data:`SESSION_MEMO_CAP` queries as a
        :class:`Workload`.

        Feed this to :func:`repro.core.workload_policy.trim_columns` to
        retune the sample layout to what users actually ask.
        """
        queries = []
        # tuple() copies the deque in one C call, so a query appended
        # meanwhile cannot break the loop below.
        for index, query in enumerate(tuple(self._log)):
            predicates = (
                len(getattr(query.where, "operands", (query.where,)))
                if query.where is not None
                else 0
            )
            queries.append(
                WorkloadQuery(
                    query=query,
                    n_group_columns=len(query.group_by),
                    n_predicates=predicates,
                    subset_fraction=0.0,
                    aggregate=query.aggregates[0].func.value,
                    index=index,
                )
            )
        config = WorkloadConfig(queries_per_combo=max(1, len(queries)))
        return Workload(config=config, queries=tuple(queries))
