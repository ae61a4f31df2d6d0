"""The AQP middleware session.

The paper frames sampling-based AQP systems as "a thin layer of
middleware which re-writes queries to run against sample tables stored as
ordinary relations in a standard, off-the-shelf database server".
:class:`AQPSession` is that layer over this package's engine: SQL text
goes in, approximate (and/or exact) answers come out, and every query is
logged so the observed workload can drive workload-aware tuning
(column trimming, §5.4.2).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.answer import ApproxAnswer
from repro.core.combiner import execute_pieces
from repro.core.interfaces import AQPTechnique, PreprocessReport
from repro.engine.cache import SingleFlight, get_cache
from repro.engine.database import Database
from repro.engine.deadline import Deadline
from repro.engine.executor import GroupedResult, execute
from repro.engine.expressions import Query
from repro.engine.table import Table
from repro.errors import InternalError, RuntimePhaseError, SchemaError
from repro.experiments.reporting import format_table
from repro.obs.profile import QueryProfile
from repro.obs.registry import get_registry
from repro.obs.trace import NULL_SPAN, Span
from repro.sql.parser import parse_query
from repro.workload.spec import Workload, WorkloadConfig, WorkloadQuery


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
    def speedup(self) -> float:
        """Exact time over approximate time (requires mode="both").

        NaN when either side did not run (kept NaN — not ``None`` — for
        backward compatibility; presentation layers must render via
        :attr:`speedup_or_none` so the NaN never leaks into text or,
        worse, a strict-JSON report).
        """
        if self.approx_seconds <= 0 or self.exact_seconds <= 0:
            return float("nan")
        return self.exact_seconds / self.approx_seconds

    @property
    def speedup_or_none(self) -> float | None:
        """:attr:`speedup` as a finite float, or ``None``.

        This is the JSON-safe view: ``None`` serialises as ``null``
        where NaN would produce invalid strict JSON.
        """
        value = self.speedup
        return value if value == value else None

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
            speedup = self.speedup_or_none
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


@dataclass
class _LogEntry:
    sql: str
    query: Query
    mode: str
    seconds: float


class AQPSession:
    """SQL-in / answers-out middleware over a database and an AQP technique.

    Safe for concurrent :meth:`sql` / :meth:`execute` callers: the query
    log and the parse/plan memos take the session lock, and the engine
    layers underneath (per-column memos, metrics registry) are thread-safe.
    The lock is never held across parsing, rewriting, or execution —
    concurrent misses on the same memo key are **single-flighted** (one
    caller parses/plans, the concurrent duplicates wait and share the
    result) rather than either serialising the session or stampeding N
    identical computations.  :meth:`install` is the exception:
    installing a technique while queries are in flight is not supported.

    :meth:`close` is idempotent and may race other callers; once closed,
    every query/ingest entry point raises a clean
    ``InternalError("session closed")`` instead of operating on torn
    state (the serving layer's lifecycle management relies on both).
    """

    def __init__(
        self, db: Database, technique: AQPTechnique | None = None
    ) -> None:
        self.db = db
        self.technique = technique
        self.report: PreprocessReport | None = None
        self._lock = threading.Lock()
        self._closed = False
        self._log: list[_LogEntry] = []
        # SQL text -> parsed Query (parse is deterministic, text is frozen).
        self._parse_memo: dict[str, Query] = {}
        # Query -> (technique, plan_version, pieces): the rewrite plan for
        # structurally identical queries, revalidated per lookup.
        self._plan_memo: dict[Query, tuple[AQPTechnique, int, list]] = {}
        # Cold parse/plan misses coalesce here instead of stampeding.
        self._flight = SingleFlight()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
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

        Clears the parse/plan memos.  Engine artifacts (predicate masks,
        grouping codes, join positions) are memoised on the columns they
        describe and are released with those columns.

        Safe to call more than once — including the implicit second call
        of ``with session: ... finally session.close()`` patterns: only
        the first caller releases anything, later calls (and concurrent
        racers) return immediately.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._parse_memo.clear()
            self._plan_memo.clear()

    def __enter__(self) -> "AQPSession":
        self._require_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def install(self, technique: AQPTechnique) -> PreprocessReport:
        """Pre-process ``technique`` against the database and adopt it."""
        self._require_open()
        self.report = technique.preprocess(self.db)
        self.technique = technique
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
        """Append ``batch`` to table ``name``, maintaining derived state.

        Routes through :meth:`Database.append_rows`, which tail-writes the
        batch and publishes new columns with empty memos (predicate
        masks, grouping codes, join positions); the next read rebuilds
        what it needs.  When the appended table is the fact table and the
        installed technique advertises incremental maintenance
        (``supports_incremental_maintenance()``), the batch is also fed
        to the technique's ``insert_rows`` so its samples keep tracking
        the base data without a rebuild.  Memoised rewrite plans
        revalidate against the technique's plan version on the next
        lookup, so no memo clearing is needed here.

        Under a star schema the technique classifies against the joined
        view, so the batch may (must, for incremental maintenance) carry
        the dimension attributes too; only the stored table's own
        columns are persisted, the full batch goes to ``insert_rows``.
        The technique validates the batch (``check_insert_batch``)
        before anything is stored, so a refused append changes nothing.
        """
        self._require_open()
        stored_names = self.db.table(name).column_names
        to_store = batch
        if set(stored_names) <= set(batch.column_names) and len(
            batch.column_names
        ) > len(stored_names):
            to_store = batch.select(stored_names)
        technique = self.technique
        maintained = False
        if technique is not None:
            try:
                is_fact = name == self.db.fact_table.name
            except SchemaError:
                is_fact = False
            supports = getattr(
                technique, "supports_incremental_maintenance", None
            )
            maintained = is_fact and callable(supports) and supports()
        if maintained:
            # Reject a batch the technique cannot absorb *before* storing
            # it: a failed append must leave base data and samples in step.
            technique.check_insert_batch(batch)
        merged = self.db.append_rows(name, to_store)
        if maintained:
            technique.insert_rows(batch)
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
        with it on or off (the engine treats spans as write-only — lint
        rule RL009 — and the determinism sweep test verifies it
        end to end).

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
                technique = self.require_technique()
                approx_span = root.child("execute.approx")
                start = time.perf_counter()
                with approx_span:
                    result.approx = self._answer_approx(
                        technique, query, span=approx_span, deadline=deadline
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
                    result.exact = execute(self.db, query, span=exact_span)
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
                speedup=result.speedup_or_none,
                rows_scanned=(
                    result.approx.rows_scanned
                    if result.approx is not None
                    else None
                ),
                cache_before=cache_before,
                cache_after=get_cache().metrics.counts(),
            )
        with self._lock:
            self._log.append(
                _LogEntry(
                    sql=text,
                    query=query,
                    mode=mode,
                    seconds=result.approx_seconds or result.exact_seconds,
                )
            )
        return result

    def _parse(self, text: str) -> Query:
        """Parse SQL, memoising by exact text (parsing is deterministic).

        Cold misses on the same text are single-flighted: one thread
        parses, concurrent duplicates wait and share the memo entry
        (counted as ``coalesced``) instead of each re-parsing.
        """
        metrics = get_cache().metrics
        with self._lock:
            query = self._parse_memo.get(text)
        if query is not None:
            metrics.record_hit("sql_parse")
            return query

        def _parse_and_memoise() -> Query:
            metrics.record_miss("sql_parse")
            parsed = parse_query(text)
            with self._lock:
                self._parse_memo[text] = parsed
            return parsed

        query, leader = self._flight.do(("parse", text), _parse_and_memoise)
        if not leader:
            metrics.record_coalesced("sql_parse")
        return query

    def _answer_approx(
        self,
        technique: AQPTechnique,
        query: Query,
        span: Span = NULL_SPAN,
        deadline: Deadline | None = None,
    ) -> ApproxAnswer:
        """Answer approximately, memoising the technique's rewrite plan.

        Techniques exposing ``choose_samples`` (the dynamic-selection
        family) get a per-query plan memo keyed by the parsed
        :class:`Query` — so structurally identical SQL skips sample
        selection and rewriting — validated against the technique's
        ``plan_version`` (bumped by preprocess and incremental inserts).
        Cold plan misses on the same query are single-flighted: one
        thread runs sample selection, concurrent duplicates wait and
        share the memoised pieces.

        ``span`` (when profiling) gains a ``plan`` child timing sample
        selection/rewriting and a ``pieces`` child owning the per-piece
        execution spans.
        """
        chooser = getattr(technique, "choose_samples", None)
        version = getattr(technique, "plan_version", None)
        if chooser is None or version is None:
            return technique.answer(query)
        metrics = get_cache().metrics

        def _memo_lookup():
            with self._lock:
                entry = self._plan_memo.get(query)
            if (
                entry is not None
                and entry[0] is technique
                and entry[1] == version
            ):
                return entry[2]
            return None

        try:
            pieces = _memo_lookup()
        except TypeError:  # unhashable literal somewhere in the query
            return technique.answer(query)
        plan_span = span.child("plan")
        with plan_span:
            if pieces is not None:
                metrics.record_hit("plan")
                plan_span.annotate(memo_hit=True)
            else:
                def _plan_and_memoise():
                    # Re-check inside the flight: a coalesced waiter that
                    # lost the leadership race re-enters here after the
                    # first leader already filled the memo.
                    memoised = _memo_lookup()
                    if memoised is not None:
                        return memoised
                    metrics.record_miss("plan")
                    technique.require_preprocessed()
                    chosen = chooser(query)
                    with self._lock:
                        self._plan_memo[query] = (technique, version, chosen)
                    return chosen

                pieces, leader = self._flight.do(
                    ("plan", query, id(technique), version),
                    _plan_and_memoise,
                )
                plan_span.annotate(memo_hit=False)
                if not leader:
                    metrics.record_coalesced("plan")
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
        technique = self.require_technique()
        query = parse_query(text)
        chooser = getattr(technique, "choose_samples", None)
        if chooser is None:
            return (
                f"technique {technique.name!r} does not expose a rewrite "
                "plan; it would scan "
                f"{technique.rows_for_query(query)} sample rows"
            )
        pieces = chooser(query)
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
    @property
    def query_count(self) -> int:
        """Number of queries issued through the session."""
        return len(self._log)

    def observed_workload(self) -> Workload:
        """The session's query log as a :class:`Workload`.

        Feed this to :func:`repro.core.workload_policy.trim_columns` to
        retune the sample layout to what users actually ask.
        """
        queries = []
        for index, entry in enumerate(self._log):
            query = entry.query
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
