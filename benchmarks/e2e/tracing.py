"""The traced run: per-layer metrics from spans recorded around each layer.

The product is built in this process exactly as ``repro serve`` builds it
(``load_database`` → ``AQPSession`` → ``SmallGroupSampling(base_rate)`` →
``ReproHTTPServer`` on loopback) and a prefix of the workload's op list
is replayed serially through timing shims.

Shims are subclasses and instance wrappers defined here; nothing in
``src/`` is edited or patched.  Where a callee cannot be wrapped without
patching a module (``encode_result``, ``dumps``, ``json.loads``,
``Column.from_values``), it is called again on the same input right after
the request and that call is timed.  Inside ``session.sql`` the spans are
the product's own ``QueryProfile`` tree.

Every op gives one tree rooted at ``client.request``.  A node's self
time is its duration minus its children's; self times sum to the root,
and the gap left by clamping (a re-timed child that overran its parent)
is reported as ``obs.budget_gap_pct``.
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

from repro.client import ReproClient
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.cache import get_cache
from repro.engine.column import Column
from repro.engine.table import Table
from repro.middleware.session import AQPSession
from repro.obs.jsonsafe import dumps
from repro.obs.registry import get_registry
from repro.obs.trace import Span
from repro.server.app import AQPServer
from repro.server.http import ReproHTTPServer
from repro.server.protocol import encode_result
from repro.storage.io import load_database

from benchmarks.e2e import checks, loadgen, workloads
from benchmarks.e2e.config import BASE_RATE, FACT_ROWS, metric_table
from benchmarks.e2e.runner import PLANS, build_ops, ensure_dataset, environment

#: Ops replayed at most (queries also stop at 0.7 x ``seconds``).
PREFIX_OPS = {"dash_repeat": 150, "adhoc_approx": 150, "exact_scan": 60, "ingest_mix": 120}
#: Warm ops sent to both servers in the paired shim-overhead measurement.
OVERHEAD_OPS = 8
BUDGET_TOLERANCE_PCT = 2.0


@dataclass
class Node:
    """One span: a name, a duration, and the spans it caused."""

    name: str
    seconds: float
    children: list["Node"] = field(default_factory=list)

    def self_seconds(self) -> float:
        """Duration not covered by child spans (never negative)."""
        return max(0.0, self.seconds - sum(child.seconds for child in self.children))

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, op_id: int) -> dict:
        return {
            "op": op_id,
            "name": self.name,
            "seconds": self.seconds,
            "self_seconds": self.self_seconds(),
            "children": [child.to_dict(op_id) for child in self.children],
        }


def from_span(span: Span) -> Node:
    """A product ``Span`` tree as :class:`Node`\\ s."""
    return Node(span.name, span.seconds, [from_span(child) for child in span.children])


def total(tree: Node, name: str, prefix: bool = False) -> float:
    """Summed duration of the spans called ``name`` (or starting with it)."""
    return sum(
        node.seconds
        for node in tree.walk()
        if (node.name.startswith(name) if prefix else node.name == name)
    )


def self_time(tree: Node, *names: str) -> float:
    """Summed self time of the spans called any of ``names``."""
    return sum(node.self_seconds() for node in tree.walk() if node.name in names)


# ----------------------------------------------------------------------
# Shims
# ----------------------------------------------------------------------
class TimedSession(AQPSession):
    """Times ``sql`` (always profiled) and ``append_rows``; keeps the last result."""

    last: tuple[float, object] | None = None  #: (seconds, SessionResult or None)

    def sql(self, text, mode="approx", explain=False, profile=False, deadline=None):
        start = time.perf_counter()
        result = super().sql(text, mode=mode, explain=explain, profile=True, deadline=deadline)
        self.last = (time.perf_counter() - start, result)
        return result

    def append_rows(self, name, batch):
        start = time.perf_counter()
        merged = super().append_rows(name, batch)
        self.last = (time.perf_counter() - start, None)
        return merged


class TimedServer(AQPServer):
    """Times ``handle``; keeps the last response body for re-timed encoding."""

    last: tuple[float, dict] | None = None

    def handle(self, request):
        start = time.perf_counter()
        status, body = super().handle(request)
        self.last = (time.perf_counter() - start, body)
        return status, body


@contextmanager
def timed_method(owner: object, name: str, sink: dict[str, float]):
    """Wrap ``owner.name`` on the instance; ``sink[name]`` gets the last duration."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink[name] = time.perf_counter() - start

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        delattr(owner, name)


def timed_call(function, *args, **kwargs) -> tuple[float, object]:
    """``(seconds, value)`` of one call, with the garbage collector held off.

    Used for the calls repeated outside the request.  They allocate a lot
    (whole response bodies), and a full collection landing inside one made
    a 4 ms encode read as 70 ms -- more than the request it belongs to.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        value = function(*args, **kwargs)
        return time.perf_counter() - start, value
    finally:
        if was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    kind: str
    request_s: float
    fingerprint: str | None = None
    tree: Node | None = None
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class Window:
    """Process-wide cache and registry counters before and after some ops."""

    before: dict
    after: dict

    def hit_rate(self, kind: str) -> float:
        hits = self.after["cache"]["hits"].get(kind, 0) - self.before["cache"]["hits"].get(kind, 0)
        misses = (
            self.after["cache"]["misses"].get(kind, 0) - self.before["cache"]["misses"].get(kind, 0)
        )
        return hits / (hits + misses) if hits + misses else 0.0

    def counter(self, name: str) -> float:
        return self.after["counters"].get(name, 0) - self.before["counters"].get(name, 0)

    def invalidations(self) -> int:
        return self.after["cache"]["invalidations"] - self.before["cache"]["invalidations"]


@dataclass
class Pass:
    """One replay: its records, and the counters around its two kinds of op.

    ``probe`` spans the probe appends, ``replay`` the ops after the
    warm-up (where ``ingest_mix`` has its appends).
    """

    records: list[OpRecord]
    probe: Window
    replay: Window


def _counters() -> dict:
    return {
        "cache": get_cache().metrics.snapshot(),
        "counters": get_registry().snapshot()["counters"],
    }


def _query_tree(op, request_s, body, app: TimedServer, session: TimedSession) -> tuple[Node, dict]:
    handle_s, handle_body = app.last
    sql_s, result = session.last
    wire_request = {"sql": op.sql, "mode": op.mode}
    # Twice, keeping the faster: an estimate that overruns its parent span
    # would be clamped and leave the budget short.
    encode_s = min(timed_call(encode_result, result)[0] for _ in range(2))
    dumps_s, payload = timed_call(lambda: dumps(handle_body, sort_keys=True).encode("utf-8"))
    client_dumps_s, request_bytes = timed_call(lambda: dumps(wire_request).encode("utf-8"))
    client_loads_s, _ = timed_call(lambda: json.loads(payload.decode("utf-8")))
    decode_s, _ = timed_call(lambda: json.loads(request_bytes.decode("utf-8")))
    profile = result.profile
    tree = Node("client.request", request_s, [
        Node("client.json", client_dumps_s + client_loads_s),
        Node("http.decode", decode_s),
        Node("protocol.dumps", dumps_s),
        Node("app.handle", handle_s, [
            Node("protocol.encode", encode_s),
            Node("session.sql", sql_s, [from_span(profile.trace)]),
        ]),
    ])
    skip = result.skip_report
    answer = body["answer"][op.mode]
    counts = {
        "http.request_bytes": len(request_bytes),
        "http.response_bytes": len(payload),
        "protocol.groups_per_answer": answer["n_groups"],
        "core.sample_rows_scanned": answer.get("rows_scanned", 0),
        "engine.rows_touched": skip.rows_touched if skip else 0,
        "engine.chunks_scanned": skip.chunks_scanned if skip else 0,
        "engine.chunks_skipped": skip.chunks_skipped if skip else 0,
    }
    return tree, counts


def _append_tree(op, request_s, app: TimedServer, session: TimedSession, inner: dict) -> tuple[Node, dict]:
    handle_s, handle_body = app.last
    append_s, _ = session.last
    wire_request = {"table": op.table, "rows": op.rows}
    client_dumps_s, request_bytes = timed_call(lambda: dumps(wire_request).encode("utf-8"))
    decode_s, decoded = timed_call(lambda: json.loads(request_bytes.decode("utf-8")))
    build_s, _ = timed_call(
        lambda: Table(op.table, {n: Column.from_values(v) for n, v in decoded["rows"].items()})
    )
    dumps_s, payload = timed_call(lambda: dumps(handle_body, sort_keys=True).encode("utf-8"))
    client_loads_s, _ = timed_call(lambda: json.loads(payload.decode("utf-8")))
    tree = Node("client.request", request_s, [
        Node("client.json", client_dumps_s + client_loads_s),
        Node("http.decode", decode_s),
        Node("protocol.dumps", dumps_s),
        Node("app.handle", handle_s, [
            Node("app.batch_build", build_s),
            Node("session.append", append_s, [
                Node("engine.append", inner.get("append_rows", 0.0)),
                Node("core.insert_rows", inner.get("insert_rows", 0.0)),
            ]),
        ]),
    ])
    return tree, {"http.request_bytes": len(request_bytes), "http.response_bytes": len(payload)}


@contextmanager
def serving(db, technique, shimmed: bool):
    """One in-process server on loopback; yields ``(client, app, session)``."""
    session = (TimedSession if shimmed else AQPSession)(db, technique)
    app = (TimedServer if shimmed else AQPServer)(session)
    httpd = ReproHTTPServer(("127.0.0.1", 0), app)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        with ReproClient(port=httpd.server_address[1], timeout=60.0) as client:
            yield client, app, session
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join()
        session.close()


def traced_pass(db, technique, probe, warm, ops, budget_s: float) -> Pass:
    """Send ``probe``, ``warm`` (unrecorded) and ``ops`` one at a time through the shims.

    The order is the timed run's.  Query ops stop once ``budget_s`` has
    gone by; append ops are always sent.
    """
    get_cache().clear()
    records: list[OpRecord] = []
    inner: dict[str, float] = {}
    with ExitStack() as stack:
        client, app, session = stack.enter_context(serving(db, technique, shimmed=True))
        stack.enter_context(timed_method(db, "append_rows", inner))
        stack.enter_context(timed_method(technique, "insert_rows", inner))

        def send_recorded(op) -> None:
            start = time.perf_counter()
            body = loadgen.send(client, op)
            request_s = time.perf_counter() - start
            if isinstance(op, workloads.QueryOp):
                tree, counts = _query_tree(op, request_s, body, app, session)
                ok = checks.well_formed_query(body, op.mode)
            else:
                tree, counts = _append_tree(op, request_s, app, session, inner)
                ok = body.get("ok") is True
            records.append(
                OpRecord(op.kind, request_s, body.get("fingerprint") if ok else None, tree, counts)
            )

        start = _counters()
        for op in probe:
            send_recorded(op)
        probed = _counters()
        for op in warm:
            loadgen.send(client, op)
        warmed = _counters()
        stop_at = time.perf_counter() + budget_s
        for op in ops:
            if isinstance(op, workloads.AppendOp) or time.perf_counter() < stop_at:
                send_recorded(op)
    return Pass(records, Window(start, probed), Window(warmed, _counters()))


def shim_overhead(db, technique, ops, rounds: int = 5) -> tuple[float, int]:
    """Paired cost of the shims: ``(seconds per op, answer mismatches)``.

    Everything the shims add sits inside ``AQPServer.handle``, so a plain
    and a shimmed server are called directly (no sockets) on the same
    warm ops in alternating order, and the cost is the median of the
    paired differences.  Whole-pass A/B over HTTP cannot measure this:
    whichever pass runs first also pays the process's first-touch costs,
    and the transport's stall is quantised in 4 ms ticks -- both far
    larger than the shims.  ``mismatches`` counts ops whose plain and
    shimmed fingerprints differ (the shims must be answer-neutral).
    """
    get_cache().clear()
    plain = AQPServer(AQPSession(db, technique))
    shimmed = TimedServer(TimedSession(db, technique))
    try:
        mismatches = sum(
            plain.handle(op.wire())[1].get("fingerprint")
            != shimmed.handle(op.wire())[1].get("fingerprint")
            for op in ops
        )
        differences = []
        for round_ in range(rounds):
            for k, op in enumerate(ops):
                took = {}
                for app in (plain, shimmed) if (k + round_) % 2 else (shimmed, plain):
                    took[app], _ = timed_call(app.handle, op.wire())
                differences.append(took[shimmed] - took[plain])
        return statistics.median(differences), mismatches
    finally:
        plain.session.close()
        shimmed.session.close()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def budget_gap_pct(trees: list[Node]) -> float:
    """How far the self times of ``trees`` are from summing to their roots, in %."""
    roots = sum(tree.seconds for tree in trees)
    selfs = sum(node.self_seconds() for tree in trees for node in tree.walk())
    return abs(selfs - roots) / roots * 100.0 if roots else 0.0


def layer_metrics(queries: list[OpRecord], appends: list[OpRecord]) -> dict[str, float]:
    """Per-layer means (ms per op, counts per op) from shimmed records."""
    q = [record.tree for record in queries]
    a = [record.tree for record in appends]

    def q_ms(function) -> float:
        return _mean(function(tree) for tree in q) * 1e3

    def a_ms(name: str) -> float:
        return _mean(total(tree, name) for tree in a) * 1e3

    # Query ops: the *_ms below other than the totals (request, handle, sql,
    # pieces) partition client.request_ms -- see README "Latency budget".
    metrics = {
        "client.request_ms": q_ms(lambda t: t.seconds),
        "client.json_ms": q_ms(lambda t: total(t, "client.json")),
        "http.transport_ms": q_ms(lambda t: t.self_seconds()),
        "http.decode_ms": q_ms(lambda t: total(t, "http.decode")),
        "app.handle_ms": q_ms(lambda t: total(t, "app.handle")),
        "app.self_ms": q_ms(lambda t: self_time(t, "app.handle")),
        "protocol.encode_ms": q_ms(lambda t: total(t, "protocol.encode")),
        "protocol.dumps_ms": q_ms(lambda t: total(t, "protocol.dumps")),
        "session.sql_ms": q_ms(lambda t: total(t, "session.sql")),
        "session.self_ms": q_ms(lambda t: self_time(t, "session.sql", "query", "execute.approx")),
        "sql.parse_ms": q_ms(lambda t: total(t, "parse")),
        "core.plan_ms": q_ms(lambda t: total(t, "plan")),
        "core.pieces_ms": q_ms(lambda t: total(t, "pieces")),
        "core.combine_ms": q_ms(lambda t: total(t, "pieces") - total(t, "piece:", prefix=True)),
        "engine.exact_ms": q_ms(lambda t: total(t, "execute.exact")),
        "engine.piece_scan_ms": q_ms(lambda t: total(t, "piece:", prefix=True)),
        # Append ops.
        "client.append_ms": _mean(tree.seconds for tree in a) * 1e3,
        "client.append_json_ms": a_ms("client.json"),
        "http.append_transport_ms": _mean(tree.self_seconds() for tree in a) * 1e3,
        "http.append_decode_ms": a_ms("http.decode"),
        "app.batch_build_ms": a_ms("app.batch_build"),
        "session.append_ms": a_ms("session.append"),
        "core.insert_rows_ms": a_ms("core.insert_rows"),
        "engine.append_ms": a_ms("engine.append"),
        "obs.budget_gap_pct": budget_gap_pct(q + a),
    }
    for name in (
        "http.request_bytes", "http.response_bytes", "protocol.groups_per_answer",
        "core.sample_rows_scanned", "engine.rows_touched", "engine.chunks_scanned",
        "engine.chunks_skipped",
    ):
        metrics[name] = _mean(record.counts[name] for record in queries)
    return metrics


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def run_traced(workload: str, seed: int, seconds: float, fact_rows: int = FACT_ROWS) -> dict:
    """Replay a prefix of ``workload`` through the shims; per-layer metrics."""
    plan = PLANS[workload]
    dataset = ensure_dataset(fact_rows)
    load_s, db = timed_call(load_database, dataset)
    technique = SmallGroupSampling(SmallGroupConfig(base_rate=BASE_RATE))
    with AQPSession(db) as installer:
        preprocess_s, report = timed_call(installer.install, technique)

    ops = build_ops(db, workload, seed, seconds)
    prefix = PREFIX_OPS[workload]
    if workload == "ingest_mix":
        # Serial stand-in for the concurrent mix: one append, then two reads.
        reads = ops["timed"]
        main = []
        for k, batch in enumerate(ops["appends"]):
            main += [batch, reads[2 * k % len(reads)], reads[(2 * k + 1) % len(reads)]]
        probe = []
    else:
        cycle = ops["timed"] * (prefix // len(ops["timed"]) + 1) if plan.cycle else ops["timed"]
        main, probe = cycle, ops["appends"]
    main = main[:prefix]

    paired_ops = ops["warm"][-OVERHEAD_OPS:]
    overhead_s, mismatches = shim_overhead(db, technique, paired_ops)
    traced = traced_pass(db, technique, probe, ops["warm"], main, budget_s=seconds * 0.7)

    failures = []
    if mismatches:
        failures.append(f"{mismatches} answers differ between the plain and the shimmed server")
    queries = [record for record in traced.records if record.kind == "query"]
    appends = [record for record in traced.records if record.kind == "append"]
    failures += [
        f"op #{index}: malformed answer in the traced replay"
        for index, record in enumerate(queries)
        if record.fingerprint is None
    ]
    metrics = layer_metrics(queries, appends)
    appending = traced.replay if workload == "ingest_mix" else traced.probe
    metrics.update({
        "session.parse_memo_hit_rate": traced.replay.hit_rate("sql_parse"),
        "session.plan_memo_hit_rate": traced.replay.hit_rate("plan"),
        "engine.predicate_mask_hit_rate": traced.replay.hit_rate("predicate_mask"),
        "engine.group_ids_hit_rate": traced.replay.hit_rate("group_ids"),
        "engine.joined_column_hit_rate": traced.replay.hit_rate("joined_column"),
        "engine.sketch_hits": traced.replay.counter("selection.sketch_hits") / len(queries),
        "core.pieces_executed": traced.replay.counter("combiner.pieces_executed") / len(queries),
        "core.pieces_pruned": traced.replay.counter("combiner.pieces_pruned") / len(queries),
        "engine.cache_invalidations": appending.invalidations() / len(appends),
        "engine.ingest_rows_recomputed": appending.counter("ingest.rows_recomputed") / len(appends),
        "engine.ingest_chunks_extended": appending.counter("ingest.chunks_extended") / len(appends),
        "core.preprocess_s": preprocess_s,
        "core.sample_rows_ratio": report.sample_rows / report.database_rows,
        "storage.load_s": load_s,
        # The shims' absolute cost per op, against this workload's mean request.
        "obs.trace_overhead_pct": overhead_s / (metrics["client.request_ms"] / 1e3) * 100.0,
    })
    if metrics["obs.budget_gap_pct"] > BUDGET_TOLERANCE_PCT:
        failures.append(
            f"self times miss client.request by {metrics['obs.budget_gap_pct']:.2f}% "
            f"(> {BUDGET_TOLERANCE_PCT}%)"
        )
    units = metric_table("per_layer")
    return {
        "workload": workload,
        "mode": "traced",
        "seed": seed,
        "seconds": seconds,
        "fact_rows": fact_rows,
        "env": environment(fact_rows),
        "correct": not failures,
        "attempted": len(traced.records) + 2 * len(paired_ops),
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": {name: {"value": metrics[name], "unit": units[name]["unit"]} for name in units},
        "samples": {"queries": len(queries), "appends": len(appends)},
        "fingerprints": {
            str(index): record.fingerprint
            for index, record in enumerate(queries)
        },
        "spans": [record.tree.to_dict(index) for index, record in enumerate(traced.records)],
    }
