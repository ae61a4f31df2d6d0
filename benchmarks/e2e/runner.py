"""The timed run of one workload against a served subprocess (tracing off).

One call = dataset (built once per checkout) → two server starts
(``setup_s`` is their median; the last one is kept) → untimed append probe
and warm-up → timed phase of ``seconds`` → answer checks, quality panel →
shutdown and hygiene checks.  Every end-to-end metric in
``BENCHMARK.json`` is produced on every workload.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from repro.datagen.tpch import generate_tpch
from repro.engine.database import Database
from repro.storage.io import load_database, save_database

from benchmarks.e2e import checks, loadgen, workloads
from benchmarks.e2e.config import (
    APPEND_PERIOD_S,
    BATCH_ROWS,
    DATASET_SEED,
    FACT_ROWS,
    ROOT,
    SKEW_Z,
    WORK_DIR,
    metric_table,
)
from benchmarks.e2e.oracle import Oracle
from benchmarks.e2e.server_proc import ServerProcess, shm_segments, surviving_children
from benchmarks.e2e.stats import percentile, samples_beyond

SERVER_STARTS = 2
TAIL_PERCENTILE = 90
#: Closed-loop appends sent to the freshly started server on the workloads
#: that do not append while timed, so ``append_p50_ms`` exists (and is gated)
#: everywhere.  Like the quality panel they are a fixed instrument, not part of
#: the seeded workload: the table the queries then run on is the same on every
#: seed, and so are the quality metrics.
PROBE_APPENDS = 8


@dataclass(frozen=True)
class Plan:
    """How one workload drives the server."""

    clients: int
    mode: str
    cycle: bool
    #: keep every ``stride``-th op's answer for an oracle check
    check_stride: int
    #: read the server's peak RSS when this many timed ops have completed
    #: (``None``: at the end).  Memory grows with every *distinct* query, so
    #: a fixed op count keeps the reading independent of how fast the run went.
    rss_after_ops: int | None
    #: distinct queries generated per second of run: several times what the
    #: server completes today, so that a faster server does not exhaust the
    #: list (if it does, the timed phase ends there)
    list_ops_per_second: int = 0


PLANS = {
    "dash_repeat": Plan(clients=2, mode="approx", cycle=True, check_stride=2, rss_after_ops=None),
    "adhoc_approx": Plan(
        clients=2, mode="approx", cycle=False, check_stride=64, rss_after_ops=256,
        list_ops_per_second=150,
    ),
    "exact_scan": Plan(
        clients=1, mode="exact", cycle=False, check_stride=10, rss_after_ops=40,
        list_ops_per_second=40,
    ),
    "ingest_mix": Plan(clients=1, mode="approx", cycle=True, check_stride=3, rss_after_ops=None),
}


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(why)


def ensure_dataset(fact_rows: int = FACT_ROWS) -> Path:
    """Generate and store the fixed database once per checkout."""
    target = WORK_DIR / f"tpch-{fact_rows}-z{SKEW_Z}-s{DATASET_SEED}"
    if (target / "catalog.json").is_file():
        return target
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    staging = target.with_name(f"{target.name}.tmp{os.getpid()}")
    db = generate_tpch(scale=1.0, z=SKEW_Z, rows_per_scale=fact_rows, seed=DATASET_SEED)
    save_database(db, staging)
    try:
        staging.rename(target)
    except OSError:  # another run finished the same build first
        for path in staging.iterdir():
            path.unlink()
        staging.rmdir()
    return target


def environment(fact_rows: int) -> dict:
    """Where and on what the numbers were taken (embedded in every result)."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "dataset": {"fact_rows": fact_rows, "z": SKEW_Z, "seed": DATASET_SEED},
    }


def build_ops(db: Database, workload: str, seed: int, seconds: float) -> dict:
    """Warm-up ops, timed ops and append batches of ``workload`` for ``seed``."""
    plan = PLANS[workload]
    if workload in ("dash_repeat", "ingest_mix"):
        templates = workloads.template_queries(db, seed, plan.mode)
        warm, timed = templates, templates
    else:
        needed = workloads.ADHOC_WARMUP + int(seconds * plan.list_ops_per_second)
        queries = workloads.adhoc_queries(db, seed, needed, plan.mode)
        warm = workloads.column_sweep(db, plan.mode) + queries[: workloads.ADHOC_WARMUP]
        timed = queries[workloads.ADHOC_WARMUP :]
    if workload == "ingest_mix":
        appends = workloads.append_batches(db, seed, math.ceil(seconds / APPEND_PERIOD_S))
    else:
        appends = workloads.append_batches(db, workloads.PANEL_SEED, PROBE_APPENDS)
    return {"warm": warm, "timed": timed, "appends": appends}


def run_timed(workload: str, seed: int, seconds: float, fact_rows: int = FACT_ROWS) -> dict:
    """Run ``workload`` once with tracing off; returns the result record."""
    tally = Tally()
    shm_before = shm_segments()
    dataset = ensure_dataset(fact_rows)

    db = load_database(dataset)
    oracle = Oracle(db)
    ops = build_ops(db, workload, seed, seconds)
    panel = workloads.panel_queries(db)
    starts = []
    for _ in range(SERVER_STARTS - 1):
        with ServerProcess(dataset) as server:
            starts.append(server.start())
    with ServerProcess(dataset) as server:
        starts.append(server.start())
        result = _drive(server, workload, ops, panel, oracle, seconds, tally)

    leaked = shm_segments() - shm_before
    tally.record(not leaked, f"new /dev/shm segments: {sorted(leaked)}")
    children = surviving_children()
    tally.record(not children, f"child processes survived: {children}")
    stray = list(WORK_DIR.glob(f"server-{os.getpid()}-*"))
    tally.record(not stray, f"temp files left: {stray}")

    result["metrics"]["setup_s"] = statistics.median(starts)
    result["samples"]["setup_starts"] = starts
    units = metric_table("end_to_end")
    return {
        "workload": workload,
        "mode": "timed",
        "seed": seed,
        "seconds": seconds,
        "fact_rows": fact_rows,
        "env": environment(fact_rows),
        "correct": tally.failed == 0 and result["valid"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "valid": result["valid"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]["unit"]} for name in units
        },
        "samples": result["samples"],
        "extra": result["extra"],
        "fingerprints": result["fingerprints"],
    }


def _probe_appends(client, batches, oracle, tally) -> list[loadgen.Sample]:
    """Closed-loop appends on the freshly started server, one at a time."""
    samples = []
    for k, op in enumerate(batches):
        start = time.perf_counter()
        body = loadgen.send(client, op)
        latency = time.perf_counter() - start
        oracle.append(op.rows)
        ok = checks.well_formed_append(body, BATCH_ROWS, oracle.n_rows)
        tally.record(ok, f"append probe #{k}")
        samples.append(loadgen.Sample(k, "append", latency, ok))
    return samples


def _drive(server, workload, ops, panel, oracle, seconds, tally) -> dict:
    """Probe or warm-up, timed phase and post-run checks against a ready server."""
    plan = PLANS[workload]
    timed_ops = ops["timed"]
    mixed = workload == "ingest_mix"
    kept: dict[int, dict] = {}
    fingerprints: dict[int, str] = {}
    completed = [0]
    rss_mark: list[float] = []

    def on_query(index: int, body: dict) -> bool:
        if index % plan.check_stride == 0:
            kept[index] = body
        previous = fingerprints.setdefault(index, body.get("fingerprint"))
        # A repeated query on an unchanged table must be byte-identical.
        stable = workload != "dash_repeat" or previous == body.get("fingerprint")
        completed[0] += 1
        if completed[0] == plan.rss_after_ops:
            rss_mark.append(server.peak_rss_mb())
        return checks.well_formed_query(body, plan.mode) and stable

    def on_append(index: int, body: dict) -> bool:
        oracle.append(ops["appends"][index].rows)
        return checks.well_formed_append(body, BATCH_ROWS, oracle.n_rows)

    # -- untimed: append probe, then warm-up ------------------------------
    append_samples: list[loadgen.Sample] = []
    with server.client() as client:
        if not mixed:
            append_samples = _probe_appends(client, ops["appends"], oracle, tally)
        for op in ops["warm"]:
            body = loadgen.send(client, op)
            tally.record(checks.well_formed_query(body, op.mode), f"warm-up: {op.sql!r}")

    # -- timed phase ----------------------------------------------------
    cpu_before = time.process_time()
    if mixed:
        writer = threading.Thread(
            target=lambda: append_samples.extend(
                loadgen.open_loop(server.port, ops["appends"], APPEND_PERIOD_S, on_append)
            )
        )
        writer.start()
        until = lambda: not writer.is_alive()  # noqa: E731
    else:
        stop_at = time.perf_counter() + seconds
        until = lambda: time.perf_counter() >= stop_at  # noqa: E731
    query_samples, wall = loadgen.closed_loop(
        server.port, timed_ops, plan.clients, until, on_query, cycle=plan.cycle
    )
    if mixed:
        writer.join()
    cpu_share = (time.process_time() - cpu_before) / wall
    for sample in query_samples + append_samples * mixed:
        tally.record(sample.ok, f"{sample.kind} #{sample.index}: {sample.error}")
    server.require_alive()
    peak_rss = rss_mark[0] if rss_mark else server.peak_rss_mb()

    counters = server.stats()["registry"]["counters"]
    for name in ("server.errors", "server.rejected_overload"):
        tally.record(not counters.get(name), f"{name} = {counters.get(name)}")

    # -- answers kept from the timed phase, against the oracle ----------
    with server.client() as client:
        for index, body in sorted(kept.items()):
            op = timed_ops[index]
            if mixed:
                # Reads raced the appends, so which rows a kept answer saw is
                # unknown.  Ask again now that the appends have drained: exact
                # answers over base + every batch (no lost or torn append).
                body = client.query(op.sql, mode="exact")
                ok = checks.well_formed_query(body, "exact") and checks.exact_matches_oracle(
                    op, body, oracle
                )
            elif plan.mode == "exact":
                ok = checks.exact_matches_oracle(op, body, oracle)
            else:
                ok = checks.flagged_exact_is_true(op, body, oracle.answer(op.query))
            tally.record(ok, f"answer to timed op #{index} differs from the oracle: {op.sql!r}")

        # -- quality panel ---------------------------------------------
        scored = []
        for op in panel:
            body = loadgen.send(client, op)
            truth = oracle.answer(op.query)
            tally.record(
                checks.well_formed_query(body, "approx")
                and checks.flagged_exact_is_true(op, body, truth),
                f"panel: group flagged exact differs from truth: {op.sql!r}",
            )
            scored.append((truth, checks.approx_groups(body)))
        quality = checks.score_quality(scored)

    query_ms = [s.latency_s * 1e3 for s in query_samples if s.ok]
    append_ms = [s.latency_s * 1e3 for s in append_samples if s.ok]
    lateness_ms = [s.lateness_s * 1e3 for s in append_samples]
    # A load generator that cannot keep its schedule, or is starved of CPU,
    # measures itself: report the run invalid, not slow.  Judged on the median
    # lateness -- one stalled reply makes the next send or two late without
    # the generator falling behind, and with ~20 sends p95 is nearly the max.
    valid = percentile(lateness_ms, 50) <= APPEND_PERIOD_S * 1e3 and cpu_share <= 0.9
    return {
        "valid": valid,
        "metrics": {
            "query_p50_ms": percentile(query_ms, 50),
            "throughput_ops_s": (len(query_ms) + len(append_ms) * mixed) / wall,
            "peak_rss_mb": peak_rss,
            "append_p50_ms": percentile(append_ms, 50),
            **quality,
        },
        "samples": {
            "queries": len(query_ms),
            "appends": len(append_ms),
            "beyond_tail": samples_beyond(len(query_ms), TAIL_PERCENTILE),
            "timed_wall_s": wall,
        },
        "extra": {
            f"query_p{TAIL_PERCENTILE}_ms": percentile(query_ms, TAIL_PERCENTILE),
            "loadgen.lateness_p95_ms": percentile(lateness_ms, 95),
            "loadgen.cpu_share": cpu_share,
            "server.coalesced": counters.get("server.coalesced", 0),
        },
        "fingerprints": {str(index): fp for index, fp in sorted(fingerprints.items())},
    }
