"""Load generation: closed-loop query clients and one open-loop appender.

All clients are threads of the single benchmark process, each with its
own ``ReproClient`` connection.  Nothing here inspects answers beyond
what a check callback asks for; timing wraps exactly the client call.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.client import ReproClient
from repro.errors import ServerError

from benchmarks.e2e.workloads import AppendOp, QueryOp


@dataclass
class Sample:
    """One completed (or failed) operation."""

    index: int  #: position in the op list
    kind: str  #: "query" or "append"
    latency_s: float  #: closed loop: call time; open loop: from the due time
    ok: bool
    lateness_s: float = 0.0  #: open loop only: actual send minus due time
    error: str | None = None


def send(client: ReproClient, op: QueryOp | AppendOp) -> dict:
    """Issue one op through the public client API."""
    if isinstance(op, QueryOp):
        return client.query(op.sql, mode=op.mode)
    return client.append_rows(op.table, op.rows)


def closed_loop(
    port: int,
    ops: Sequence[QueryOp | AppendOp],
    n_clients: int,
    until: Callable[[], bool],
    on_response: Callable[[int, dict], bool],
    cycle: bool = False,
) -> tuple[list[Sample], float]:
    """``n_clients`` threads each send their next op when the last returns.

    Without ``cycle`` ops are claimed from one shared counter, so the
    clients split the list between them and the phase also ends when the
    list is exhausted; with ``cycle`` every client rotates over the whole
    list, client ``i`` starting ``i * len(ops) // n_clients`` positions in.
    ``until()`` is polled before each send.  ``on_response(index, body)``
    runs outside the timed call, one client at a time, and returns
    whether the answer passed its checks.
    Returns the samples and the wall time of the phase.
    """
    counter = itertools.count()
    lock = threading.Lock()
    samples: list[Sample] = []

    def claims(slot: int):
        if cycle:
            offset = slot * len(ops) // n_clients
            for i in itertools.count(offset):
                yield i % len(ops)
        while True:
            with lock:
                k = next(counter)
            if k >= len(ops):
                return
            yield k

    def worker(slot: int) -> None:
        with ReproClient(port=port, timeout=60.0) as client:
            for index in claims(slot):
                if until():
                    return
                op = ops[index]
                start = time.perf_counter()
                try:
                    body = send(client, op)
                except ServerError as error:
                    latency, ok, why = time.perf_counter() - start, False, str(error)
                else:
                    latency = time.perf_counter() - start
                    with lock:
                        ok = on_response(index, body)
                    why = None if ok else "answer check failed"
                with lock:
                    samples.append(Sample(index, op.kind, latency, ok, error=why))

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(n_clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, time.perf_counter() - started


def due_times(start: float, period: float, n: int) -> list[float]:
    """The open-loop schedule: op ``k`` is due at ``start + k * period``."""
    return [start + k * period for k in range(n)]


def open_loop(
    port: int,
    ops: Sequence[AppendOp],
    period: float,
    on_response: Callable[[int, dict], bool],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    sender: Callable[[ReproClient, AppendOp], dict] = send,
) -> list[Sample]:
    """Send ``ops`` on a fixed schedule over one connection.

    Each op is timed from when it was *due*, not from when it left: if
    the previous reply is late the next send is late too, and that wait
    is the server's doing and counts.  ``lateness_s`` records how late
    each send actually started.
    """
    samples = []
    with ReproClient(port=port, timeout=60.0) as client:
        schedule = due_times(clock(), period, len(ops))
        for index, (op, due) in enumerate(zip(ops, schedule)):
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            try:
                body = sender(client, op)
            except ServerError as error:
                samples.append(Sample(index, "append", clock() - due, False, sent - due, str(error)))
                continue
            latency = clock() - due
            ok = on_response(index, body)
            samples.append(
                Sample(index, "append", latency, ok, sent - due, None if ok else "answer check failed")
            )
    return samples
