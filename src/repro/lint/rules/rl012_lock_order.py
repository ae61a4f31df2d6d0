"""RL012 — inconsistent lock acquisition order (potential deadlock).

The engine now holds real locks in real nesting patterns: the execution
cache's ``RLock`` wraps calls into the cache-metrics lock, and the
serving layer nests its read/write lock around session and cache work.  None of that
deadlocks *today* because the acquisition order happens to be
consistent — but nothing enforced it, and a future "just take the cache
lock while holding the registry lock" change would compile, pass every
single-threaded test, and hang production under contention.

This rule computes the whole-program **lock-order graph** from the
dataflow pass: an edge ``A → B`` whenever ``B`` can be acquired while
``A`` is held, including acquisitions buried in calls made inside the
``with A:`` region.  Any cycle is a potential deadlock: two threads
entering the cycle at different points can each hold the lock the other
needs.  Two shapes are reported:

* a **multi-lock cycle** (``A → B → A``) — the classic ABBA deadlock;
* a **self-loop on a non-reentrant lock** (``with lock:`` reaching
  another ``lock.acquire`` / ``with lock:`` of the same plain
  ``threading.Lock``) — single-threaded self-deadlock.

Re-entrant ``RLock`` self-loops are exempt: re-acquiring an ``RLock``
on the same thread is exactly what it is for (the execution cache's
``get`` → ``put`` nesting relies on it).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.lint.core import Finding, Rule, register  # noqa: F401

#: Cycle signatures (sorted "::"-joined lock names) reviewed as safe.
ALLOWLIST: dict[str, str] = {}


@register
class LockOrderCycle(Rule):
    rule_id = "RL012"
    title = "lock-order cycle (potential deadlock)"
    project_wide = True

    def check_project(self, project) -> Iterable[Finding]:
        analysis = project.analysis()
        for cycle in analysis.lock_cycles():
            key = "::".join(sorted({edge.outer for edge in cycle}))
            if key in ALLOWLIST:
                continue
            first = cycle[0]
            info = project.functions.get(first.via)
            if info is None:
                continue
            order = " -> ".join(
                [edge.outer for edge in cycle] + [cycle[0].outer]
            )
            where = "; ".join(
                f"{edge.inner} while holding {edge.outer} "
                f"({edge.path}:{edge.line}"
                + ("" if edge.direct else f", via call in {edge.via.rsplit('.', 1)[-1]}")
                + ")"
                for edge in cycle
            )
            if len({edge.outer for edge in cycle}) == 1:
                message = (
                    f"non-reentrant lock {first.outer} can be re-acquired "
                    f"while already held ({where}); a plain threading.Lock "
                    "self-deadlocks on the same thread — use an RLock or "
                    "restructure so the inner path never re-enters"
                )
            else:
                message = (
                    f"lock-order cycle {order}: {where}; two threads "
                    "entering this cycle from different points can block "
                    "each other forever — pick one global acquisition "
                    "order and release the outer lock before crossing it"
                )
            # Anchor at the outermost acquisition but keep the enclosing
            # function's symbol so the baseline key survives line drift.
            yield Finding(
                rule=self.rule_id,
                path=first.path,
                line=first.line,
                col=0,
                symbol=info.symbol,
                message=message,
            )
