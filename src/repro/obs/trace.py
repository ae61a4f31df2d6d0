"""Query-lifecycle spans.

A :class:`Span` is one timed segment of a query's lifecycle — parse,
plan, the §4.2.2 rewrite, one piece's execution, the combine — carrying
a monotonic duration (``time.perf_counter`` only, so the tracing layer
is RL003-clean everywhere), a flat dict of numeric/str attributes, and
child spans.  The session creates one root span per profiled query and
threads it down through the combiner and the executor; each layer
attaches children and attributes as it works.

Answer-neutrality contract
--------------------------
Spans are a **write-only** channel for the compute layers: code in
``repro/engine/``, ``repro/core/``, and ``repro/baselines/`` may create
children, time itself, and record attributes, but must never *read* a
span (durations, attributes, children) or branch on one — otherwise
profiling could change answers.  Lint rule RL009 enforces this
statically; the profile-determinism sweep in ``tests/test_obs.py``
enforces it end to end (byte-identical answers with profiling on/off).

When profiling is off the plumbing carries :data:`NULL_SPAN`, a shared
no-op singleton with the same write API, so instrumented code never
branches on "is profiling enabled" — the no-op calls are the branch.

Ownership discipline (instead of locks)
---------------------------------------
Spans are deliberately lock-free.  Creating a child mutates the parent,
so children must be created by the thread that owns the parent.  The
engine is serial, so every span of a query is created on the thread
that runs the query.
"""

from __future__ import annotations

import time
from typing import Any, Iterator


class Span:
    """One timed, attributed segment of a query's lifecycle.

    Use as a context manager to time a block::

        child_span = span.child("combine")
        with child_span:
            ...  # timed work; may call child_span.add(...)

    ``seconds`` stays 0.0 until the ``with`` block exits (re-entering
    restarts the clock; the last exit wins).
    """

    __slots__ = ("name", "seconds", "attrs", "children", "_started")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.attrs: dict[str, Any] = {}
        self.children: list[Span] = []
        self._started = 0.0

    # ------------------------------------------------------------------
    # Write API (the only part compute layers may touch — RL009)
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.seconds = time.perf_counter() - self._started
        return False

    def child(self, name: str) -> "Span":
        """Create and attach a child span (owning-thread only)."""
        span = Span(name)
        self.children.append(span)
        return span

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate a numeric attribute (missing counts start at 0)."""
        self.attrs[name] = self.attrs.get(name, 0) + value

    def annotate(self, **attrs: Any) -> None:
        """Set attributes wholesale (labels, counts, flags)."""
        self.attrs.update(attrs)

    # ------------------------------------------------------------------
    # Read API (profile assembly and presentation layers only — never
    # callable from repro/engine/, repro/core/, or repro/baselines/)
    # ------------------------------------------------------------------
    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> "Span | None":
        """First span (depth-first) with ``name``, or ``None``."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """Nested plain-dict view (JSON-ready after sanitising)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def to_text(self, indent: int = 0) -> str:
        """Indented one-line-per-span rendering."""
        attrs = ", ".join(
            f"{k}={v}" for k, v in sorted(self.attrs.items())
        )
        line = (
            f"{'  ' * indent}{self.name}: {self.seconds * 1000:.2f} ms"
            + (f" ({attrs})" if attrs else "")
        )
        lines = [line]
        for child in self.children:
            lines.append(child.to_text(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, seconds={self.seconds:.6f}, "
            f"children={len(self.children)})"
        )


class _NullSpan(Span):
    """Shared no-op span used when profiling is off.

    Every write is discarded and ``child`` returns the singleton itself,
    so instrumented code runs the same statements either way — the only
    difference is that nothing is recorded.  The singleton is immutable
    and therefore safe to share across threads and queries.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null")

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def child(self, name: str) -> "Span":
        return self

    def add(self, name: str, value: float = 1) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


#: The process-wide no-op span; plumbed wherever profiling is disabled.
NULL_SPAN: Span = _NullSpan()


__all__ = ["NULL_SPAN", "Span"]
