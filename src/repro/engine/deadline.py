"""Per-request deadlines threaded through query execution.

The serving layer (``repro.server``) admits each request with an
optional deadline — the BlinkDB-style ``WITHIN t SECONDS`` contract at
the transport level.  A :class:`Deadline` is a small immutable expiry
anchored on the monotonic clock; the session and the piece combiner call
:meth:`Deadline.check` at well-defined points (after parse, before
planning, before each piece, before the combine), so an expired request
stops starting new work instead of running to completion and discarding
the answer.

Deadlines are answer-neutral by construction: a checkpoint either passes
or raises :class:`~repro.errors.DeadlineExceeded` — there is no partial
answer, so the byte-identical determinism guarantees are untouched.
Checks happen at piece/stage granularity: a piece already being
aggregated is never interrupted mid-kernel (numpy calls are not
preemptible anyway).

``time.perf_counter`` is the clock: monotonic, and explicitly exempt
from lint rule RL003 because elapsed time here is *control flow about
how long to keep working*, never an input to any estimate.
"""

from __future__ import annotations

import time

from repro.errors import DeadlineExceeded, QueryError


class Deadline:
    """One request's expiry on the monotonic clock.

    Immutable after construction; safe to share across the threads
    executing one request (reads of a float are atomic).
    """

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: float) -> None:
        seconds = float(seconds)
        if not seconds > 0:  # also rejects NaN
            raise QueryError(
                f"deadline seconds must be > 0, got {seconds!r}"
            )
        self.seconds = seconds
        self._expires_at = time.perf_counter() + seconds

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self._expires_at - time.perf_counter()

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self.remaining() <= 0.0

    def check(self, stage: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired():
            where = f" during {stage}" if stage else ""
            raise DeadlineExceeded(
                f"deadline of {self.seconds:g}s exceeded{where}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(seconds={self.seconds:g}, "
            f"remaining={self.remaining():.3f})"
        )


__all__ = ["Deadline"]
