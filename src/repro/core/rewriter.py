"""Runtime query rewriting against sample tables.

A technique's runtime phase turns one incoming query into a list of
:class:`SamplePiece` objects — one per sample table it touches.  Each
piece carries the rewritten query (original predicate plus any bitmask
de-duplication filter), its table's sampling rate (from which the
aggregates' scale factor is derived) or per-row weights, and the
per-row variance contributions.  The paper's Section
4.2.2 UNION ALL is exactly this list rendered as SQL, which
:func:`pieces_to_sql` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.table import Table
from repro.engine.expressions import Query
from repro.errors import InternalError
from repro.sql.formatter import format_query


@dataclass
class SamplePiece:
    """One branch of a rewritten query.

    Attributes
    ----------
    table:
        Sample table to scan.
    query:
        Rewritten query (WHERE includes any bitmask filter) targeting
        ``table``'s name.
    rate:
        Sampling rate ``r`` of ``table`` (``1.0`` for a 100%-sampled
        small group table or stratum); ``None`` when ``weights`` carry
        the scaling instead.  Exactly one of ``rate`` and ``weights`` is
        given.
    weights:
        Optional per-row weights for non-uniform sample tables.
    variance_weights:
        Per-row variance contribution (see
        :func:`repro.engine.executor.aggregate_table`); ``None`` for
        zero-variance pieces.
    zero_variance:
        Whether this piece's contributions carry no sampling variance
        (100%-sampled stratum: requires ``rate == 1.0``).
    counts_as_exact:
        Whether groups answered solely from this piece may be reported as
        exact.  Defaults to ``zero_variance``.  Small group tables cover
        their groups *completely*, so they count; an outlier stratum is
        100%-sampled but covers only the outlier rows of a group, so it
        does not (set this to ``False``).
    description:
        Human-readable label for reports.

    Raises
    ------
    InternalError
        On construction, unless exactly one of ``rate``/``weights`` is
        given, ``0 < rate <= 1``, and a ``zero_variance`` piece has
        ``rate == 1.0``: the §4.2.2 scale discipline (``1/r`` on a
        sampled branch, exactly 1 on a 100%-sampled one) cannot be
        stated wrongly, because :attr:`scale` is derived from ``rate``.
    """

    table: Table
    query: Query
    rate: float | None = None
    weights: np.ndarray | None = None
    variance_weights: np.ndarray | None = None
    zero_variance: bool = False
    counts_as_exact: bool | None = None
    description: str = ""

    def __post_init__(self) -> None:
        require_scale_discipline(self.rate, self.weights, self.zero_variance)

    @property
    def scale(self) -> float:
        """Aggregate scale factor: ``1/rate``, or 1 under per-row weights."""
        return 1.0 if self.rate is None else 1.0 / self.rate

    @property
    def marks_exact(self) -> bool:
        """Whether groups from this piece alone may be marked exact."""
        if self.counts_as_exact is None:
            return self.zero_variance
        return self.counts_as_exact


def require_scale_discipline(
    rate: float | None, weights: np.ndarray | None, zero_variance: bool
) -> None:
    """Raise :class:`InternalError` unless a piece's scaling is consistent."""
    if (rate is None) == (weights is None):
        raise InternalError(
            "a sample piece needs exactly one of rate and weights"
        )
    if rate is not None and not 0.0 < rate <= 1.0:
        raise InternalError(f"sampling rate {rate!r} is outside (0, 1]")
    if zero_variance and rate != 1.0:
        raise InternalError(
            "a zero-variance piece must be 100%-sampled (rate 1.0, no weights)"
        )


def pieces_to_sql(pieces: list[SamplePiece]) -> str:
    """Render the rewritten query as the paper's UNION ALL SQL text."""
    return "\nUNION ALL\n".join(
        format_query(piece.query, scale=piece.scale) for piece in pieces
    )
