"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  The subclasses mirror
the major layers of the system: schema/catalog problems, query construction
and execution problems, SQL text problems, sampling/pre-processing problems,
and workload/experiment configuration problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InternalError(ReproError):
    """An internal invariant of the library was violated (a bug in repro).

    Raised where older code used ``assert``: unlike an assert, the guard
    survives ``python -O`` and carries a message
    (``tests/test_source_invariants.py`` keeps ``assert`` out of the
    package).
    """


class SchemaError(ReproError):
    """A table, column, or foreign key definition is invalid or missing."""


class ColumnTypeError(SchemaError):
    """An operation was applied to a column of an incompatible type."""


class QueryError(ReproError):
    """A query is malformed or references objects that do not exist."""


class UnsupportedQueryError(QueryError):
    """The query is valid SQL but outside the supported aggregation subset."""


class SQLSyntaxError(QueryError):
    """SQL text could not be tokenised or parsed.

    Attributes
    ----------
    position:
        Character offset into the SQL text at which the problem was found,
        or ``None`` when the problem is not tied to one location.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class SamplingError(ReproError):
    """Sample construction failed or sampling parameters are invalid."""


class PreprocessingError(SamplingError):
    """The pre-processing phase of an AQP technique failed."""


class RuntimePhaseError(ReproError):
    """The runtime phase could not answer a query from the built samples."""


class DeadlineExceeded(RuntimePhaseError):
    """A per-request deadline expired before execution finished.

    Raised by the deadline checkpoints threaded through the middleware
    session and piece execution (see :mod:`repro.engine.deadline`), and
    mapped to the ``deadline_exceeded`` wire error by the serving layer.
    """


class ServerError(ReproError):
    """A serving-layer request failed (transport, protocol, or remote).

    Attributes
    ----------
    code:
        Machine-readable error code from ``docs/serving.md`` (e.g.
        ``"overloaded"``, ``"deadline_exceeded"``), or ``None`` when the
        failure happened before a response was decoded.
    status:
        HTTP status of the response, or ``None`` for transport errors.
    """

    def __init__(
        self,
        message: str,
        code: str | None = None,
        status: int | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.status = status


class WorkloadError(ReproError):
    """A workload specification is invalid for the target database."""


class ExperimentError(ReproError):
    """An experiment configuration is inconsistent or cannot be run."""
