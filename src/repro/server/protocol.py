"""Wire protocol for the AQP server: strict-JSON requests and responses.

The serving layer speaks a small JSON protocol (``docs/serving.md``):
every request is a JSON object with an ``op`` (``query`` / ``append`` /
``health`` / ``stats``), every response is a JSON object with ``ok``
(bool) plus either a payload or an ``error`` object carrying a
machine-readable ``code`` from :data:`ERROR_CODES`.

Two properties are load-bearing:

* **Determinism** — :func:`encode_result` renders an answer with groups
  in a canonical order (sorted by a type-tagged key, so mixed-type group
  values never hit Python's cross-type ``<``), and
  :func:`answer_fingerprint` hashes the canonical serialisation.  The
  serving determinism gate compares fingerprints of concurrent answers
  against a serial replay byte for byte.
* **Strict JSON** — the encoders build JSON-native dicts and lists and
  write every float slot through
  :func:`repro.obs.jsonsafe.finite_or_none` (non-finite → ``null``), so
  one plain ``json.dumps(..., allow_nan=False)`` serialises them and a
  leaked NaN fails loudly instead of being scrubbed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.answer import ApproxAnswer
from repro.engine.executor import GroupedResult
from repro.errors import (
    DeadlineExceeded,
    InternalError,
    QueryError,
    ReproError,
    SQLSyntaxError,
    UnsupportedQueryError,
)
from repro.obs.jsonsafe import finite_or_none

#: Machine-readable error code -> HTTP status it travels with.
ERROR_CODES: dict[str, int] = {
    "invalid_request": 400,   # malformed request object / bad field values
    "parse_error": 400,       # SQL text failed to tokenise/parse
    "unsupported": 400,       # valid SQL outside the aggregation subset
    "overloaded": 429,        # admission gate full; retry later
    "deadline_exceeded": 504, # per-request deadline expired mid-execution
    "session_closed": 503,    # server is draining; session already closed
    "internal": 500,          # invariant violation (a bug, not bad input)
}

#: Wire protocol version; bumped on incompatible changes.
PROTOCOL_VERSION = 1


def classify_error(error: BaseException) -> tuple[str, int]:
    """Map an exception to its wire ``(code, http_status)``.

    Order matters: the most specific classes first (``DeadlineExceeded``
    is a ``RuntimePhaseError``; ``SQLSyntaxError`` and
    ``UnsupportedQueryError`` are ``QueryError``\\ s).
    """
    if isinstance(error, DeadlineExceeded):
        return "deadline_exceeded", ERROR_CODES["deadline_exceeded"]
    if isinstance(error, InternalError):
        if "session closed" in str(error):
            return "session_closed", ERROR_CODES["session_closed"]
        return "internal", ERROR_CODES["internal"]
    if isinstance(error, SQLSyntaxError):
        return "parse_error", ERROR_CODES["parse_error"]
    if isinstance(error, UnsupportedQueryError):
        return "unsupported", ERROR_CODES["unsupported"]
    if isinstance(error, (QueryError, ReproError)):
        return "invalid_request", ERROR_CODES["invalid_request"]
    return "internal", ERROR_CODES["internal"]


def error_response(
    error: BaseException, code: str | None = None
) -> tuple[int, dict]:
    """``(http_status, body)`` for a failed request."""
    if code is None:
        code, status = classify_error(error)
    else:
        status = ERROR_CODES[code]
    return status, {
        "ok": False,
        "error": {"code": code, "message": str(error)},
    }


def _canonical_key(group: tuple) -> tuple:
    """Type-tagged sort key for one group tuple.

    Group values are heterogeneous (strings, ints, floats, ``None``);
    Python refuses ``"a" < 1``, so each value sorts by
    ``(is_none, type_name, repr)``.  ``repr`` of ints/floats/strings is
    deterministic across processes, which is all the determinism gate
    needs — natural ordering is irrelevant, stable ordering is not.
    """
    return tuple(
        (value is None, type(value).__name__, repr(value))
        for value in group
    )


def _canonical_order(keys: list[tuple]) -> list[int]:
    """Positions of ``keys`` sorted by :func:`_canonical_key`."""
    return sorted(range(len(keys)), key=lambda i: _canonical_key(keys[i]))


def _json_rows(arrays) -> list[tuple]:
    """Per group, its cell of every array, each through :func:`finite_or_none`."""
    columns = (
        [finite_or_none(value) for value in array.tolist()] for array in arrays
    )
    return list(zip(*columns))


def encode_approx(answer: ApproxAnswer, level: float = 0.95) -> dict:
    """Canonical strict-JSON rendering of an approximate answer."""
    lows, highs = zip(*answer.intervals(level))
    estimates = _json_rows(answer.values)
    variances = _json_rows(answer.variances)
    intervals = list(zip(_json_rows(lows), _json_rows(highs)))
    exact = list(zip(*(flags.tolist() for flags in answer.exact)))
    groups = [
        {
            "key": [finite_or_none(value) for value in answer.keys[i]],
            "estimates": list(estimates[i]),
            "variances": list(variances[i]),
            "intervals": [list(bounds) for bounds in zip(*intervals[i])],
            "exact": list(exact[i]),
        }
        for i in _canonical_order(answer.keys)
    ]
    return {
        "technique": answer.technique,
        "group_columns": list(answer.group_columns),
        "aggregate_names": list(answer.aggregate_names),
        "n_groups": answer.n_groups,
        "rows_scanned": answer.rows_scanned,
        "confidence_level": level,
        "groups": groups,
    }


def encode_exact(result: GroupedResult) -> dict:
    """Canonical strict-JSON rendering of an exact answer."""
    values = _json_rows(result.values)
    groups = [
        {
            "key": [finite_or_none(value) for value in result.keys[i]],
            "values": list(values[i]),
        }
        for i in _canonical_order(result.keys)
    ]
    return {
        "group_columns": list(result.group_columns),
        "aggregate_names": list(result.aggregate_names),
        "n_groups": result.n_groups,
        "groups": groups,
    }


def encode_result(result: Any) -> dict:
    """Encode a :class:`~repro.middleware.session.SessionResult`.

    The ``answer`` sub-object (approx and/or exact renderings) is what
    :func:`answer_fingerprint` hashes — timings are reported alongside
    but deliberately excluded, since wall-clock is never deterministic.
    """
    answer: dict[str, Any] = {}
    if result.approx is not None:
        answer["approx"] = encode_approx(result.approx)
    if result.exact is not None:
        answer["exact"] = encode_exact(result.exact)
    return {
        "sql": result.sql,
        "answer": answer,
        "fingerprint": answer_fingerprint(answer),
        "timings": {
            "approx_seconds": (
                finite_or_none(result.approx_seconds)
                if result.approx is not None
                else None
            ),
            "exact_seconds": (
                finite_or_none(result.exact_seconds)
                if result.exact is not None
                else None
            ),
            "speedup": finite_or_none(result.speedup),
        },
    }


def answer_fingerprint(answer: dict) -> str:
    """SHA-256 of the canonical serialisation of an ``answer`` object.

    Canonical = ``sort_keys=True`` strict JSON over the already
    canonically-ordered group lists, so two byte-identical answers hash
    identically regardless of which thread/process produced them.
    """
    text = json.dumps(answer, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def validate_query_request(request: dict) -> tuple[str, str, float | None]:
    """Validate a ``query`` request; returns ``(sql, mode, timeout)``.

    Raises :class:`QueryError` (wire code ``invalid_request``) on bad
    shape — *before* any admission/locking, so malformed requests are
    rejected without consuming capacity.
    """
    sql = request.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise QueryError("query request needs a non-empty 'sql' string")
    mode = request.get("mode", "approx")
    if mode not in ("approx", "exact", "both"):
        raise QueryError(
            f"mode must be approx, exact, or both; got {mode!r}"
        )
    timeout = request.get("timeout")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool):
            raise QueryError("'timeout' must be a number of seconds")
        if not timeout > 0:
            raise QueryError(f"'timeout' must be positive, got {timeout!r}")
        timeout = float(timeout)
    return sql, mode, timeout


def validate_append_request(request: dict) -> tuple[str, dict[str, list]]:
    """Validate an ``append`` request; returns ``(table, columns)``."""
    table = request.get("table")
    if not isinstance(table, str) or not table:
        raise QueryError("append request needs a non-empty 'table' string")
    rows = request.get("rows")
    if not isinstance(rows, dict) or not rows:
        raise QueryError(
            "append request needs 'rows': {column: [values, ...]}"
        )
    lengths = set()
    for column, values in rows.items():
        if not isinstance(column, str):
            raise QueryError("append column names must be strings")
        if not isinstance(values, list) or not values:
            raise QueryError(
                f"append column {column!r} must be a non-empty list"
            )
        lengths.add(len(values))
    if len(lengths) != 1:
        raise QueryError(
            f"append columns have mismatched lengths: {sorted(lengths)}"
        )
    return table, rows


__all__ = [
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "answer_fingerprint",
    "classify_error",
    "encode_approx",
    "encode_exact",
    "encode_result",
    "error_response",
    "validate_append_request",
    "validate_query_request",
]
