"""Concurrent multi-client serving layer over one shared AQP session.

The paper positions the AQP system as middleware in front of a database
serving many analysts at once; this package is that front door.  A
long-lived process owns one :class:`~repro.middleware.session.AQPSession`
(samples pre-processed once, caches warm) and serves concurrent clients
over a small JSON-over-HTTP protocol — see ``docs/serving.md`` for the
wire format and :mod:`repro.server.app` for the concurrency discipline
(admission control, append-vs-read snapshots, per-request deadlines).
"""

from repro.server.app import AQPServer, ServerConfig
from repro.server.http import ReproHTTPServer, make_server
from repro.server.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    answer_fingerprint,
    encode_result,
)

__all__ = [
    "AQPServer",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "ReproHTTPServer",
    "ServerConfig",
    "answer_fingerprint",
    "encode_result",
    "make_server",
]
