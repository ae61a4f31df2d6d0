"""Served answers are pinned to recorded digests.

One SHA-256 covers, for every query below in approx, exact and both
modes: the ``answer`` object :func:`encode_result` serves, the
approximate answer's ``top_k_confident``, and :meth:`SessionResult.to_text`
(timings zeroed).  The queries cover COUNT/SUM/AVG together, HAVING,
ORDER BY an aggregate with LIMIT cutting through ties, ORDER BY a
grouping column, a WHERE that selects nothing, and a float grouping
column holding NaN after an append.  A change to how answers are
merged, filtered, ordered, cut or encoded moves the digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.tpch import generate_tpch
from repro.engine.table import Table
from repro.middleware import AQPSession
from repro.server.protocol import encode_result

BEFORE_APPEND = (
    "SELECT l_shipmode, COUNT(*) AS n, SUM(l_extendedprice) AS s, "
    "AVG(l_discount) AS a FROM lineitem GROUP BY l_shipmode",
    "SELECT p_brand, s_region, COUNT(*) AS n, AVG(l_quantity) AS q "
    "FROM lineitem GROUP BY p_brand, s_region",
    "SELECT o_custnation, COUNT(*) AS n, SUM(l_quantity) AS s "
    "FROM lineitem GROUP BY o_custnation HAVING n > 300",
    "SELECT l_shipdate, COUNT(*) AS n FROM lineitem "
    "GROUP BY l_shipdate ORDER BY n DESC LIMIT 29",
    "SELECT l_shipdate, COUNT(*) AS n FROM lineitem "
    "GROUP BY l_shipdate ORDER BY n LIMIT 12",
    "SELECT p_type, s_nation, AVG(l_extendedprice) AS a, COUNT(*) AS n "
    "FROM lineitem WHERE l_returnflag = 'l_returnflag_000' "
    "GROUP BY p_type, s_nation HAVING n >= 3 ORDER BY a DESC, p_type LIMIT 8",
    "SELECT l_shipmode, COUNT(*) AS n FROM lineitem "
    "GROUP BY l_shipmode ORDER BY n DESC LIMIT 2",
    "SELECT p_type, SUM(l_extendedprice) AS s FROM lineitem "
    "GROUP BY p_type ORDER BY p_type DESC LIMIT 15",
    "SELECT o_orderyear, l_shipmode, COUNT(*) AS n FROM lineitem "
    "GROUP BY o_orderyear, l_shipmode ORDER BY l_shipmode, n DESC",
    "SELECT l_shipmode, COUNT(*) AS n, SUM(l_discount) AS s FROM lineitem "
    "WHERE l_shipmode = 'no_such_mode' GROUP BY l_shipmode",
    "SELECT COUNT(*) AS n, AVG(l_extendedprice) AS a FROM lineitem "
    "WHERE l_returnflag = 'l_returnflag_002'",
)

AFTER_APPEND = (
    "SELECT l_discount, COUNT(*) AS n, AVG(l_extendedprice) AS a "
    "FROM lineitem WHERE l_quantity = 50 GROUP BY l_discount",
    "SELECT l_discount, COUNT(*) AS n FROM lineitem WHERE l_quantity >= 49 "
    "GROUP BY l_discount ORDER BY n DESC LIMIT 6",
    "SELECT l_discount, SUM(l_extendedprice) AS s FROM lineitem "
    "WHERE l_quantity = 50 GROUP BY l_discount ORDER BY l_discount LIMIT 9",
    "SELECT l_shipmode, COUNT(*) AS n, SUM(l_extendedprice) AS s, "
    "AVG(l_discount) AS a FROM lineitem GROUP BY l_shipmode",
)

MODES = ("approx", "exact", "both")

# Recorded at commit 0e57fe3, where the combiner merged pieces in
# per-group dict loops and built one estimate object per cell.
PARENT_DIGEST = "d0c0599a439b3f834b485b58ab5b52e0b9b7e754257afa974b3ea496f988495d"


def _nan_batch(db) -> Table:
    """300 view rows with ``l_discount`` NaN or 0.05 in two of three rows."""
    view = db.joined_view()
    rows = view.take(np.random.default_rng(17).integers(0, view.n_rows, 300))
    batch = {name: rows.column(name).to_list() for name in rows.column_names}
    batch["l_discount"] = [
        float("nan") if i % 3 == 0 else 0.05 if i % 3 == 1 else value
        for i, value in enumerate(batch["l_discount"])
    ]
    batch["l_quantity"] = [
        50 if i < 90 else value for i, value in enumerate(batch["l_quantity"])
    ]
    return Table.from_dict("lineitem", batch)


def _record(digest, session: AQPSession, sql: str) -> None:
    for mode in MODES:
        result = session.sql(sql, mode=mode)
        answer = encode_result(result)["answer"]
        digest.update(json.dumps(answer, sort_keys=True).encode())
        confident = result.approx.top_k_confident if result.approx else None
        digest.update(repr(confident).encode())
        result.approx_seconds = result.exact_seconds = 0.0
        digest.update(result.to_text().encode())


def served_digest() -> str:
    db = generate_tpch(scale=1.0, z=1.5, rows_per_scale=20000, seed=3)
    session = AQPSession(db)
    session.install(SmallGroupSampling(SmallGroupConfig(base_rate=0.05, seed=3)))
    digest = hashlib.sha256()
    for sql in BEFORE_APPEND:
        _record(digest, session, sql)
    session.append_rows("lineitem", _nan_batch(db))
    for sql in AFTER_APPEND:
        _record(digest, session, sql)
    session.close()
    return digest.hexdigest()


def test_served_answers_match_parent_commit():
    assert served_digest() == PARENT_DIGEST


@pytest.mark.parametrize("sql", BEFORE_APPEND[3:5])
def test_limit_cuts_through_ties(sql):
    # The pin is only worth its queries: the LIMIT lands among equal
    # counts, so a tie broken differently would move the digest.
    db = generate_tpch(scale=1.0, z=1.5, rows_per_scale=20000, seed=3)
    session = AQPSession(db)
    result = session.sql(sql.split(" LIMIT")[0], mode="exact")
    limit = int(sql.rsplit(" ", 1)[1])
    counts = [row[0] for row in result.exact.rows.values()]
    assert counts[limit - 1] == counts[limit]
    session.close()
