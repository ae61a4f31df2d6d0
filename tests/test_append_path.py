"""The served append path: one coding pass per batch, shared dictionaries.

An append is coded against the live catalog's dictionaries, a stored
family loaded back shares those dictionaries, and the batch's rows are
gathered straight into the sample tables' tails.  These tests pin what
that must not change: the errors a malformed batch gets, the answers
after appends, and a Python call count that does not grow with rows.
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np
import pytest

import repro.engine.column as column_module
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.tpch import generate_tpch
from repro.engine.column import ColumnKind
from repro.engine.table import Table
from repro.middleware import AQPSession
from repro.server import AQPServer
from repro.server.protocol import encode_result
from repro.storage import load_database, load_samples, save_database, save_samples

CONFIG = SmallGroupConfig(base_rate=0.05)

QUERIES = [
    "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipmode",
    "SELECT p_brand, SUM(l_extendedprice) AS s FROM lineitem GROUP BY p_brand",
    "SELECT l_shipmode, s_region, COUNT(*) AS cnt, AVG(l_quantity) AS q "
    "FROM lineitem GROUP BY l_shipmode, s_region",
    "SELECT o_custnation, COUNT(*) AS cnt FROM lineitem "
    "WHERE l_quantity > 10 GROUP BY o_custnation",
]


def fingerprints(session):
    return [encode_result(session.sql(sql))["fingerprint"] for sql in QUERIES]


def view_rows(db, n, seed):
    """``n`` view-shaped wire rows, drawn from the view's existing rows."""
    view = db.joined_view()
    rows = view.take(np.random.default_rng(seed).integers(0, view.n_rows, n))
    return {name: rows.column(name).to_list() for name in rows.column_names}


def append(app, rows):
    return app.handle({"op": "append", "table": "lineitem", "rows": rows})


# ----------------------------------------------------------------------
# A malformed batch is refused as it always was
# ----------------------------------------------------------------------
def _set(column, position, value):
    def corrupt(rows):
        values = list(rows[column])
        values[position] = value
        return {**rows, column: values}

    return corrupt


def _replace(column, values):
    return lambda rows: {**rows, column: values(len(rows[column]))}


#: name -> (corruption of valid view rows, expected status, code, message).
#: The responses are those of the commit before string columns were coded
#: against the catalog's dictionaries.
MALFORMED = {
    "int_in_string_column": (
        _set("l_shipmode", 3, 7), 400, "invalid_request",
        "expected str, got int",
    ),
    "ints_for_string_column": (
        _replace("l_shipmode", lambda n: list(range(n))), 400,
        "invalid_request", "cannot concat string with int",
    ),
    "leading_none_in_string_column": (
        _set("l_shipmode", 0, None), 400, "invalid_request",
        "cannot build append batch: could not convert string to float: "
        "'l_shipmode_001'",
    ),
    "none_in_string_column": (
        _set("p_brand", 5, None), 400, "invalid_request",
        "expected str, got NoneType",
    ),
    "none_in_float_column": (  # stored as NaN
        _set("l_extendedprice", 2, None), 200, None, None,
    ),
    "nested_list_in_string_column": (
        _set("s_region", 1, ["s_region_000"]), 400, "invalid_request",
        "expected str, got list",
    ),
    "leading_nested_list": (
        _set("s_region", 0, ["s_region_000"]), 400, "invalid_request",
        "cannot build append batch: setting an array element with a "
        "sequence. The requested array has an inhomogeneous shape after 1 "
        "dimensions. The detected shape was (64,) + inhomogeneous part.",
    ),
    "mixed_bool_and_str": (
        _set("l_returnflag", 0, True), 400, "invalid_request",
        "cannot build append batch: could not convert string to float: "
        "'l_returnflag_000'",
    ),
    "str_after_bool": (
        _set("l_returnflag", 4, False), 400, "invalid_request",
        "expected str, got bool",
    ),
    "str_in_int_column": (
        _set("l_quantity", 1, "7"), 400, "invalid_request",
        "cannot concat int with float",
    ),
    "unknown_column": (  # dropped: only view columns are kept
        lambda rows: {**rows, "l_bogus": ["x"] * len(rows["l_shipmode"])},
        200, None, None,
    ),
    "ragged_lengths": (
        lambda rows: {**rows, "p_brand": rows["p_brand"][:-1]}, 400,
        "invalid_request", "append columns have mismatched lengths: [63, 64]",
    ),
}


@pytest.fixture(scope="module")
def tpch_small():
    return generate_tpch(scale=1.0, z=1.5, rows_per_scale=3000, seed=5)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_batch_gets_the_same_error(tpch_small, case):
    corrupt, status, code, message = MALFORMED[case]
    session = AQPSession(tpch_small)
    session.install(SmallGroupSampling(CONFIG))
    before = session.snapshot
    try:
        got, body = append(AQPServer(session), corrupt(view_rows(tpch_small, 64, 1)))
        error = body.get("error", {})
        assert (got, error.get("code"), error.get("message")) == (
            status, code, message
        )
        if status != 200:
            assert session.snapshot is before
    finally:
        session.close()


# ----------------------------------------------------------------------
# The work of an append does not grow with its rows in Python
# ----------------------------------------------------------------------
def test_python_call_count_independent_of_batch_rows(tpch_small):
    def calls(n_rows):
        session = AQPSession(tpch_small)
        session.install(SmallGroupSampling(SmallGroupConfig(base_rate=0.01)))
        app = AQPServer(session)
        rows = view_rows(tpch_small, n_rows, 2)
        profile = cProfile.Profile()
        status, body = profile.runcall(append, app, rows)
        session.close()
        assert status == 200, body
        return pstats.Stats(profile).total_calls

    small, big = calls(512), calls(8_192)
    # 16x the rows adds about 35 reservoir acceptances and one more sample
    # table to extend: 478 calls.  Coding each batch's distinct strings
    # in Python (a new dictionary per batch, re-coded per sample table)
    # added 1,156.  (numpy's Generator methods are invisible to cProfile,
    # so a draw per row would not show here; the draws are pinned by
    # tests/test_reservoir.py::TestBulkReplacementsMatchReference.)
    assert abs(big - small) < 800


# ----------------------------------------------------------------------
# A stored family, loaded back, shares the catalog's dictionaries
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stored_20k(tmp_path_factory):
    directory = tmp_path_factory.mktemp("db20k")
    db = generate_tpch(scale=1.0, z=1.5, rows_per_scale=20_000, seed=3)
    save_database(db, directory)
    built = SmallGroupSampling(CONFIG)
    built.preprocess(load_database(directory))
    save_samples(built.samples, directory)
    return directory


def loaded_session(directory):
    db = load_database(directory)
    technique = load_samples(directory, db, CONFIG)
    assert technique is not None
    session = AQPSession(db)
    session.install(technique)
    return session


def string_columns(family):
    for part in (*family.tables, *(p.table for p in family.overall_parts)):
        for name in part.column_names:
            column = part.column(name)
            if column.kind is ColumnKind.STRING:
                yield part.name, name, column


def catalog_column(db, name):
    """The catalog column a view column is read from: fact, else dimension."""
    fact = db.fact_table
    if fact.has_column(name):
        return fact.column(name)
    for fk in db.star_schema.foreign_keys:
        dim = db.table(fk.dimension_table)
        if dim.has_column(name):
            return dim.column(name)
    raise AssertionError(name)


def test_loaded_family_shares_the_catalog_dictionaries(stored_20k):
    session = loaded_session(stored_20k)
    columns = list(string_columns(session.snapshot.samples))
    assert len(columns) > 100
    for table, name, column in columns:
        shared = catalog_column(session.db, name).dictionary
        assert column.dictionary is shared, (table, name)
    session.close()


def test_append_of_known_values_checks_no_codes(stored_20k, monkeypatch):
    session = loaded_session(stored_20k)
    rows = view_rows(session.db, 2_048, 3)
    checked = []
    check = column_module._require_codes_in_range

    def counting(codes, size):
        checked.append(size)
        check(codes, size)

    monkeypatch.setattr(column_module, "_require_codes_in_range", counting)
    status, body = append(AQPServer(session), rows)
    assert status == 200, body
    assert checked == []
    session.close()


def test_unseen_string_extends_dictionaries_append_only(stored_20k):
    served = loaded_session(stored_20k)
    app = AQPServer(served)
    batches = [view_rows(served.db, 500, seed) for seed in (4, 5)]
    batches[0]["l_shipmode"][:7] = ["zz_new_mode"] * 7
    batches[0]["p_brand"][3] = "aa_new_brand"
    modes = catalog_column(served.db, "l_shipmode").dictionary
    brands = catalog_column(served.db, "p_brand").dictionary
    for rows in batches:
        status, body = append(app, rows)
        assert status == 200, body

    # The fact column grew by the unseen value, at the end; the dimension
    # table was not appended to.  Every sample table took rows of the
    # first batch, so each holds its catalog dictionary extended by the
    # unseen value (the batch's dictionary), never re-ordered.
    assert catalog_column(served.db, "l_shipmode").dictionary == (
        *modes, "zz_new_mode",
    )
    assert catalog_column(served.db, "p_brand").dictionary is brands
    extended = {
        "l_shipmode": (*modes, "zz_new_mode"),
        "p_brand": (*brands, "aa_new_brand"),
    }
    for table, name, column in string_columns(served.snapshot.samples):
        if name in extended:
            assert column.dictionary == extended[name], (table, name)

    # A fresh in-process build replaying the same batches answers alike.
    fresh = AQPSession(load_database(stored_20k))
    fresh.install(SmallGroupSampling(CONFIG))
    for rows in batches:
        fresh.append_rows("lineitem", Table.from_dict("lineitem", rows))
    assert fingerprints(served) == fingerprints(fresh)
    served.close()
    fresh.close()
