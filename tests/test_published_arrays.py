"""Published arrays are read-only: a write into one raises.

State derived from a column (predicate masks, grouping codes, join
positions) is memoised on the column, and a query that resolved a
sample table keeps reading it as a snapshot while appends publish new
tables.  Both are sound only because no published ``Column.data`` or
``BitmaskVector.words`` ever changes, so every constructor flags its
array read-only and numpy refuses the write.  This walks every way an
array gets published: a built family, a stored database and family
loaded back, an appended table, and ``take``/``mask``/``concat``.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.bitmask import BitmaskVector
from repro.engine.column import Column, ColumnKind
from repro.engine.table import Table
from repro.middleware import AQPSession
from repro.storage import load_database, load_samples, save_database, save_samples

CONFIG = SmallGroupConfig(base_rate=0.05, use_reservoir=False)


def published_arrays(tables):
    for table in tables:
        for name in table.column_names:
            yield f"{table.name}.{name}", table.column(name).data
        if table.bitmask is not None:
            yield f"{table.name}.bitmask", table.bitmask.words


def assert_read_only(tables):
    arrays = list(published_arrays(tables))
    assert arrays
    for label, array in arrays:
        assert array.flags.writeable is False, label
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0


def family_tables(family):
    return [*family.tables, *(part.table for part in family.overall_parts)]


def database_tables(db):
    return [db.table(name) for name in db.table_names] + [db.joined_view()]


def small_appends(db, rows=24):
    view = db.joined_view()
    picks = np.random.default_rng(3).integers(0, view.n_rows, rows)
    batch = view.take(picks)
    columns = {name: batch.column(name) for name in batch.column_names}
    columns["l_shipmode"] = Column.strings(["unseen_mode"] * rows)
    return Table(db.star_schema.fact_table, columns)


def test_a_built_family_and_its_database(tiny_tpch):
    technique = SmallGroupSampling(CONFIG)
    technique.preprocess(tiny_tpch)
    assert_read_only(
        database_tables(tiny_tpch) + family_tables(technique.samples)
    )


def test_a_loaded_database_and_family(tmp_path, tiny_tpch):
    directory = save_database(tiny_tpch, tmp_path / "db")
    built = SmallGroupSampling(CONFIG)
    built.preprocess(load_database(directory))
    save_samples(built.samples, directory)
    db = load_database(directory)
    loaded = load_samples(directory, db, CONFIG)
    assert loaded is not None
    assert_read_only(database_tables(db) + family_tables(loaded.samples))


def test_appended_tables(tmp_path, tiny_tpch):
    directory = save_database(tiny_tpch, tmp_path / "db")
    session = AQPSession(load_database(directory))
    session.install(SmallGroupSampling(CONFIG))
    for _ in range(2):
        grown = session.append_rows(
            "lineitem", small_appends(session.db)
        )
    assert_read_only(
        [grown]
        + database_tables(session.db)
        + family_tables(session.snapshot.samples)
    )


def test_row_operations_and_copies():
    ints = Column.ints([1, 2, 3, 4])
    strings = Column.strings(["a", "b", "a", "c"])
    other = Column.strings(["z", "a"])
    keep = np.array([True, False, True, False])
    columns = [
        ints.take(np.array([3, 0])),
        ints.mask(keep),
        ints.concat(Column.ints([5])),
        ints.concat(Column.ints([5])).concat(Column.ints([6])),
        strings.concat(other),
        other.encoded_like(strings),
        Column.in_buffer(ColumnKind.FLOAT, np.array([1.5, 2.5, 0.0]), 2),
        pickle.loads(pickle.dumps(strings)),
        copy.deepcopy(ints),
        copy.copy(ints),
    ]
    table = Table(
        "t",
        {"i": ints, "s": strings},
        BitmaskVector.from_membership(np.eye(4, 3, dtype=bool), 3),
    )
    tables = [Table(f"c{i}", {"c": c}) for i, c in enumerate(columns)]
    tables += [
        table,
        table.take(np.array([2, 1])),
        table.filter(keep),
        table.concat(table),
        table.head(2),
    ]
    assert_read_only(tables)


def test_the_constructor_publishes_a_view():
    own = np.arange(5, dtype=np.int64)
    col = Column(ColumnKind.INT, own)
    with pytest.raises(ValueError, match="read-only"):
        col.data[0] = 7
    assert own.flags.writeable  # the caller's array keeps its flag
