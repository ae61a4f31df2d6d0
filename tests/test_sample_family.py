"""The sample family is a value (``repro.core.family.SampleFamily``).

Pre-processing builds one family, an append derives the next one with
``with_batch``, and the technique publishes it with a single assignment.
So an append that fails part-way publishes nothing, and a family a reader
still holds keeps answering exactly as it did, whatever came after it.
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import repro.core.family as family_module
from repro.core.combiner import execute_pieces
from repro.core.family import plan
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.tpch import generate_tpch
from repro.server.protocol import answer_fingerprint, encode_approx
from repro.sql.parser import parse_query

QUERIES = [
    "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipmode",
    "SELECT p_brand, SUM(l_extendedprice) AS s FROM lineitem GROUP BY p_brand",
    "SELECT l_shipmode, s_region, COUNT(*) AS cnt, AVG(l_quantity) AS q "
    "FROM lineitem GROUP BY l_shipmode, s_region",
    "SELECT o_custnation, COUNT(*) AS cnt FROM lineitem "
    "WHERE l_quantity > 10 GROUP BY o_custnation",
]


def view_batches(db, n_batches, rows, seed):
    """View-shaped batches of existing rows (what ``insert_rows`` takes)."""
    view = db.joined_view()
    rng = np.random.default_rng(seed)
    return [
        view.take(rng.integers(0, view.n_rows, rows)).rename("lineitem")
        for _ in range(n_batches)
    ]


def stored_bytes(technique):
    """Every sample table's name, cells (codes + dictionary) and bitmask."""
    state = []
    for info in technique.sample_tables():
        table = info.table
        columns = {}
        for name in table.column_names:
            column = table.column(name)
            columns[name] = (column.data.tobytes(), column.dictionary)
        words = None if table.bitmask is None else table.bitmask.to_ints()
        state.append((table.name, columns, words))
    return state


def fingerprint(family, sql):
    answer = execute_pieces(plan(family, parse_query(sql)), technique="sg")
    return answer_fingerprint({"approx": encode_approx(answer)})


def test_failed_append_publishes_nothing(monkeypatch):
    db = generate_tpch(scale=1.0, z=1.5, rows_per_scale=2000, seed=5)
    failed, batch = view_batches(db, n_batches=2, rows=200, seed=9)
    config = SmallGroupConfig(base_rate=0.1, seed=3)
    technique = SmallGroupSampling(config)
    technique.preprocess(db)
    before = technique.samples
    metadata = technique.metadata()
    # The batch reaches small group tables before the reservoir step, the
    # point where the failure is injected.
    grown = before.with_batch(failed)
    assert any(
        new.stored_rows > old.stored_rows
        for old, new in zip(before.metas, grown.metas)
    )

    def out_of_memory(*args, **kwargs):
        raise MemoryError("injected")

    monkeypatch.setattr(family_module, "reservoir_replacements", out_of_memory)
    with pytest.raises(MemoryError):
        technique.insert_rows(failed)
    assert technique.samples is before
    assert technique.metadata() == metadata
    assert technique.maintenance_report()["view_rows"] == db.fact_table.n_rows

    monkeypatch.undo()
    technique.insert_rows(batch)
    control = SmallGroupSampling(config)
    control.preprocess(db)
    control.insert_rows(batch)
    assert technique.samples.append_ordinal == 1
    assert stored_bytes(technique) == stored_bytes(control)


def test_old_family_keeps_answering(tiny_tpch):
    technique = SmallGroupSampling(SmallGroupConfig(base_rate=0.05))
    technique.preprocess(tiny_tpch)
    old = technique.samples
    before = [fingerprint(old, sql) for sql in QUERIES]

    family, shared, grown = old, 0, 0
    for batch in view_batches(tiny_tpch, n_batches=5, rows=40, seed=13):
        new = family.with_batch(batch)
        for i, (prior, meta) in enumerate(zip(family.metas, new.metas)):
            if meta.stored_rows == prior.stored_rows:
                assert new.tables[i] is family.tables[i]
                shared += 1
            else:
                assert new.tables[i] is not family.tables[i]
                grown += 1
        family = new
    assert shared and grown
    assert family.append_ordinal == 5
    assert family.view_rows == old.view_rows + 5 * 40

    assert [fingerprint(old, sql) for sql in QUERIES] == before
    assert [fingerprint(family, sql) for sql in QUERIES] != before


def test_a_family_cannot_be_edited(tiny_tpch):
    technique = SmallGroupSampling(SmallGroupConfig(base_rate=0.05))
    technique.preprocess(tiny_tpch)
    family = technique.samples
    with pytest.raises(FrozenInstanceError):
        family.view_rows = 0
    with pytest.raises(FrozenInstanceError):
        family.overall_parts[0].rate = 0.5
    assert isinstance(family.tables, tuple)
    assert isinstance(family.metas, tuple)


def test_technique_holds_config_report_and_samples(tiny_tpch):
    technique = SmallGroupSampling(SmallGroupConfig(base_rate=0.05))
    assert technique.samples is None
    technique.preprocess(tiny_tpch)
    assert set(vars(technique)) == {"config", "report", "samples"}
    first = technique.samples
    technique.preprocess(tiny_tpch)
    assert technique.samples is not first
