"""Tests for the on-disk persistence layer."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.bitmask import BitmaskVector
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.table import Table
from repro.storage import (
    StorageError,
    load_database,
    load_table,
    save_database,
    save_table,
)


class TestTableRoundtrip:
    def test_mixed_columns(self, tmp_path, small_table):
        path = save_table(small_table, tmp_path / "t.npz")
        loaded = load_table(path)
        assert loaded.name == small_table.name
        assert loaded.column_names == small_table.column_names
        for name in small_table.column_names:
            assert loaded.column(name) == small_table.column(name)

    def test_suffix_added(self, tmp_path, small_table):
        path = save_table(small_table, tmp_path / "noext")
        assert path.suffix == ".npz"
        assert load_table(path).n_rows == small_table.n_rows

    def test_bitmask_preserved(self, tmp_path):
        vec = BitmaskVector(3, 130)
        vec.set_bit(np.array([1]), 128)
        vec.set_bit(np.array([0, 2]), 3)
        table = Table("s", {"a": Column.ints([1, 2, 3])}, vec)
        loaded = load_table(save_table(table, tmp_path / "s"))
        assert loaded.bitmask is not None
        assert loaded.bitmask.n_bits == 130
        assert loaded.bitmask.to_ints() == vec.to_ints()

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_table(tmp_path / "nope.npz")

    def test_not_a_table_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, x=np.arange(3))
        with pytest.raises(StorageError):
            load_table(path)

    @pytest.mark.parametrize(
        "dictionary, problem",
        [
            (["a", "b", "a"], "repeats the value 'a'"),
            (["a", 1, "c"], "holds 1 of type int"),
            ("abc", "no dictionary list"),
        ],
        ids=["duplicate", "non_str", "not_a_list"],
    )
    def test_doctored_dictionary_is_rejected(self, tmp_path, dictionary, problem):
        path = save_table(
            Table("d", {"s": Column.strings(["a", "b", "c", "a"])}),
            tmp_path / "d",
        )
        with np.load(path) as data:
            arrays = dict(data)
        header = json.loads(arrays["header"].tobytes().decode("utf-8"))
        header["columns"][0]["dictionary"] = dictionary
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(StorageError, match=problem):
            load_table(path)

    def test_empty_strings_column(self, tmp_path):
        table = Table(
            "e",
            {"s": Column.strings([]), "i": Column.ints([])},
        )
        loaded = load_table(save_table(table, tmp_path / "e"))
        assert loaded.n_rows == 0
        assert loaded.column("s").dictionary == ()

    @given(
        ints=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=30),
        strings=st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll", "Lu", "Nd"),
                    whitelist_characters=" _'-",
                ),
                max_size=8,
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(
        max_examples=25,
        deadline=None,
        # The tmp_path file is rewritten from scratch for each example.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_roundtrip_property(self, tmp_path, ints, strings):
        n = min(len(ints), len(strings))
        table = Table(
            "p",
            {
                "i": Column.ints(ints[:n]),
                "s": Column.strings(strings[:n]),
                "f": Column.floats([float(x) / 3 for x in ints[:n]]),
            },
        )
        loaded = load_table(save_table(table, tmp_path / "p"))
        assert loaded.to_rows() == table.to_rows()


class TestDatabaseRoundtrip:
    def test_star_schema(self, tmp_path, tiny_tpch):
        directory = save_database(tiny_tpch, tmp_path / "db")
        loaded = load_database(directory)
        assert set(loaded.table_names) == set(tiny_tpch.table_names)
        assert loaded.star_schema == tiny_tpch.star_schema
        # Joined views agree.
        a = tiny_tpch.joined_view()
        b = loaded.joined_view()
        assert a.column("p_brand").to_list() == b.column("p_brand").to_list()

    def test_single_table(self, tmp_path, flat_db):
        loaded = load_database(save_database(flat_db, tmp_path / "flat"))
        assert loaded.star_schema is None
        assert loaded.fact_table.n_rows == flat_db.fact_table.n_rows

    def test_missing_catalog(self, tmp_path):
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_queries_agree_after_reload(self, tmp_path, tiny_tpch):
        from repro.engine.executor import execute
        from repro.engine.expressions import AggFunc, AggregateSpec, Query

        loaded = load_database(save_database(tiny_tpch, tmp_path / "db2"))
        query = Query(
            "lineitem",
            (AggregateSpec(AggFunc.COUNT, alias="c"),),
            ("l_shipmode", "s_region"),
        )
        assert execute(loaded, query).rows == execute(tiny_tpch, query).rows


class TestSampleSetPersistence:
    def test_sample_catalog_roundtrip(self, tmp_path, tiny_tpch):
        """Pre-process once, persist the samples, reuse from disk."""
        from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling

        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        catalog = technique.sample_catalog()
        directory = save_database(catalog, tmp_path / "samples")
        loaded = load_database(directory)
        for name in catalog.table_names:
            original = catalog.table(name)
            restored = loaded.table(name)
            assert restored.n_rows == original.n_rows
            if original.bitmask is not None:
                assert restored.bitmask is not None
                assert restored.bitmask.to_ints() == original.bitmask.to_ints()
