"""Tests for the on-disk persistence layer."""

import hashlib
import json
import mmap
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.tpch import generate_tpch
from repro.engine.bitmask import BitmaskVector
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.table import Table
from repro.storage import (
    StorageError,
    load_database,
    load_table,
    save_database,
    save_samples,
    save_table,
)
from repro.storage.io import open_database

SRC = Path(__file__).resolve().parents[1] / "src"


def image_header(path):
    """The JSON header of the image beside the ``.npz`` at ``path``."""
    raw = path.with_suffix(".img").read_bytes()
    size = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16 : 16 + size])


def mapping_of(array):
    """The object at the end of ``array``'s ``.base`` chain."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        member = np.zeros((3, 130), dtype=bool)
        member[1, 128] = True
        member[[0, 2], 3] = True
        vec = BitmaskVector.from_membership(member, 130)
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

    def test_codes_out_of_range_are_rejected(self, tmp_path):
        path = save_table(
            Table("d", {"s": Column.strings(["a", "b", "c", "a"])}),
            tmp_path / "d",
        )
        with np.load(path) as data:
            arrays = dict(data)
        arrays["col_0"] = np.array([0, 1, 7, 0], dtype=np.int32)
        np.savez_compressed(path, **arrays)
        with pytest.raises(StorageError, match="out of range"):
            load_table(path)

    def test_doctored_image_codes_are_rejected(self, tmp_path):
        codes = ["a", "b", "c", "a"] * 300_000  # more than one check block
        path = save_table(
            Table("d", {"s": Column.strings(codes)}), tmp_path / "d"
        )
        (entry,) = image_header(path)["columns"]
        with path.with_suffix(".img").open("r+b") as handle:
            handle.seek(entry["offset"] + 4 * (len(codes) - 2))
            handle.write(np.array([3], dtype="<i4").tobytes())
        with pytest.raises(StorageError, match="out of range"):
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


class TestImage:
    """Every stored table is served from a copy-on-write mapped image."""

    def test_columns_view_one_mapping(self, tmp_path, small_table):
        loaded = load_table(save_table(small_table, tmp_path / "t"))
        bases = {
            id(mapping_of(loaded.column(name).data))
            for name in loaded.column_names
        }
        assert len(bases) == 1
        assert isinstance(mapping_of(loaded.column("a").data), mmap.mmap)
        assert loaded.to_rows() == small_table.to_rows()
        with pytest.raises(ValueError, match="read-only"):
            loaded.column("b").data[0] = 9

    def test_first_concat_writes_into_the_mapping(self, tmp_path, small_table):
        loaded = load_table(save_table(small_table, tmp_path / "t"))
        for name in loaded.column_names:
            column = loaded.column(name)
            grown = column.concat(column)  # 8 rows fit the 64 spare cells
            assert mapping_of(grown.data) is mapping_of(column.data)
            assert np.shares_memory(grown.data, column.data)
            assert grown.to_list() == column.to_list() * 2

    def test_appends_never_reach_the_files(self, tmp_path, tiny_tpch):
        directory = save_database(tiny_tpch, tmp_path / "db")
        files = sorted(directory.glob("*.npz")) + sorted(directory.glob("*.img"))
        before = [digest(path) for path in files]
        db = load_database(directory)
        batch = tiny_tpch.fact_table.head(500)
        for _ in range(3):
            db.append_rows("lineitem", batch)
        assert db.fact_table.n_rows == tiny_tpch.fact_table.n_rows + 1500
        # The batches filled the mapped room: they were written into it.
        grown = db.fact_table.column("l_quantity").data
        assert isinstance(mapping_of(grown), mmap.mmap)
        assert [digest(path) for path in files] == before
        fresh = load_database(directory).fact_table
        assert fresh.n_rows == tiny_tpch.fact_table.n_rows
        assert fresh.to_rows() == tiny_tpch.fact_table.to_rows()

    def test_bitmask_is_mapped(self, tmp_path):
        member = np.eye(5, 70, dtype=bool)
        vec = BitmaskVector.from_membership(member, 70)
        table = Table("s", {"a": Column.ints(range(5))}, vec)
        loaded = load_table(save_table(table, tmp_path / "s"))
        assert isinstance(mapping_of(loaded.bitmask.words), mmap.mmap)
        assert loaded.bitmask.to_ints() == vec.to_ints()

    def test_truncated_image_is_a_storage_error(self, tmp_path, small_table):
        path = save_table(small_table, tmp_path / "t")
        image = path.with_suffix(".img")
        image.write_bytes(image.read_bytes()[: os.path.getsize(image) // 2])
        with pytest.raises(StorageError, match="damaged table image"):
            load_table(path)

    @pytest.mark.parametrize("how", ["stale", "deleted"])
    def test_missing_or_stale_image_is_derived_again(
        self, tmp_path, small_table, how
    ):
        path = save_table(small_table, tmp_path / "t")
        image = path.with_suffix(".img")
        old = image.read_bytes()
        changed = small_table.take(np.array([7, 0, 3]))
        save_table(changed, path)
        if how == "stale":  # an image derived from the replaced .npz
            image.write_bytes(old)
        else:
            image.unlink()
        loaded = load_table(path)
        assert loaded.to_rows() == changed.to_rows()
        assert isinstance(mapping_of(loaded.column("v").data), mmap.mmap)
        assert image_header(path)["n_rows"] == 3

    def test_unwritable_image_serves_the_decoded_table(
        self, tmp_path, tiny_tpch, monkeypatch
    ):
        directory = save_database(tiny_tpch, tmp_path / "db")
        (directory / "part.img").unlink()

        def read_only(*args):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("repro.storage.io._write_image", read_only)
        db, decoded = open_database(directory)
        assert list(decoded) == ["part"]
        assert "Permission denied" in decoded["part"]
        assert not (directory / "part.img").exists()
        assert not list(directory.glob(".*.tmp"))
        part = db.table("part")
        assert not isinstance(mapping_of(part.column("p_brand").data), mmap.mmap)
        assert part.to_rows() == tiny_tpch.table("part").to_rows()
        grown = part.concat(part.head(10))
        assert np.shares_memory(
            grown.column("p_size").data, part.column("p_size").data
        )


#: Loads a stored database and its family, runs approximate queries, and
#: prints how many KiB of anonymous memory that took.
RSS_PROBE = """
import re, sys
from repro.core.smallgroup import SmallGroupConfig
from repro.middleware import AQPSession
from repro.storage import load_database, load_samples

def anon_kib():
    with open("/proc/self/status") as status:
        return int(re.search(r"RssAnon:\\s+(\\d+) kB", status.read()).group(1))

before = anon_kib()
db = load_database(sys.argv[1])
session = AQPSession(db)
session.install(load_samples(sys.argv[1], db, SmallGroupConfig(base_rate=0.01)))
for k in range(20):
    session.sql(
        "SELECT l_shipmode, s_region, COUNT(*) AS c, SUM(l_extendedprice) AS s "
        f"FROM lineitem WHERE l_quantity > {k} GROUP BY l_shipmode, s_region"
    )
print(anon_kib() - before)
"""


def test_approximate_queries_leave_the_fact_table_unread(tmp_path):
    """Byte count, not timing: the fact table stays on disk."""
    with open("/proc/self/status") as status:
        if "RssAnon:" not in status.read():
            pytest.skip("no RssAnon in /proc/self/status")
    db = generate_tpch(scale=1.0, z=1.5, rows_per_scale=200_000, seed=3)
    directory = save_database(db, tmp_path / "db")
    technique = SmallGroupSampling(SmallGroupConfig(base_rate=0.01))
    technique.preprocess(db)
    save_samples(technique, directory)
    fact_bytes = db.fact_table.memory_bytes()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, str(directory)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    grown = int(probe.stdout.strip()) * 1024
    assert grown < fact_bytes / 4, (grown, fact_bytes)


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
