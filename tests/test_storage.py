"""Tests for the on-disk persistence layer."""

import hashlib
import json
import mmap
import os
import subprocess
import sys
import zlib
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

SRC = Path(__file__).resolve().parents[1] / "src"


def image_header(image):
    """The JSON header of the table image at ``image``."""
    raw = image.read_bytes()
    size = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16 : 16 + size])


def rewrite_image(image, header, cells=None):
    """Store ``header`` in ``image``, with a valid CRC-32, as a writer would.

    ``cells`` maps a column name to the values to write over its first
    cells; that segment's CRC-32 is recomputed, so only the checks that
    follow the checksums can refuse what was written.
    """
    with image.open("r+b") as handle:
        for entry in header["columns"]:
            if entry["name"] in (cells or {}):
                data = np.asarray(cells[entry["name"]], dtype=entry["dtype"])
                handle.seek(entry["offset"])
                handle.write(data.tobytes())
                handle.seek(entry["offset"])
                written = handle.read(header["n_rows"] * data.itemsize)
                entry["crc"] = zlib.crc32(written)
        encoded = json.dumps(header).encode("utf-8")
        handle.seek(0)
        handle.write(b"REPROIMG" + len(encoded).to_bytes(8, "little"))
        handle.write(encoded + zlib.crc32(encoded).to_bytes(4, "little"))


def flip_byte(image, part):
    """Flip one bit of ``image`` inside ``part``, as a faulty disk would.

    ``part`` is a column name (a cell of its segment), ``"bitmask"`` (a
    bitmask word) or ``"dictionary <column>"`` (a character of the
    column's first dictionary string, inside the header).  String codes
    are flipped to another code in range, so only a checksum sees it.
    """
    raw = bytearray(image.read_bytes())
    header = image_header(image)
    n = header["n_rows"]
    if part == "bitmask":
        at = header["bitmask"]["offset"]
    elif part.startswith("dictionary "):
        (entry,) = [c for c in header["columns"] if c["name"] == part[11:]]
        at = raw.index(json.dumps(entry["dictionary"][0]).encode(), 16) + 1
    else:
        (entry,) = [c for c in header["columns"] if c["name"] == part]
        dtype = np.dtype(entry["dtype"])
        cells = np.frombuffer(raw, dtype, n, entry["offset"])
        row = n // 2
        if "dictionary" in entry:
            row = int(np.flatnonzero((cells ^ 1) < len(entry["dictionary"]))[0])
        at = entry["offset"] + row * dtype.itemsize
    raw[at] ^= 1
    image.write_bytes(bytes(raw))


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
        assert path.suffix == ".img"
        assert load_table(path).n_rows == small_table.n_rows

    def test_dotted_names_keep_their_own_files(self, tmp_path):
        first = Table("v1.2", {"a": Column.ints([1, 2])})
        second = Table("v1.3", {"a": Column.ints([3, 4, 5])})
        assert save_table(first, tmp_path / "v1.2").name == "v1.2.img"
        assert save_table(second, tmp_path / "v1.3").name == "v1.3.img"
        assert save_table(first, tmp_path / "t.npz").name == "t.npz.img"
        assert load_table(tmp_path / "v1.2").name == "v1.2"
        assert load_table(tmp_path / "v1.3.img").name == "v1.3"

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
            load_table(tmp_path / "nope.img")

    def test_not_a_table_file(self, tmp_path):
        path = tmp_path / "junk.img"
        path.write_bytes(b"PK\x03\x04" + bytes(100))
        with pytest.raises(StorageError, match="not a table image"):
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
        header = image_header(path)
        header["columns"][0]["dictionary"] = dictionary
        rewrite_image(path, header)
        with pytest.raises(StorageError, match=problem):
            load_table(path)

    def test_codes_out_of_range_are_rejected(self, tmp_path):
        path = save_table(
            Table("d", {"s": Column.strings(["a", "b", "c", "a"])}),
            tmp_path / "d",
        )
        rewrite_image(path, image_header(path), {"s": [0, 1, 7, 0]})
        with pytest.raises(StorageError, match="out of range"):
            load_table(path)

    def test_doctored_image_codes_are_rejected(self, tmp_path):
        codes = ["a", "b", "c", "a"] * 300_000  # more than one check block
        path = save_table(
            Table("d", {"s": Column.strings(codes)}), tmp_path / "d"
        )
        doctored = [0, 1, 2, 0] * 300_000
        doctored[-2] = 3
        rewrite_image(path, image_header(path), {"s": doctored})
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
        files = sorted(directory.glob("*.img"))
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
        image = save_table(small_table, tmp_path / "t")
        image.write_bytes(image.read_bytes()[: os.path.getsize(image) // 2])
        with pytest.raises(StorageError, match="damaged table image"):
            load_table(image)

    def test_missing_image_is_a_storage_error(self, tmp_path, tiny_tpch):
        directory = save_database(tiny_tpch, tmp_path / "db")
        (directory / "part.img").unlink()
        with pytest.raises(StorageError, match="no such table file: .*part.img"):
            load_database(directory)


class TestChecksums:
    """Every byte a table is served from is checked against a CRC-32 at load."""

    @staticmethod
    def stored(directory):
        member = np.zeros((300, 70), dtype=bool)
        member[::7, 3] = member[::11, 66] = True
        table = Table(
            "lineitem",
            {
                "l_quantity": Column.ints(np.arange(300) % 50),
                "l_extendedprice": Column.floats(np.arange(300) * 1.25),
                "l_shipmode": Column.strings(["AIR", "RAIL", "SHIP"] * 100),
            },
            BitmaskVector.from_membership(member, 70),
        )
        return save_database(Database([table]), directory), table

    @pytest.mark.parametrize(
        "part, named",
        [
            ("l_quantity", "segment 'l_quantity'"),
            ("l_extendedprice", "segment 'l_extendedprice'"),
            ("l_shipmode", "segment 'l_shipmode'"),
            ("bitmask", "segment 'bitmask'"),
            ("dictionary l_shipmode", "header"),
        ],
        ids=["int", "float", "string_codes", "bitmask_words", "dictionary"],
    )
    def test_flipped_byte_is_a_storage_error(self, tmp_path, part, named):
        directory, table = self.stored(tmp_path / "db")
        assert load_database(directory).table("lineitem").to_rows() == table.to_rows()
        flip_byte(directory / "lineitem.img", part)
        with pytest.raises(StorageError) as raised:
            load_database(directory)
        message = str(raised.value)
        assert "lineitem.img" in message and named in message, message
        assert "CRC-32" in message

    def test_header_holds_no_time_and_the_room_is_not_checked(self, tmp_path):
        directory, _ = self.stored(tmp_path / "a")
        again, _ = self.stored(tmp_path / "b")
        first = (directory / "lineitem.img").read_bytes()
        assert first == (again / "lineitem.img").read_bytes()
        # A byte in the room past ``n_rows`` is never read before it is
        # written, so it is outside every checksum.
        (entry, *_) = image_header(directory / "lineitem.img")["columns"]
        raw = bytearray(first)
        raw[entry["offset"] + 8 * 300] ^= 1
        (directory / "lineitem.img").write_bytes(bytes(raw))
        assert load_database(directory).table("lineitem").n_rows == 300


def test_a_directory_of_npz_tables_is_refused(tmp_path, tiny_tpch):
    """A directory written before images were the only format holds one
    ``<name>.npz`` per table and no image; it is refused, not converted."""
    directory = save_database(tiny_tpch, tmp_path / "db")
    for name in tiny_tpch.table_names:
        (directory / f"{name}.img").unlink()
        np.savez_compressed(directory / f"{name}.npz", col_0=np.arange(3))
    with pytest.raises(StorageError, match=r"lineitem\.npz.*old .*ee2f8df"):
        load_database(directory)
    assert not list(directory.glob("*.img"))


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
    save_samples(technique.samples, directory)
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
