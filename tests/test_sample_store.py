"""Sample families stored with their database (``repro.storage.samples``).

A stored family must be exactly what a fresh build would draw from the
same files: the same answers, byte for byte, before and after the same
appends.  Anything that breaks that (a changed table file or config, a
damaged family) must lead to a rebuild, never to a wrong answer.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.hybrid import HybridConfig, SmallGroupWithOutlier
from repro.cli import _serving_samples
from repro.client import ReproClient
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.table import Table
from repro.middleware import AQPSession
from repro.server.protocol import encode_result
from repro.errors import SamplingError
from repro.storage import (
    StorageError,
    load_database,
    load_samples,
    load_table,
    samples_key,
    save_database,
    save_samples,
    save_table,
)
from repro.storage.samples import family_manifest, from_family

SRC = Path(__file__).resolve().parents[1] / "src"

QUERIES = [
    "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipmode",
    "SELECT p_brand, SUM(l_extendedprice) AS s FROM lineitem GROUP BY p_brand",
    "SELECT l_shipmode, s_region, COUNT(*) AS cnt, AVG(l_quantity) AS q "
    "FROM lineitem GROUP BY l_shipmode, s_region",
    "SELECT o_custnation, COUNT(*) AS cnt FROM lineitem "
    "WHERE l_quantity > 10 GROUP BY o_custnation",
    "SELECT s_nation, p_size, SUM(l_quantity) AS q FROM lineitem "
    "GROUP BY s_nation, p_size",
]

CONFIGS = {
    "default": SmallGroupConfig(base_rate=0.05),
    "no_reservoir": SmallGroupConfig(base_rate=0.05, use_reservoir=False),
    "levels": SmallGroupConfig(
        base_rate=0.05, levels=((0.025, 1.0), (0.1, 0.3)), seed=4
    ),
    "pairs": SmallGroupConfig(
        base_rate=0.05, pair_columns=(("l_shipmode", "s_region"),)
    ),
}


@pytest.fixture
def db_dir(tmp_path, tiny_tpch):
    return save_database(tiny_tpch, tmp_path / "db")


def fingerprints(session):
    return [encode_result(session.sql(sql))["fingerprint"] for sql in QUERIES]


def fresh_session(directory, config):
    """A session over a build that never touched the stored family."""
    session = AQPSession(load_database(directory))
    session.install(SmallGroupSampling(config))
    return session


def append_batches(db, n_batches=3, rows=40):
    """View-shaped batches of existing rows, some with unseen values."""
    view = db.joined_view()
    rng = np.random.default_rng(5)
    batches = []
    for k in range(n_batches):
        batch = view.take(rng.integers(0, view.n_rows, rows))
        columns = {name: batch.column(name) for name in batch.column_names}
        modes = columns["l_shipmode"].to_list()
        modes[: 3 + k] = [f"new_mode_{k}"] * (3 + k)
        columns["l_shipmode"] = Column.strings(modes)
        batches.append(Table("lineitem", columns))
    return batches


def table_state(technique):
    return [
        (
            info.table.name,
            {c: info.table.column(c).to_list() for c in info.table.column_names},
            None if info.table.bitmask is None else info.table.bitmask.to_ints(),
        )
        for info in technique.sample_tables()
    ]


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_loaded_family_answers_like_a_fresh_build(db_dir, name):
    config = CONFIGS[name]
    built = SmallGroupSampling(config)
    built.preprocess(load_database(db_dir))
    save_samples(built, db_dir)

    db = load_database(db_dir)
    loaded = load_samples(db_dir, db, config)
    assert loaded is not None
    stored = AQPSession(db)
    stored.install(loaded)
    fresh = fresh_session(db_dir, config)
    assert fingerprints(stored) == fingerprints(fresh)
    assert table_state(loaded) == table_state(fresh.technique)

    # The same appends, applied to both, keep them identical.
    for batch in append_batches(db):
        stored.append_rows("lineitem", batch)
        fresh.append_rows("lineitem", batch)
    assert table_state(loaded) == table_state(fresh.technique)
    assert loaded.metadata() == fresh.technique.metadata()
    assert fingerprints(stored) == fingerprints(fresh)


def test_manifest_holds_the_value_classes(db_dir):
    config = CONFIGS["pairs"]
    built = SmallGroupSampling(config)
    built.preprocess(load_database(db_dir))
    manifest = json.loads((save_samples(built, db_dir) / "manifest.json").read_text())
    assert manifest["n_bits"] == len(manifest["metadata"]) == len(manifest["classes"])
    assert manifest["append_ordinal"] == 0
    assert manifest["view_rows"] == load_database(db_dir).fact_table.n_rows
    pair = manifest["classes"][-1]
    assert pair["columns"] == ["l_shipmode", "s_region"]
    assert pair["common_pairs"] == sorted(pair["common_pairs"])
    assert "common" in manifest["classes"][0]


def _without_bitmask(table):
    return Table(table.name, {c: table.column(c) for c in table.column_names})


#: One inconsistency each, and the refusal it must meet: ``(manifest
#: edit, table edit, message)``, the edits applied to the first small
#: group table's entries.
MANIFEST_DAMAGE = {
    "config": (
        lambda m: m.update(config=repr(CONFIGS["default"])), None,
        "samples were built for",
    ),
    "view_rows": (
        lambda m: m.update(view_rows=m["view_rows"] + 1), None,
        "stored view_rows",
    ),
    "append_ordinal": (
        lambda m: m.update(append_ordinal=1), None, "stored append_ordinal",
    ),
    "view_columns": (
        lambda m: m.update(view_columns=m["view_columns"][:-1]), None,
        "stored view_columns",
    ),
    "classes": (
        lambda m: m.update(classes=m["classes"][::-1]), None, "disagree",
    ),
    "bit_index": (
        lambda m: m["metadata"][0].update(bit_index=7), None, "disagree",
    ),
    "n_bits": (lambda m: m.update(n_bits=m["n_bits"] + 1), None, "disagree"),
    "table_columns": (
        None, lambda t: t.select(t.column_names[:-1]), "does not match",
    ),
    "bitmask": (None, _without_bitmask, "does not match"),
    "row_count": (None, lambda t: t.head(t.n_rows - 1), "does not match"),
    "overall_rate": (
        lambda m: m["overall"].update(rate=m["overall"]["rate"] / 2), None,
        "overall rate",
    ),
}


@pytest.mark.parametrize("damage", sorted(MANIFEST_DAMAGE))
def test_inconsistent_manifest_is_refused(tiny_tpch, damage):
    config = CONFIGS["pairs"]
    built = SmallGroupSampling(config)
    built.preprocess(tiny_tpch)
    manifest, tables = family_manifest(built)
    manifest = json.loads(json.dumps(manifest))
    by_name = {table.name: table for table in tables}
    assert from_family(config, tiny_tpch, manifest, by_name).metadata() == (
        built.metadata()
    )
    edit_manifest, edit_table, message = MANIFEST_DAMAGE[damage]
    if edit_manifest is not None:
        edit_manifest(manifest)
    if edit_table is not None:
        first = manifest["metadata"][0]["name"]
        by_name[first] = edit_table(by_name[first])
    with pytest.raises(SamplingError, match=message):
        from_family(config, tiny_tpch, manifest, by_name)


def test_unstorable_families_are_refused(db_dir, tiny_tpch):
    hybrid = SmallGroupWithOutlier(
        HybridConfig(base_rate=0.05, measure="l_extendedprice")
    )
    hybrid.preprocess(tiny_tpch)
    with pytest.raises(StorageError, match="SmallGroupWithOutlier samples cannot be stored"):
        save_samples(hybrid, db_dir)

    db = load_database(db_dir)
    session = AQPSession(db)
    session.install(SmallGroupSampling(CONFIGS["default"]))
    session.append_rows("lineitem", append_batches(db, n_batches=1)[0])
    with pytest.raises(StorageError, match="absorbed 1 appended"):
        save_samples(session.technique, db_dir)
    assert not (db_dir / "samples").exists()


# ----------------------------------------------------------------------
# The mechanism: loading scans nothing
# ----------------------------------------------------------------------
def test_loading_neither_joins_nor_preprocesses(db_dir, monkeypatch):
    config = CONFIGS["pairs"]
    built = SmallGroupSampling(config)
    built.preprocess(load_database(db_dir))
    save_samples(built, db_dir)
    expected = fingerprints(fresh_session(db_dir, config))

    def refuse(*args, **kwargs):
        raise AssertionError("a stored family must not be rebuilt")

    monkeypatch.setattr(Database, "joined_view", refuse)
    monkeypatch.setattr(SmallGroupSampling, "preprocess", refuse)
    db = load_database(db_dir)
    session = AQPSession(db)
    report = session.install(load_samples(db_dir, db, config))
    assert report.sample_rows == built.report.sample_rows
    assert fingerprints(session) == expected


def test_no_family_stored_means_none(db_dir, tiny_tpch):
    assert load_samples(db_dir, tiny_tpch, CONFIGS["default"]) is None


def test_load_database_ignores_samples(db_dir, tiny_tpch):
    built = SmallGroupSampling(CONFIGS["default"])
    built.preprocess(tiny_tpch)
    save_samples(built, db_dir)
    assert load_database(db_dir).table_names == tiny_tpch.table_names


def test_key_follows_config_and_table_files(db_dir, tiny_tpch):
    key = samples_key(db_dir, CONFIGS["default"])
    assert samples_key(db_dir, CONFIGS["default"]) == key
    assert samples_key(db_dir, CONFIGS["no_reservoir"]) != key
    save_table(tiny_tpch.table("part").head(10), db_dir / "part.npz")
    assert samples_key(db_dir, CONFIGS["default"]) != key


# ----------------------------------------------------------------------
# Failure paths at start-up: rebuild with a note, never a wrong answer
# ----------------------------------------------------------------------
def serve_once(directory, base_rate, capsys):
    """What ``repro serve`` installs, its start-up lines, and its answers."""
    db = load_database(directory)
    technique = _serving_samples(directory, db, base_rate)
    session = AQPSession(db)
    session.install(technique)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, fingerprints(session)


def fresh_fingerprints(directory, base_rate):
    return fingerprints(
        fresh_session(directory, SmallGroupConfig(base_rate=base_rate))
    )


def family_dir(directory, base_rate):
    return directory / "samples" / samples_key(
        directory, SmallGroupConfig(base_rate=base_rate)
    )


def test_second_start_loads_what_the_first_stored(db_dir, capsys):
    first, cold = serve_once(db_dir, 0.05, capsys)
    assert first[0].startswith("pre-processing samples")
    assert first[1].startswith("stored samples in ")
    second, warm = serve_once(db_dir, 0.05, capsys)
    assert len(second) == 1 and second[0].startswith("loaded samples")
    assert cold == warm == fresh_fingerprints(db_dir, 0.05)


def test_changed_table_file_rebuilds(db_dir, tiny_tpch, capsys):
    serve_once(db_dir, 0.05, capsys)
    changed = Database(
        [
            tiny_tpch.table(name).head(4000) if name == "lineitem" else tiny_tpch.table(name)
            for name in tiny_tpch.table_names
        ],
        tiny_tpch.star_schema,
    )
    save_database(changed, db_dir)
    lines, answers = serve_once(db_dir, 0.05, capsys)
    assert lines[0].startswith("pre-processing samples")
    assert answers == fresh_fingerprints(db_dir, 0.05)


def test_changed_base_rate_rebuilds(db_dir, capsys):
    serve_once(db_dir, 0.05, capsys)
    lines, answers = serve_once(db_dir, 0.08, capsys)
    assert lines[0].startswith("pre-processing samples (base rate 0.08)")
    assert answers == fresh_fingerprints(db_dir, 0.08)
    assert len(list((db_dir / "samples").iterdir())) == 2


@pytest.mark.parametrize("damage", ["missing_manifest", "truncated_table", "wrong_rows"])
def test_damaged_family_is_rebuilt(db_dir, capsys, damage):
    serve_once(db_dir, 0.05, capsys)
    stored = family_dir(db_dir, 0.05)
    if damage == "missing_manifest":
        (stored / "manifest.json").unlink()
    elif damage == "truncated_table":
        path = stored / "sg_overall.npz"
        path.write_bytes(path.read_bytes()[:200])
    else:
        path = stored / "sg_overall.npz"
        save_table(load_table(path).head(3), path)
    lines, answers = serve_once(db_dir, 0.05, capsys)
    assert lines[0].startswith("stored samples unusable, rebuilding: ")
    assert lines[1].startswith("pre-processing samples")
    assert answers == fresh_fingerprints(db_dir, 0.05)
    # The rebuilt family replaced the damaged one.
    again, _ = serve_once(db_dir, 0.05, capsys)
    assert again[0].startswith("loaded samples")


def test_unwritable_directory_still_serves(db_dir, capsys, monkeypatch):
    def read_only(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr("repro.storage.samples.save_table", read_only)
    lines, answers = serve_once(db_dir, 0.05, capsys)
    assert lines[1].startswith("samples not stored, serving anyway: ")
    assert len(lines) == 2
    assert answers == fresh_fingerprints(db_dir, 0.05)
    assert list((db_dir / "samples").iterdir()) == []


# ----------------------------------------------------------------------
# The real CLI, started twice
# ----------------------------------------------------------------------
def start_server(directory):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(directory), "--port", "0",
         "--base-rate", "0.05"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    lines = []
    for line in proc.stdout:
        lines.append(line.strip())
        if " on http://" in line:
            port = int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            return proc, port, lines
    proc.wait()
    raise AssertionError(f"server exited before serving: {lines}")


def served_fingerprint(directory):
    proc, port, lines = start_server(directory)
    try:
        with ReproClient(port=port) as client:
            fingerprint = client.query(QUERIES[2])["fingerprint"]
    finally:
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=30)
    return lines, fingerprint


def test_repro_serve_twice(db_dir):
    cold_lines, cold = served_fingerprint(db_dir)
    warm_lines, warm = served_fingerprint(db_dir)
    assert any(line.startswith("stored samples in ") for line in cold_lines)
    assert any(line.startswith("loaded samples") for line in warm_lines)
    assert cold == warm


# ----------------------------------------------------------------------
# Satellites: atomic table writes, unreadable files, pair classes by code
# ----------------------------------------------------------------------
def test_failed_table_write_keeps_the_old_file(tmp_path, small_table, monkeypatch):
    path = save_table(small_table, tmp_path / "t.npz")
    before = path.read_bytes()

    def crash(handle, **arrays):
        handle.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez_compressed", crash)
    with pytest.raises(OSError, match="disk full"):
        save_table(small_table.head(2), path)
    assert path.read_bytes() == before
    assert load_table(path).n_rows == small_table.n_rows
    assert [p.name for p in tmp_path.iterdir()] == ["t.npz"]


def test_truncated_table_file_is_a_storage_error(tmp_path, small_table):
    path = save_table(small_table, tmp_path / "t.npz")
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(StorageError, match="unreadable table file"):
        load_table(path)


def test_pair_class_matches_decoded_membership(tiny_tpch):
    technique = SmallGroupSampling(CONFIGS["pairs"])
    technique.preprocess(tiny_tpch)
    pair = technique.samples.classes[-1]
    view = tiny_tpch.joined_view()
    batch = append_batches(tiny_tpch, n_batches=1, rows=300)[0]
    for table in (view, batch):
        modes = table.column("l_shipmode").to_list()
        regions = table.column("s_region").to_list()
        expected = [
            (m, r) not in pair.common_pairs for m, r in zip(modes, regions)
        ]
        assert pair(table).tolist() == expected
    assert pair(view.head(0)).tolist() == []
