"""On-disk persistence for tables, databases, and sample families.

The paper's pre-processing phase is explicitly allowed to be expensive
because its output is *stored*: sample tables live on disk as ordinary
relations and are reused across sessions.  This module provides that
persistence for the in-package engine:

* one ``.npz`` file per table — column arrays, dictionary-encoded string
  vocabularies, and the bitmask words, with a JSON header carrying names,
  kinds, and bit width — written to a temporary file and renamed into
  place, so a crash mid-write leaves the previous file intact;
* a database directory — one file per table plus ``catalog.json``
  recording the star schema.

Sample families (:mod:`repro.storage.samples`) are stored inside the
database directory, under ``samples/``, with the same table files.
Everything round-trips exactly (a property the tests enforce), including
bitmasks and string dictionaries.
"""

from __future__ import annotations

import json
import os
import threading
import zipfile
from pathlib import Path

import numpy as np

from repro.engine.bitmask import BitmaskVector
from repro.engine.column import Column, ColumnKind
from repro.engine.database import Database
from repro.engine.schema import ForeignKey, StarSchema
from repro.engine.table import Table
from repro.errors import ColumnTypeError, ReproError, SchemaError

#: Format marker written into every file for forward compatibility.
FORMAT_VERSION = 1


class StorageError(ReproError):
    """A file could not be written or does not contain a valid table."""


def save_table(table: Table, path: str | Path) -> Path:
    """Write ``table`` to one ``.npz`` file; returns the path written.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` in one rename: a reader sees the old file or the
    new one, never a partial write, and a failed write leaves no
    temporary file behind.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    header: dict = {
        "version": FORMAT_VERSION,
        "name": table.name,
        "n_rows": table.n_rows,
        "columns": [],
    }
    for i, name in enumerate(table.column_names):
        col = table.column(name)
        arrays[f"col_{i}"] = col.data
        entry = {"name": name, "kind": col.kind.value}
        if col.dictionary is not None:
            entry["dictionary"] = list(col.dictionary)
        header["columns"].append(entry)
    if table.bitmask is not None:
        arrays["bitmask_words"] = table.bitmask.words
        header["bitmask_bits"] = table.bitmask.n_bits
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    staging = path.with_name(
        f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        with staging.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    return path


def load_table(path: str | Path) -> Table:
    """Read a table previously written by :func:`save_table`.

    Each column sits at the head of a buffer with spare capacity
    (:meth:`Column.with_room`), so the table's first append is a tail
    write.  A file whose codes or string dictionaries break the column
    invariants raises :class:`StorageError`, and so does a truncated or
    otherwise unreadable one.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"no such table file: {path}")
    try:
        return _read_table(path)
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile, SchemaError) as error:
        raise StorageError(f"{path}: unreadable table file: {error}") from error


def _read_table(path: Path) -> Table:
    """The body of :func:`load_table`, before its errors are classified."""
    with np.load(path, allow_pickle=False) as data:
        if "header" not in data:
            raise StorageError(f"{path} is not a repro table file")
        header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
        if header.get("version") != FORMAT_VERSION:
            raise StorageError(
                f"{path}: unsupported format version {header.get('version')}"
            )
        columns: dict[str, Column] = {}
        for i, entry in enumerate(header["columns"]):
            kind = ColumnKind(entry["kind"])
            dictionary = None
            if kind is ColumnKind.STRING:
                dictionary = entry.get("dictionary")
                if not isinstance(dictionary, list):
                    raise StorageError(
                        f"{path}: column {entry['name']!r} has no "
                        "dictionary list"
                    )
            try:
                columns[entry["name"]] = Column.with_room(
                    kind, data[f"col_{i}"], dictionary
                )
            except ColumnTypeError as error:
                raise StorageError(
                    f"{path}: column {entry['name']!r}: {error}"
                ) from error
        bitmask = None
        if "bitmask_words" in data:
            words = data["bitmask_words"]
            bitmask = BitmaskVector(
                words.shape[0], header["bitmask_bits"], words
            )
    return Table(header["name"], columns, bitmask)


def save_database(db: Database, directory: str | Path) -> Path:
    """Write a whole database (tables + star schema) to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    catalog: dict = {
        "version": FORMAT_VERSION,
        "tables": [],
        "star_schema": None,
    }
    for name in db.table_names:
        save_table(db.table(name), directory / f"{name}.npz")
        catalog["tables"].append(name)
    if db.star_schema is not None:
        catalog["star_schema"] = {
            "fact_table": db.star_schema.fact_table,
            "foreign_keys": [
                {
                    "fact_column": fk.fact_column,
                    "dimension_table": fk.dimension_table,
                    "dimension_key": fk.dimension_key,
                }
                for fk in db.star_schema.foreign_keys
            ],
        }
    (directory / "catalog.json").write_text(json.dumps(catalog, indent=2))
    return directory


def load_database(directory: str | Path) -> Database:
    """Read a database previously written by :func:`save_database`."""
    directory = Path(directory)
    catalog_path = directory / "catalog.json"
    if not catalog_path.exists():
        raise StorageError(f"no catalog.json in {directory}")
    catalog = json.loads(catalog_path.read_text())
    if catalog.get("version") != FORMAT_VERSION:
        raise StorageError(
            f"{directory}: unsupported catalog version {catalog.get('version')}"
        )
    tables = [
        load_table(directory / f"{name}.npz") for name in catalog["tables"]
    ]
    star_schema = None
    if catalog["star_schema"] is not None:
        raw = catalog["star_schema"]
        star_schema = StarSchema(
            raw["fact_table"],
            tuple(
                ForeignKey(
                    fk["fact_column"],
                    fk["dimension_table"],
                    fk["dimension_key"],
                )
                for fk in raw["foreign_keys"]
            ),
        )
    return Database(tables, star_schema)
