"""On-disk persistence for tables, databases, and sample families.

The paper's pre-processing phase is explicitly allowed to be expensive
because its output is *stored*: sample tables live on disk as ordinary
relations and are reused across sessions.  This module provides that
persistence for the in-package engine:

* one ``.npz`` file per table — column arrays, dictionary-encoded string
  vocabularies, and the bitmask words, with a JSON header carrying names,
  kinds, and bit width — written to a temporary file and renamed into
  place, so a crash mid-write leaves the previous file intact;
* beside it, one ``.img`` file per table — the same table uncompressed,
  each column at a page-aligned offset in a segment with the spare room
  of :func:`~repro.engine.column.capacity`, the room left as a file hole.
  :func:`load_table` maps the image copy-on-write instead of decoding the
  ``.npz``, so a start reads no rows and a column's pages come in only
  when a query reads them; appends dirty private pages of the room and
  never reach the file.  The image is derived data: its header records
  the ``(st_size, st_mtime_ns)`` of the ``.npz`` it was written from, and
  a missing or stale image is derived again at load;
* a database directory — one file per table plus ``catalog.json``
  recording the star schema.

Sample families (:mod:`repro.storage.samples`) are stored inside the
database directory, under ``samples/``, with the same table files.
Everything round-trips exactly (a property the tests enforce), including
bitmasks and string dictionaries.
"""

from __future__ import annotations

import json
import mmap
import os
import threading
import zipfile
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.engine.bitmask import BitmaskVector
from repro.engine.column import Column, ColumnKind, capacity
from repro.engine.database import Database
from repro.engine.schema import ForeignKey, StarSchema
from repro.engine.table import Table
from repro.errors import ColumnTypeError, ReproError, SchemaError

#: Format marker written into every file for forward compatibility.
FORMAT_VERSION = 1

#: Suffix of a table's mapped image, beside its ``.npz``.
IMAGE_SUFFIX = ".img"
#: An image starts with this magic and its header's length (8 bytes, LE).
_IMAGE_MAGIC = b"REPROIMG"
#: Version of the image layout; an image of another version is stale.
_IMAGE_VERSION = 1
#: Every segment of an image starts on a multiple of this: a page on
#: the usual hosts, fixed so that an image reads the same everywhere.
_ALIGN = 4096
#: The code check reads an image in blocks of at most this many bytes.
_CHECK_BLOCK = 1 << 20
#: The dtype of each kind's segment (a ``STRING`` column's codes).
_SEGMENT_DTYPES = {
    ColumnKind.INT: np.dtype("<i8"),
    ColumnKind.FLOAT: np.dtype("<f8"),
    ColumnKind.STRING: np.dtype("<i4"),
}


class StorageError(ReproError):
    """A file could not be written or does not contain a valid table."""


def _staging(path: Path) -> Path:
    """A temporary name beside ``path``, private to this process and thread."""
    return path.with_name(
        f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )


def save_table(table: Table, path: str | Path) -> Path:
    """Write ``table`` to one ``.npz`` file and its image; returns the ``.npz`` path.

    Both files are written to temporary files in the same directory,
    which then replace ``path`` and its ``.img`` in one rename each: a
    reader sees the old file or the new one, never a partial write, and
    a failed write leaves no temporary file behind and both old files
    as they were.
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
    image = path.with_suffix(IMAGE_SUFFIX)
    staging, image_staging = _staging(path), _staging(image)
    try:
        with staging.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        # A rename keeps size and mtime, so this stamps the final file.
        with staging.open("rb") as handle:
            _write_image(table, image_staging, _stamp(handle))
        os.replace(staging, path)
        os.replace(image_staging, image)
    except BaseException:
        staging.unlink(missing_ok=True)
        image_staging.unlink(missing_ok=True)
        raise
    return path


def load_table(path: str | Path) -> Table:
    """Read a table previously written by :func:`save_table`.

    The table is served from its image, mapped copy-on-write: each
    column is a read-only view of the mapped segment, whose room takes
    the table's appends as tail writes (:meth:`Column.in_buffer`).  A
    missing or stale image is derived from the ``.npz`` first; where it
    cannot be written, the decoded table is served instead, each column
    at the head of a buffer with spare capacity (:meth:`Column.with_room`).
    A file whose codes or string dictionaries break the column
    invariants raises :class:`StorageError`, and so does a truncated or
    otherwise unreadable one, ``.npz`` or image.
    """
    return _open_table(Path(path))[0]


def _open_table(path: Path) -> tuple[Table, str | None]:
    """The table stored at ``path`` and, when it is not mapped, why."""
    if not path.exists():
        raise StorageError(f"no such table file: {path}")
    image = path.with_suffix(IMAGE_SUFFIX)
    try:
        with path.open("rb") as handle:
            source = _stamp(handle)
            table = _map_image(image, source)
            if table is not None:
                return table, None
            decoded = _read_table(handle, path)
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile, SchemaError) as error:
        raise StorageError(f"{path}: unreadable table file: {error}") from error
    staging = _staging(image)
    try:
        try:
            _write_image(decoded, staging, source)
            os.replace(staging, image)
        finally:
            staging.unlink(missing_ok=True)
    except OSError as error:
        return decoded, f"cannot write {image.name}: {error.strerror or error}"
    try:
        table = _map_image(image, source)
    except OSError as error:
        raise StorageError(f"{image}: cannot map: {error}") from error
    if table is None:  # another writer replaced the image meanwhile
        return decoded, f"{image.name} changed while it was written"
    return table, None


def _read_table(npz: BinaryIO, path: Path) -> Table:
    """Decode the ``.npz`` open as ``npz``, before its errors are classified."""
    with np.load(npz, allow_pickle=False) as data:
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


# ----------------------------------------------------------------------
# The mapped image
# ----------------------------------------------------------------------
def _align(offset: int) -> int:
    """``offset`` rounded up to the next segment boundary."""
    return -(-offset // _ALIGN) * _ALIGN


def _stamp(npz: BinaryIO) -> list[int]:
    """What identifies the ``.npz`` open as ``npz``, for its image's header.

    Its ``st_size`` and ``st_mtime_ns``, and the CRC-32 of each member
    as its zip directory records them: a file rewritten within one tick
    of the file system's clock, at the same size, still gets a new
    stamp.  Reads only the directory at the end of the file.
    """
    status = os.fstat(npz.fileno())
    with zipfile.ZipFile(npz) as archive:
        crcs = [info.CRC for info in archive.infolist()]
    npz.seek(0)
    return [status.st_size, status.st_mtime_ns, *crcs]


def _write_image(table: Table, target: Path, source: list[int]) -> None:
    """Write ``table``'s image to ``target``, stamped with ``source``.

    A header (the magic, its length, then JSON) padded to a page, then
    one page-aligned segment per column of :func:`capacity` cells of
    which only the first ``n_rows`` are written, then the bitmask words.
    The unwritten room is a hole: it costs no disk and reads as zeros.
    """
    n = table.n_rows
    cells = capacity(n)
    segments: list[tuple[dict, np.ndarray, int]] = []
    for name in table.column_names:
        col = table.column(name)
        dtype = _SEGMENT_DTYPES[col.kind]
        entry = {
            "name": name,
            "kind": col.kind.value,
            "dtype": dtype.str,
            "capacity": cells,
        }
        if col.dictionary is not None:
            entry["dictionary"] = list(col.dictionary)
        segments.append(
            (entry, np.ascontiguousarray(col.data, dtype), cells * dtype.itemsize)
        )
    bitmask = None
    if table.bitmask is not None:
        words = np.ascontiguousarray(table.bitmask.words, np.dtype("<u8"))
        bitmask = {"n_bits": table.bitmask.n_bits, "n_words": words.shape[1]}
        segments.append((bitmask, words, words.nbytes))
    # The header holds the offsets, which follow the header: lay out
    # from one page on, and again past a header that outgrew its pages.
    start = _ALIGN
    while True:
        length = start
        for entry, _, size in segments:
            entry["offset"] = _align(length)
            length = entry["offset"] + size
        header = {
            "version": _IMAGE_VERSION,
            "name": table.name,
            "n_rows": n,
            "source": source,
            "length": length,
            "columns": [entry for entry, _, _ in segments if entry is not bitmask],
            "bitmask": bitmask,
        }
        encoded = json.dumps(header).encode("utf-8")
        if 16 + len(encoded) <= start:
            break
        start = _align(16 + len(encoded))
    with target.open("wb") as handle:
        handle.write(_IMAGE_MAGIC + len(encoded).to_bytes(8, "little"))
        handle.write(encoded)
        for entry, array, _ in segments:
            handle.seek(entry["offset"])
            handle.write(array.data)
        handle.truncate(length)


def _map_image(image: Path, source: list[int]) -> Table | None:
    """The table in ``image``, mapped; ``None`` if missing or not ``source``'s.

    Every check reads the file, never the mapping, so loading touches no
    mapped page: the header's layout against the file's length (a short
    file is a :class:`StorageError`, never a SIGBUS on first read), each
    segment's dtype against its kind, and the string codes against
    their dictionaries, in blocks of at most ``_CHECK_BLOCK`` bytes.
    Dictionaries are checked by :meth:`Column.in_buffer`.
    """
    try:
        fd = os.open(image, os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        try:
            header = _image_header(fd)
            if (
                header.get("version") != _IMAGE_VERSION
                or header.get("source") != source
            ):
                return None
            _check_image(fd, header)
            mapped = mmap.mmap(fd, header["length"], access=mmap.ACCESS_COPY)
            return _table_over(mapped, header)
        except (KeyError, TypeError, ValueError, OverflowError,
                SchemaError) as error:
            raise StorageError(
                f"{image}: damaged table image ({error}); delete it to "
                "derive it again from the .npz"
            ) from error
    finally:
        os.close(fd)


def _image_header(fd: int) -> dict:
    """The JSON header of the image open as ``fd``."""
    preamble = os.pread(fd, 16, 0)
    if len(preamble) < 16 or preamble[:8] != _IMAGE_MAGIC:
        raise ValueError("not a table image")
    size = int.from_bytes(preamble[8:], "little")
    encoded = os.pread(fd, size, 16)
    if len(encoded) < size:
        raise ValueError("header cut short")
    header = json.loads(encoded.decode("utf-8"))
    if not isinstance(header, dict):
        raise TypeError("header is not an object")
    return header


def _check_image(fd: int, header: dict) -> None:
    """Raise unless the file open as ``fd`` holds what ``header`` says."""
    length = header["length"]
    size = os.fstat(fd).st_size
    if size < length:
        raise ValueError(f"file is {size} bytes, its header needs {length}")
    n = header["n_rows"]
    segments = list(header["columns"])
    if header["bitmask"] is not None:
        bitmask = header["bitmask"]
        segments.append(
            {**bitmask, "dtype": "<u8", "capacity": n * bitmask["n_words"]}
        )
    for entry in segments:
        dtype = np.dtype(entry["dtype"])
        if "kind" in entry and dtype != _SEGMENT_DTYPES[ColumnKind(entry["kind"])]:
            raise ValueError(f"{entry['kind']} column stored as {dtype}")
        offset, cells = entry["offset"], entry["capacity"]
        if (
            offset % _ALIGN
            or offset < _ALIGN
            or cells < n
            or offset + cells * dtype.itemsize > length
        ):
            raise ValueError(f"segment of {entry.get('name', 'bitmask')!r} "
                             "lies outside the file")
        if entry.get("kind") == ColumnKind.STRING.value:
            _check_codes(fd, offset, n, entry)


def _check_codes(fd: int, offset: int, n_rows: int, entry: dict) -> None:
    """Raise unless the ``n_rows`` codes at ``offset`` index the dictionary."""
    dictionary = entry.get("dictionary")
    if not isinstance(dictionary, list):
        raise ValueError(f"column {entry['name']!r} has no dictionary list")
    end = offset + 4 * n_rows
    step = _CHECK_BLOCK
    for at in range(offset, end, step):
        block = os.pread(fd, min(step, end - at), at)
        codes = np.frombuffer(block, dtype="<i4")
        if codes.min() < 0 or codes.max() >= len(dictionary):
            raise ValueError(
                f"column {entry['name']!r}: string codes out of range for "
                f"dictionary of size {len(dictionary)}"
            )


def _table_over(mapped: mmap.mmap, header: dict) -> Table:
    """The table ``header`` describes, its arrays views of ``mapped``."""
    n = header["n_rows"]
    columns = {}
    for entry in header["columns"]:
        kind = ColumnKind(entry["kind"])
        cells = np.ndarray(
            (entry["capacity"],),
            _SEGMENT_DTYPES[kind],
            buffer=mapped,
            offset=entry["offset"],
        )
        columns[entry["name"]] = Column.in_buffer(
            kind, cells, n, entry.get("dictionary")
        )
    bitmask = None
    if header["bitmask"] is not None:
        raw = header["bitmask"]
        words = np.ndarray(
            (n, raw["n_words"]), np.dtype("<u8"), buffer=mapped, offset=raw["offset"]
        )
        bitmask = BitmaskVector(n, raw["n_bits"], words)
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
    return open_database(directory)[0]


def open_database(directory: str | Path) -> tuple[Database, dict[str, str]]:
    """:func:`load_database`, and each table served decoded, not mapped, with why."""
    directory = Path(directory)
    catalog_path = directory / "catalog.json"
    if not catalog_path.exists():
        raise StorageError(f"no catalog.json in {directory}")
    catalog = json.loads(catalog_path.read_text())
    if catalog.get("version") != FORMAT_VERSION:
        raise StorageError(
            f"{directory}: unsupported catalog version {catalog.get('version')}"
        )
    tables = []
    decoded = {}
    for name in catalog["tables"]:
        table, why = _open_table(directory / f"{name}.npz")
        tables.append(table)
        if why is not None:
            decoded[name] = why
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
    return Database(tables, star_schema), decoded
