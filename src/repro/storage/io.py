"""On-disk persistence for tables, databases, and sample families.

The paper's pre-processing phase is explicitly allowed to be expensive
because its output is *stored*: sample tables live on disk as ordinary
relations and are reused across sessions.  This module provides that
persistence for the in-package engine:

* one ``.img`` file per table, its *image*: a JSON header (names,
  kinds, dictionaries, bitmask width, layout) followed by each column,
  uncompressed, at a page-aligned offset in a segment with the spare
  room of :func:`~repro.engine.column.capacity`, the room left as a
  file hole.  The header records a CRC-32 of every segment's written
  cells, and a CRC-32 of its own follows it.  :func:`save_table` writes
  the image to a temporary file and renames it into place, so a crash
  mid-write leaves the previous file intact; :func:`load_table` checks
  every CRC, then maps the image copy-on-write, so a start decodes no
  rows, a column's pages come in only when a query reads them, and
  appends dirty private pages of the room and never reach the file;
* a database directory: one image per table plus ``catalog.json``
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
import zlib
from pathlib import Path

import numpy as np

from repro.engine.bitmask import BitmaskVector
from repro.engine.column import Column, ColumnKind, capacity
from repro.engine.database import Database
from repro.engine.schema import ForeignKey, StarSchema
from repro.engine.table import Table
from repro.errors import ReproError, SchemaError

#: Format marker of ``catalog.json`` and of a family's manifest.
FORMAT_VERSION = 1

#: Suffix of a table's image, the one file a table is stored in.
IMAGE_SUFFIX = ".img"
#: An image starts with this magic and its header's length (8 bytes, LE);
#: the JSON header follows at offset 16, then its CRC-32 (4 bytes, LE).
_IMAGE_MAGIC = b"REPROIMG"
#: Version of the image layout, recorded inside the JSON header.
_IMAGE_VERSION = 2
#: Every segment of an image starts on a multiple of this: a page on
#: the usual hosts, fixed so that an image reads the same everywhere.
_ALIGN = 4096
#: The load-time check reads an image in blocks of at most this many bytes.
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


def _image_path(path: str | Path) -> Path:
    """``path`` if it ends in ``.img``, else ``path`` with ``.img`` appended.

    Appended to the whole name, never replacing a suffix: tables named
    ``v1.2`` and ``v1.3`` are stored in two files, not both in ``v1.img``.
    """
    path = Path(path)
    if path.suffix == IMAGE_SUFFIX:
        return path
    return path.with_name(path.name + IMAGE_SUFFIX)


def save_table(table: Table, path: str | Path) -> Path:
    """Write ``table``'s image to ``path``, ``.img`` appended unless present.

    Returns the image's path.  The image is written to a temporary file
    in the same directory, which then replaces the image in one rename:
    a reader sees the old file or the new one, never a partial write,
    and a failed write leaves no temporary file behind and the old file
    as it was.
    """
    image = _image_path(path)
    image.parent.mkdir(parents=True, exist_ok=True)
    staging = _staging(image)
    try:
        _write_image(table, staging)
        os.replace(staging, image)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    return image


def load_table(path: str | Path) -> Table:
    """Read a table written by :func:`save_table` (the same ``path``).

    Every check reads the file (``os.pread``, ``os.preadv``), never the
    mapping, so loading touches no mapped page: the header against its CRC-32 and
    its layout against the file's length (a short file is a
    :class:`StorageError`, never a SIGBUS on first read), each segment's
    dtype against its kind, each segment's written cells against their
    CRC-32, and the string codes against their dictionaries, in blocks
    of at most ``_CHECK_BLOCK`` bytes.  Dictionaries are checked by
    :meth:`Column.in_buffer`.  Then the image is mapped copy-on-write:
    each column is a read-only view of its segment, whose room takes the
    table's appends as tail writes.  A missing, truncated or damaged
    image raises :class:`StorageError`, naming the file and the part
    that failed.
    """
    image = _image_path(path)
    try:
        fd = os.open(image, os.O_RDONLY)
    except FileNotFoundError:
        raise StorageError(f"no such table file: {image}") from None
    except OSError as error:
        raise StorageError(f"{image}: cannot open: {error}") from error
    try:
        header = json.loads(_header_bytes(fd))
        if not isinstance(header, dict):
            raise TypeError("header is not an object")
        if header.get("version") != _IMAGE_VERSION:
            raise ValueError(f"unsupported image version {header.get('version')!r}")
        _check_image(fd, header)
        mapped = mmap.mmap(fd, header["length"], access=mmap.ACCESS_COPY)
        return _table_over(mapped, header)
    except (KeyError, TypeError, ValueError, OverflowError,
            SchemaError) as error:
        raise StorageError(
            f"{image}: damaged table image ({error})"
        ) from error
    except OSError as error:
        raise StorageError(f"{image}: cannot read: {error}") from error
    finally:
        os.close(fd)


def image_header(path: str | Path) -> bytes:
    """The JSON header of the image at ``path``, checked against its CRC-32.

    It records a CRC-32 of every segment, so it identifies the table's
    contents without reading them.
    """
    image = _image_path(path)
    try:
        fd = os.open(image, os.O_RDONLY)
        try:
            return _header_bytes(fd)
        finally:
            os.close(fd)
    except (OSError, ValueError) as error:
        raise StorageError(f"{image}: {error}") from error


# ----------------------------------------------------------------------
# The image
# ----------------------------------------------------------------------
def _align(offset: int) -> int:
    """``offset`` rounded up to the next segment boundary."""
    return -(-offset // _ALIGN) * _ALIGN


def _write_image(table: Table, target: Path) -> None:
    """Write ``table``'s image to ``target``.

    The preamble (the magic, the header's length), the JSON header and
    its CRC-32, padded to a page, then one page-aligned segment per
    column of :func:`capacity` cells of which only the first ``n_rows``
    are written, then the bitmask words.  The unwritten room is a hole:
    it costs no disk and reads as zeros.  The header holds nothing but
    the table and its layout (no time, no file stamp), so equal tables
    give equal headers.
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
    for entry, array, _ in segments:
        entry["crc"] = zlib.crc32(array.data)
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
            "length": length,
            "columns": [entry for entry, _, _ in segments if entry is not bitmask],
            "bitmask": bitmask,
        }
        encoded = json.dumps(header).encode("utf-8")
        if 16 + len(encoded) + 4 <= start:
            break
        start = _align(16 + len(encoded) + 4)
    with target.open("wb") as handle:
        handle.write(_IMAGE_MAGIC + len(encoded).to_bytes(8, "little"))
        handle.write(encoded)
        handle.write(zlib.crc32(encoded).to_bytes(4, "little"))
        for entry, array, _ in segments:
            handle.seek(entry["offset"])
            handle.write(array.data)
        handle.truncate(length)


def _header_bytes(fd: int) -> bytes:
    """The JSON header of the image open as ``fd``, checked against its CRC-32."""
    preamble = os.pread(fd, 16, 0)
    if len(preamble) < 16 or preamble[:8] != _IMAGE_MAGIC:
        raise ValueError("not a table image")
    size = int.from_bytes(preamble[8:], "little")
    if 16 + size + 4 > os.fstat(fd).st_size:
        raise ValueError("header cut short")
    raw = os.pread(fd, size + 4, 16)
    if zlib.crc32(raw[:size]) != int.from_bytes(raw[size:], "little"):
        raise ValueError("header fails its CRC-32")
    return raw[:size]


def _check_image(fd: int, header: dict) -> None:
    """Raise unless the file open as ``fd`` holds what ``header`` says."""
    length = header["length"]
    size = os.fstat(fd).st_size
    if size < length:
        raise ValueError(f"file is {size} bytes, its header needs {length}")
    n = header["n_rows"]
    segments = [(entry, n, entry["capacity"]) for entry in header["columns"]]
    if header["bitmask"] is not None:
        bitmask = header["bitmask"]
        words = n * bitmask["n_words"]
        segments.append(({**bitmask, "name": "bitmask", "dtype": "<u8"}, words, words))
    for entry, written, cells in segments:
        dtype = np.dtype(entry["dtype"])
        if "kind" in entry and dtype != _SEGMENT_DTYPES[ColumnKind(entry["kind"])]:
            raise ValueError(f"{entry['kind']} column stored as {dtype}")
        offset = entry["offset"]
        if (
            offset % _ALIGN
            or offset < _ALIGN
            or cells < written
            or offset + cells * dtype.itemsize > length
        ):
            raise ValueError(f"segment {entry['name']!r} lies outside the file")
        _check_segment(fd, entry, offset, written * dtype.itemsize)


def _check_segment(fd: int, entry: dict, offset: int, size: int) -> None:
    """Raise unless the ``size`` bytes at ``offset`` match ``entry``'s CRC-32.

    One pass in blocks of at most ``_CHECK_BLOCK`` bytes, which also
    checks a string column's codes against its dictionary.
    """
    dictionary = None
    if entry.get("kind") == ColumnKind.STRING.value:
        dictionary = entry.get("dictionary")
        if not isinstance(dictionary, list):
            raise ValueError(f"column {entry['name']!r} has no dictionary list")
    crc = 0
    codes_in_range = True
    # One buffer, read into again and again: a fresh block per read
    # would cost an allocation and its page faults each time.
    buffer = memoryview(bytearray(min(size, _CHECK_BLOCK)))
    end = offset + size
    for at in range(offset, end, _CHECK_BLOCK):
        block = buffer[: os.preadv(fd, [buffer[: end - at]], at)]
        crc = zlib.crc32(block, crc)
        if dictionary is not None and codes_in_range:
            codes = np.frombuffer(block, dtype="<i4")
            codes_in_range = 0 <= codes.min() and codes.max() < len(dictionary)
    if crc != entry["crc"]:
        raise ValueError(f"segment {entry['name']!r} fails its CRC-32")
    if not codes_in_range:
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
        save_table(db.table(name), directory / f"{name}{IMAGE_SUFFIX}")
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
    """Read a database previously written by :func:`save_database`.

    A table stored only as an ``.npz`` (a directory written before
    images were the only format) is refused with a :class:`StorageError`
    saying how to re-save it.
    """
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
    for name in catalog["tables"]:
        image = directory / f"{name}{IMAGE_SUFFIX}"
        npz = image.with_suffix(".npz")
        if npz.exists() and not image.exists():
            raise StorageError(
                f"{npz} is in the old .npz format, which is no longer read; "
                "load the directory once with a checkout of this project at "
                "or before commit ee2f8df, which writes every table's image"
            )
        tables.append(load_table(image))
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
