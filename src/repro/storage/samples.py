"""Sample families stored with their database.

Small group sampling's pre-processing is the expensive phase; its output
is a family of ordinary tables, so it is stored once and reused by every
later session (§3).  A family lives inside the database directory::

    DB/samples/<key>/manifest.json      metadata, bit width, value classes
    DB/samples/<key>/<table>.img        one image per sample table (repro.storage.io)

The ``<key>`` is a SHA-256 over everything that determines the family:
the technique config, the bytes of ``catalog.json``, the header of every
table image it names (which records a CRC-32 of each of the table's
segments, so it stands for the table's contents and holds no time or
file stamp), the ``repro`` package's ``.py`` sources, and
``numpy.__version__``.  A family found under the key is therefore exactly
what this code would draw from these files; any change to one of them
leads to another key, so the stale family is simply never read, and
:func:`save_samples` keeps only the newest :data:`KEPT_FAMILIES`.
:func:`~repro.storage.load_database` ignores ``samples/``, and
``rm -r DB/samples`` clears every stored family.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.family import (
    ColumnClass,
    OverallPart,
    PairClass,
    SampleFamily,
    SampleTableMeta,
    ValueClass,
)
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import ReproError, SamplingError
from repro.storage.io import (
    FORMAT_VERSION,
    IMAGE_SUFFIX,
    StorageError,
    image_header,
    load_table,
    save_table,
)

#: Sub-directory of a database directory holding its sample families.
SAMPLES_DIR = "samples"
MANIFEST = "manifest.json"
#: Families :func:`save_samples` keeps, newest first by mtime: the one it
#: wrote and one more, so two checkouts of different sources serving one
#: directory do not delete each other's family at every start.
KEPT_FAMILIES = 2


def _file_digest(path: Path) -> bytes:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.digest()


def samples_key(directory: str | Path, config: SmallGroupConfig) -> str:
    """The key under which a family drawn with ``config`` is stored."""
    directory = Path(directory)
    digest = hashlib.sha256()

    def feed(label: str, data: bytes) -> None:
        digest.update(f"{label}\0{len(data)}\0".encode())
        digest.update(data)

    feed("config", repr(config).encode())
    try:
        catalog = (directory / "catalog.json").read_bytes()
        feed("catalog", catalog)
        for name in json.loads(catalog)["tables"]:
            feed(f"table {name}", image_header(directory / f"{name}{IMAGE_SUFFIX}"))
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise StorageError(
            f"cannot read database {directory}: {error}"
        ) from error
    package = Path(__file__).resolve().parents[1]
    for source in sorted(package.rglob("*.py")):
        name = source.relative_to(package).as_posix()
        feed(f"source {name}", _file_digest(source))
    feed("numpy", np.__version__.encode())
    return digest.hexdigest()


def save_samples(technique: SmallGroupSampling, directory: str | Path) -> Path:
    """Store ``technique``'s family in database directory ``directory``.

    ``technique`` must have been pre-processed from the database stored
    there: the family is keyed by those files.  The family is written to
    a temporary directory beside its final place, then renamed to
    ``samples/<key>``, replacing any family stored there before; then
    all but the newest :data:`KEPT_FAMILIES` families are deleted.
    Returns the family's directory.  Raises
    :class:`StorageError` when the files cannot be written, and when the
    family cannot be stored at all (see :func:`family_manifest`).
    """
    directory = Path(directory)
    try:
        manifest, tables = family_manifest(technique)
    except SamplingError as error:
        raise StorageError(f"cannot store these samples: {error}") from error
    key = samples_key(directory, technique.config)
    root = directory / SAMPLES_DIR
    target = root / key
    # Private to this process and thread; a crashed writer's leftover
    # under the same name is cleared first.
    suffix = f"{key[:16]}-{os.getpid()}-{threading.get_ident()}"
    staging = root / f".staging-{suffix}"
    try:
        root.mkdir(exist_ok=True)
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
    except OSError as error:
        raise StorageError(
            f"cannot write samples under {root}: {error}"
        ) from error
    try:
        for table in tables:
            save_table(table, staging / f"{table.name}{IMAGE_SUFFIX}")
        header = {
            "version": FORMAT_VERSION,
            "key": key,
            "tables": [table.name for table in tables],
        }
        (staging / MANIFEST).write_text(json.dumps({**header, **manifest}))
        if target.exists():
            stale = root / f".stale-{suffix}"
            os.replace(target, stale)
            shutil.rmtree(stale, ignore_errors=True)
        os.replace(staging, target)
    except BaseException as error:
        shutil.rmtree(staging, ignore_errors=True)
        if isinstance(error, OSError):
            raise StorageError(
                f"cannot write samples to {target}: {error}"
            ) from error
        raise
    _prune(root, target, suffix)
    return target


def _prune(root: Path, kept: Path, suffix: str) -> None:
    """Delete all but the newest :data:`KEPT_FAMILIES` families, ``kept`` first.

    Each goes by a rename out of the key space first, so a reader finds
    a family whole or not at all.  Failures are ignored: a family left
    behind is pruned by the next store.
    """
    ages = []
    try:
        for family in root.iterdir():
            if family.name.startswith(".") or family == kept:
                continue
            if family.is_dir():
                ages.append((family.stat().st_mtime_ns, family))
    except OSError:
        return
    ages.sort(reverse=True)
    for _, family in ages[KEPT_FAMILIES - 1 :]:
        stale = root / f".stale-{suffix}"
        try:
            os.replace(family, stale)
        except OSError:
            continue
        shutil.rmtree(stale, ignore_errors=True)


def load_samples(
    directory: str | Path, db: Database, config: SmallGroupConfig
) -> SmallGroupSampling | None:
    """The family stored in ``directory`` for ``config``, ready to install.

    ``db`` must be the database loaded from ``directory``; only its
    schema and row count are read (the joined view is never built).
    Returns ``None`` when no family is stored under the key, and raises
    :class:`StorageError` when one is but cannot be read back whole and
    consistent: a missing manifest, a truncated or damaged table image
    (any segment or header that fails its CRC-32), tables that disagree
    with the manifest or with ``db``.
    """
    start = time.perf_counter()
    key = samples_key(directory, config)
    family_dir = Path(directory) / SAMPLES_DIR / key
    if not family_dir.is_dir():
        return None
    try:
        manifest = json.loads((family_dir / MANIFEST).read_text())
        if manifest["version"] != FORMAT_VERSION or manifest["key"] != key:
            raise StorageError(f"{family_dir}: manifest is for another family")
        tables = {
            name: load_table(family_dir / f"{name}{IMAGE_SUFFIX}")
            for name in manifest["tables"]
        }
        return from_family(
            config,
            db,
            manifest,
            tables,
            wall_time_seconds=time.perf_counter() - start,
        )
    except StorageError:
        raise
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            ReproError) as error:
        raise StorageError(f"{family_dir}: {error}") from error


# ----------------------------------------------------------------------
# The manifest codec
# ----------------------------------------------------------------------
def _class_to_json(value_class: ValueClass) -> dict:
    """A class's value sets as JSON (sorted, so the bytes are stable)."""
    if isinstance(value_class, PairClass):
        return {
            "columns": list(value_class.columns),
            "common_pairs": sorted(list(p) for p in value_class.common_pairs),
        }
    previous = value_class.previous_common
    return {
        "column": value_class.column,
        "common": sorted(value_class.common),
        "previous_common": None if previous is None else sorted(previous),
    }


def _class_from_json(entry: dict) -> ValueClass:
    """Inverse of :func:`_class_to_json`."""
    if "common_pairs" in entry:
        return PairClass(
            tuple(entry["columns"]),
            frozenset(tuple(p) for p in entry["common_pairs"]),
        )
    previous = entry["previous_common"]
    return ColumnClass(
        entry["column"],
        frozenset(entry["common"]),
        None if previous is None else frozenset(previous),
    )


def family_manifest(technique: SmallGroupSampling) -> tuple[dict, list[Table]]:
    """``technique``'s family as plain data: a JSON-able manifest and its tables.

    The manifest holds everything but the sample rows: the metadata
    table, the bit width, the view's row count, the append ordinal, the
    view column list, the overall part's rate and each class's value
    sets (``L(C)`` per level, the common pairs).  Raises
    :class:`SamplingError` for a family :func:`from_family` could not
    give back as it is: a variant's (the outlier hybrid restructures the
    overall sample), or one that has absorbed appends the database files
    do not hold.
    """
    technique.require_preprocessed()
    if type(technique) is not SmallGroupSampling:
        raise SamplingError(
            f"{type(technique).__name__} samples cannot be stored; only the "
            "basic small group family can"
        )
    family = technique.samples
    if family.append_ordinal:
        raise SamplingError(
            f"the samples have absorbed {family.append_ordinal} appended "
            "batches that the database files do not hold"
        )
    overall = family.overall_parts[0]
    tables = [*family.tables, overall.table]
    manifest = {
        "config": repr(technique.config),
        "metadata": [asdict(meta) for meta in family.metas],
        "classes": [_class_to_json(c) for c in family.classes],
        "n_bits": family.n_bits,
        "view_rows": family.view_rows,
        "append_ordinal": family.append_ordinal,
        "view_columns": list(family.view_columns),
        "overall": {"table": overall.table.name, "rate": overall.rate},
    }
    return manifest, tables


def from_family(
    config: SmallGroupConfig,
    db: Database,
    manifest: dict,
    tables: dict[str, Table],
    wall_time_seconds: float = 0.0,
) -> SmallGroupSampling:
    """Adopt a family written by :func:`family_manifest`, without scanning ``db``.

    Reads only ``db``'s schema and row count: it never materialises the
    joined view nor re-runs ``preprocess``.  ``tables`` maps the
    manifest's table names to the stored tables.  Raises
    :class:`SamplingError` unless the manifest describes ``config``,
    ``db`` and ``tables`` consistently.  The returned technique holds
    the family and a ``report`` whose wall time is ``wall_time_seconds``.
    """
    if manifest["config"] != repr(config):
        raise SamplingError(
            f"samples were built for {manifest['config']}, not {config!r}"
        )
    fact = db.fact_table
    expected = {
        "view_rows": fact.n_rows,
        "append_ordinal": 0,
        "view_columns": db.view_column_names(),
    }
    for name, value in expected.items():
        if manifest[name] != value:
            raise SamplingError(
                f"stored {name} {manifest[name]!r} does not match the "
                f"database's {value!r}"
            )
    metas = [
        SampleTableMeta(**{**entry, "columns": tuple(entry["columns"])})
        for entry in manifest["metadata"]
    ]
    classes = [_class_from_json(entry) for entry in manifest["classes"]]
    n_bits = manifest["n_bits"]
    if (
        [c.columns for c in classes] != [meta.columns for meta in metas]
        or [meta.bit_index for meta in metas] != list(range(len(metas)))
        or n_bits != max(1, len(metas))
    ):
        raise SamplingError(
            "metadata table, value classes and bit width disagree"
        )

    def sample(name: str, rows: int | None) -> Table:
        table = tables.get(name)
        if (
            table is None
            or table.column_names != expected["view_columns"]
            or table.bitmask is None
            or table.bitmask.n_bits != n_bits
            or rows not in (None, table.n_rows)
        ):
            raise SamplingError(
                f"sample table {name!r} does not match the manifest"
            )
        return table

    overall = sample(manifest["overall"]["table"], None)
    rate = manifest["overall"]["rate"]
    built_rate = overall.n_rows / fact.n_rows if fact.n_rows else None
    if rate != (built_rate or config.base_rate):
        raise SamplingError(f"overall rate {rate!r} does not match its table")
    technique = SmallGroupSampling(config)
    technique.samples = SampleFamily.of_database(
        db,
        config,
        metas,
        [sample(m.name, m.stored_rows) for m in metas],
        [OverallPart(table=overall, rate=rate)],
        classes,
    )
    technique._report(
        db, wall_time_seconds, details=technique.preprocess_details()
    )
    return technique
