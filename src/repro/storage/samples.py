"""Sample families stored with their database.

Small group sampling's pre-processing is the expensive phase; its output
is a family of ordinary tables, so it is stored once and reused by every
later session (§3).  A family lives inside the database directory::

    DB/samples/<key>/manifest.json      metadata, bit width, value classes
    DB/samples/<key>/<table>.npz        one file per sample table

The ``<key>`` is a SHA-256 over everything that determines the family:
the technique config, the bytes of ``catalog.json`` and of every table
file it names, the ``repro`` package's ``.py`` sources, and
``numpy.__version__``.  A family found under the key is therefore exactly
what this code would draw from these files; any change to one of them
leads to another key, so the stale family is simply never read.
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
from pathlib import Path

import numpy as np

import repro
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.database import Database
from repro.errors import ReproError, SamplingError
from repro.storage.io import FORMAT_VERSION, StorageError, load_table, save_table

#: Sub-directory of a database directory holding its sample families.
SAMPLES_DIR = "samples"
MANIFEST = "manifest.json"


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
            feed(f"table {name}", _file_digest(directory / f"{name}.npz"))
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise StorageError(
            f"cannot read database {directory}: {error}"
        ) from error
    package = Path(repro.__file__).parent
    for source in sorted(package.rglob("*.py")):
        name = source.relative_to(package).as_posix()
        feed(f"source {name}", _file_digest(source))
    feed("numpy", np.__version__.encode())
    return digest.hexdigest()


def save_samples(technique: SmallGroupSampling, directory: str | Path) -> Path:
    """Store ``technique``'s family in database directory ``directory``.

    ``technique`` must have been pre-processed from the database stored
    there: the family is keyed by those files.  The family is written to a temporary directory beside its final
    place, then renamed to ``samples/<key>``, replacing any family stored
    there before.  Returns the family's directory.  Raises
    :class:`StorageError` when the files cannot be written, and when the
    family cannot be stored at all (see
    :meth:`SmallGroupSampling.family`).
    """
    directory = Path(directory)
    try:
        manifest, tables = technique.family()
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
            save_table(table, staging / f"{table.name}.npz")
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
    return target


def load_samples(
    directory: str | Path, db: Database, config: SmallGroupConfig
) -> SmallGroupSampling | None:
    """The family stored in ``directory`` for ``config``, ready to install.

    ``db`` must be the database loaded from ``directory``; only its
    schema, row count and dimension tables are read (the joined view is
    never built).  Returns ``None`` when no family is stored under the
    key, and raises :class:`StorageError` when one is but cannot be read
    back whole and consistent: a missing manifest, a truncated table
    file, tables that disagree with the manifest or with ``db``.
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
            name: load_table(family_dir / f"{name}.npz")
            for name in manifest["tables"]
        }
        return SmallGroupSampling.from_family(
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
