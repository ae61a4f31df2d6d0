"""Persistence: tables, databases and sample families as on-disk files."""

from repro.storage.io import (
    FORMAT_VERSION,
    StorageError,
    load_database,
    load_table,
    save_database,
    save_table,
)
from repro.storage.samples import load_samples, samples_key, save_samples

__all__ = [
    "FORMAT_VERSION",
    "StorageError",
    "load_database",
    "load_samples",
    "load_table",
    "samples_key",
    "save_database",
    "save_samples",
    "save_table",
]
