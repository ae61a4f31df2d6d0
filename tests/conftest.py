"""Shared fixtures: small databases reused across test modules."""

from __future__ import annotations

import pytest

from repro.datagen.sales import generate_sales
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_database,
)
from repro.datagen.tpch import generate_tpch
from repro.engine.database import Database
from repro.engine.table import Table


@pytest.fixture(scope="session")
def tiny_tpch() -> Database:
    """A small skewed TPC-H star schema (shared, read-only)."""
    return generate_tpch(scale=1.0, z=2.0, rows_per_scale=6000, seed=11)


@pytest.fixture(scope="session")
def tiny_sales() -> Database:
    """A small SALES star schema (shared, read-only)."""
    return generate_sales(scale=0.15, seed=12)


@pytest.fixture(scope="session")
def flat_db() -> Database:
    """A single-table database with skewed categoricals and measures."""
    return generate_flat_database(
        "flat",
        5000,
        categoricals=[
            CategoricalSpec("color", 40, 1.6),
            CategoricalSpec("shape", 12, 1.2),
            CategoricalSpec("status", 3, 0.8),
            CategoricalSpec("city", 120, 1.8),
        ],
        measures=[
            MeasureSpec("amount", distribution="lognormal", mu=3.0, sigma=1.2),
            MeasureSpec("qty", distribution="zipf_int", high=20, z=1.0),
        ],
        seed=13,
    )


@pytest.fixture()
def small_table() -> Table:
    """A hand-written 8-row table with known aggregates."""
    return Table.from_dict(
        "t",
        {
            "a": ["x", "x", "y", "y", "y", "z", "z", "x"],
            "b": [1, 2, 1, 2, 1, 1, 2, 1],
            "v": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0],
        },
    )
