"""Sanity checks on the public API surface."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.datagen",
    "repro.engine",
    "repro.experiments",
    "repro.metrics",
    "repro.middleware",
    "repro.server",
    "repro.sql",
    "repro.storage",
    "repro.workload",
]


def test_version():
    assert repro.__version__


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_top_level_all_sorted():
    assert list(repro.__all__) == sorted(repro.__all__)


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name}"


def test_no_accidental_pandas_or_duckdb_dependency():
    """The substrate promise: nothing imports pandas or duckdb."""
    import pathlib

    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        text = path.read_text()
        assert "import pandas" not in text, path
        assert "import duckdb" not in text, path


def test_serving_path_does_not_import_scipy_stats():
    """``scipy.stats`` costs ~0.5 s and ~25 MiB of every server start."""
    src = pathlib.Path(repro.__file__).parents[1]
    code = (
        "import repro.cli, repro.server, repro.core.smallgroup, sys; "
        "assert 'scipy.stats' not in sys.modules"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
