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


#: The serve path's imports and the CLI's parser, then every module they
#: loaded that is scipy or one of the paper reproduction's packages.
SERVE_PATH_IMPORTS = """
import sys
import repro, repro.cli, repro.server, repro.storage, repro.core.smallgroup

repro.cli.build_parser()
paper = [["repro", name] for name in
         ("analysis", "baselines", "datagen", "experiments", "metrics")]
loaded = [m for m in sys.modules
          if m.split(".")[0] == "scipy" or m.split(".")[:2] in paper]
assert not loaded, loaded
"""


def test_serving_path_does_not_import_scipy():
    """numpy is the product's only runtime dependency: importing scipy
    would cost every server start about 0.3 s and 16 MiB.  And the
    product is a layer under the paper reproduction: the serve path and
    the CLI's parser load none of the paper's packages."""
    src = pathlib.Path(repro.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", SERVE_PATH_IMPORTS],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
