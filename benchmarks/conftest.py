"""Shared helpers for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure from the paper's
evaluation (Sections 4.4 and 5).  Besides the pytest-benchmark timing, the
reproduced series are printed and written to ``benchmarks/results/`` so
runs can be diffed and transcribed into EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.figures import FigureRun
from repro.experiments.reporting import render_run, write_figure_csv

RESULTS_DIR = Path(__file__).parent / "results"


def record_figure(run: FigureRun, note: str = "") -> str:
    """Print and persist a figure run's series; return the text report."""
    text = render_run(run, note)
    print("\n" + text)
    csv_path = write_figure_csv(run, RESULTS_DIR)
    csv_path.with_suffix(".txt").write_text(text + "\n")
    return text


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
