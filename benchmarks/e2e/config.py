"""Fixed parameters of the benchmark, and the metric table it reports.

``BENCHMARK.json`` is the single source of metric names, units,
directions and bounds; this module reads it so the harness can never
print a metric the file does not declare (or the reverse).
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Everything the benchmark writes lives here (listed in ``.gitignore``).
WORK_DIR = ROOT / ".bench_build" / "e2e"

#: The dataset is one fixed database: the workload seed never changes it.
FACT_ROWS = 1_000_000
SKEW_Z = 2.0
DATASET_SEED = 20030609
#: ``repro serve --base-rate``; the traced run installs the same config.
BASE_RATE = 0.01

#: Rows per appended batch and the appender's open-loop period (seconds).
BATCH_ROWS = 2048
APPEND_PERIOD_S = 0.5

WORKLOADS = ("dash_repeat", "adhoc_approx", "exact_scan", "ingest_mix")


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_table(kind: str) -> dict[str, dict]:
    """``name -> {unit, better[, bound]}`` for ``end_to_end``/``per_layer``."""
    return {entry["name"]: entry for entry in load_spec()[kind]}
