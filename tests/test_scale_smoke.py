"""Scale smoke test: the full pipeline at a few hundred thousand rows.

Not a benchmark — a guard that nothing in the pipeline is accidentally
quadratic or memory-hungry at the scale the speedup experiments use.
"""

import time

import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.tpch import generate_tpch
from repro.engine.executor import execute
from repro.sql import parse_query


@pytest.fixture(scope="module")
def big_tpch():
    start = time.perf_counter()
    db = generate_tpch(scale=5.0, z=1.5, rows_per_scale=60000, seed=99)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"generation took {elapsed:.1f}s"
    return db


def test_generation_scale(big_tpch):
    assert big_tpch.fact_table.n_rows == 300000


def test_preprocess_scale(big_tpch):
    start = time.perf_counter()
    technique = SmallGroupSampling(
        SmallGroupConfig(base_rate=0.01, use_reservoir=False)
    )
    report = technique.preprocess(big_tpch)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"preprocess took {elapsed:.1f}s"
    assert report.sample_rows > 0
    # The paper's cost claim: an approximate answer reads the sample
    # tables only, far fewer rows than the exact scan of the fact table.
    query = parse_query(
        "SELECT l_shipmode, p_brand, COUNT(*) AS cnt FROM lineitem "
        "GROUP BY l_shipmode, p_brand"
    )
    answer = technique.answer(query)
    exact = execute(big_tpch, query)
    assert answer.n_groups > 0
    assert exact.n_groups >= answer.n_groups
    assert answer.rows_scanned < big_tpch.fact_table.n_rows
