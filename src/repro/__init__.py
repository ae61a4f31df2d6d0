"""repro — Dynamic Sample Selection for Approximate Query Processing.

A full reproduction of Babcock, Chaudhuri, Das (SIGMOD 2003), built on an
in-package numpy columnar engine.  The typical flow:

>>> from repro import generate_tpch, SmallGroupSampling, SmallGroupConfig
>>> from repro import parse_query, execute
>>> db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=5000)
>>> sg = SmallGroupSampling(SmallGroupConfig(base_rate=0.02))
>>> report = sg.preprocess(db)
>>> query = parse_query(
...     "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipmode"
... )
>>> answer = sg.answer(query)          # approximate, with CIs
>>> exact = execute(db, query)         # ground truth

See DESIGN.md for the system inventory and EXPERIMENTS.md for the paper
reproduction results.
"""

from repro.analysis import (
    AnalysisScenario,
    expected_sq_rel_err_small_group,
    expected_sq_rel_err_uniform,
    figure_3a_series,
    figure_3b_series,
    optimal_allocation_ratio,
)
from repro.baselines import (
    BasicCongress,
    CongressConfig,
    HybridConfig,
    OutlierConfig,
    OutlierIndexing,
    SmallGroupWithOutlier,
    UniformConfig,
    UniformSampling,
    select_outlier_indices,
)
from repro.core import (
    AQPTechnique,
    ApproxAnswer,
    GroupEstimate,
    PreprocessReport,
    SamplePiece,
    SampleTableInfo,
    SmallGroupConfig,
    SmallGroupSampling,
)
from repro.datagen import (
    SalesConfig,
    TPCHConfig,
    ZipfDistribution,
    example_3_1,
    generate_flat_database,
    generate_flat_table,
    generate_sales,
    generate_tpch,
)
from repro.engine import (
    AggFunc,
    AggregateSpec,
    Column,
    Database,
    ForeignKey,
    GroupedResult,
    InSet,
    Query,
    StarSchema,
    Table,
    execute,
)
from repro.errors import ReproError
from repro.metrics import pct_groups, rel_err, score, sq_rel_err
from repro.middleware import AQPSession, SessionResult
from repro.sql import format_query, format_statement, parse, parse_query
from repro.storage import (
    load_database,
    load_samples,
    load_table,
    save_database,
    save_samples,
    save_table,
)
from repro.workload import Workload, WorkloadConfig, generate_workload

__version__ = "1.0.0"

__all__ = [
    "AQPSession",
    "AQPTechnique",
    "AggFunc",
    "AggregateSpec",
    "AnalysisScenario",
    "ApproxAnswer",
    "BasicCongress",
    "Column",
    "CongressConfig",
    "Database",
    "ForeignKey",
    "GroupEstimate",
    "GroupedResult",
    "HybridConfig",
    "InSet",
    "OutlierConfig",
    "OutlierIndexing",
    "PreprocessReport",
    "Query",
    "ReproError",
    "SalesConfig",
    "SamplePiece",
    "SampleTableInfo",
    "SessionResult",
    "SmallGroupConfig",
    "SmallGroupSampling",
    "SmallGroupWithOutlier",
    "StarSchema",
    "TPCHConfig",
    "Table",
    "UniformConfig",
    "UniformSampling",
    "Workload",
    "WorkloadConfig",
    "ZipfDistribution",
    "example_3_1",
    "execute",
    "expected_sq_rel_err_small_group",
    "expected_sq_rel_err_uniform",
    "figure_3a_series",
    "figure_3b_series",
    "format_query",
    "format_statement",
    "generate_flat_database",
    "generate_flat_table",
    "generate_sales",
    "generate_tpch",
    "generate_workload",
    "load_database",
    "load_samples",
    "load_table",
    "optimal_allocation_ratio",
    "parse",
    "parse_query",
    "pct_groups",
    "rel_err",
    "save_database",
    "save_samples",
    "save_table",
    "score",
    "select_outlier_indices",
    "sq_rel_err",
]
