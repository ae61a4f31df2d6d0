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

Each top-level name is imported from its subpackage on first use
(PEP 562), so importing ``repro`` loads none of them: a served process
loads only the product's packages, never the paper reproduction's
(``analysis``, ``baselines``, ``datagen``, ``experiments``,
``metrics``).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the paper
reproduction results.
"""

import importlib

__version__ = "1.0.0"

#: Public name → the subpackage it is imported from.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.analysis": (
            "AnalysisScenario", "expected_sq_rel_err_small_group",
            "expected_sq_rel_err_uniform", "figure_3a_series",
            "figure_3b_series", "optimal_allocation_ratio",
        ),
        "repro.baselines": (
            "BasicCongress", "CongressConfig", "HybridConfig", "OutlierConfig",
            "OutlierIndexing", "SmallGroupWithOutlier", "UniformConfig",
            "UniformSampling", "select_outlier_indices",
        ),
        "repro.core": (
            "AQPTechnique", "ApproxAnswer", "GroupEstimate",
            "PreprocessReport", "SamplePiece", "SampleTableInfo",
            "SmallGroupConfig", "SmallGroupSampling",
        ),
        "repro.datagen": (
            "SalesConfig", "TPCHConfig", "ZipfDistribution", "example_3_1",
            "generate_flat_database", "generate_flat_table", "generate_sales",
            "generate_tpch",
        ),
        "repro.engine": (
            "AggFunc", "AggregateSpec", "Column", "Database", "ForeignKey",
            "GroupedResult", "InSet", "Query", "StarSchema", "Table",
            "execute",
        ),
        "repro.errors": ("ReproError",),
        "repro.metrics": ("pct_groups", "rel_err", "score", "sq_rel_err"),
        "repro.middleware": ("AQPSession", "SessionResult"),
        "repro.sql": ("format_query", "format_statement", "parse", "parse_query"),
        "repro.storage": (
            "load_database", "load_samples", "load_table", "save_database",
            "save_samples", "save_table",
        ),
        "repro.workload": ("Workload", "WorkloadConfig", "generate_workload"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a public name from its subpackage on first use."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
