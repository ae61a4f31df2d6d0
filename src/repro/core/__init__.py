"""Core contribution: dynamic sample selection + small group sampling."""

from repro.core.answer import ApproxAnswer, GroupEstimate
from repro.core.combiner import execute_pieces
from repro.core.confidence import (
    bernoulli_count_variance,
    normal_interval,
    z_value,
)
from repro.core.interfaces import (
    AQPTechnique,
    PreprocessReport,
    SampleTableInfo,
)
from repro.core.pair_selection import PairSuggestion, suggest_pair_columns
from repro.core.rewriter import SamplePiece, pieces_to_sql
from repro.core.smallgroup import (
    OverallPart,
    SampleFamily,
    SampleTableMeta,
    SmallGroupConfig,
    SmallGroupSampling,
)
from repro.core.workload_policy import (
    grouping_column_counts,
    small_group_for_workload,
    trim_columns,
)

__all__ = [
    "AQPTechnique",
    "ApproxAnswer",
    "GroupEstimate",
    "OverallPart",
    "PairSuggestion",
    "PreprocessReport",
    "SampleFamily",
    "SamplePiece",
    "SampleTableInfo",
    "SampleTableMeta",
    "SmallGroupConfig",
    "SmallGroupSampling",
    "bernoulli_count_variance",
    "execute_pieces",
    "grouping_column_counts",
    "normal_interval",
    "pieces_to_sql",
    "small_group_for_workload",
    "suggest_pair_columns",
    "trim_columns",
    "z_value",
]
