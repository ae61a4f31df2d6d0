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
from repro.core.rewriter import SamplePiece, pieces_to_sql
from repro.core.smallgroup import (
    OverallPart,
    SampleFamily,
    SampleTableMeta,
    SmallGroupConfig,
    SmallGroupSampling,
)

__all__ = [
    "AQPTechnique",
    "ApproxAnswer",
    "GroupEstimate",
    "OverallPart",
    "PreprocessReport",
    "SampleFamily",
    "SamplePiece",
    "SampleTableInfo",
    "SampleTableMeta",
    "SmallGroupConfig",
    "SmallGroupSampling",
    "bernoulli_count_variance",
    "execute_pieces",
    "normal_interval",
    "pieces_to_sql",
    "z_value",
]
