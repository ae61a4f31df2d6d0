"""Small group sampling enhanced with outlier indexing (Section 4.2.1).

The paper notes that small group sampling is orthogonal to weighted
sampling of the overall sample: "it is also possible to use a non-uniform
sampling technique to construct the overall sample; for example ... we use
outlier indexing to construct the overall sample."  This technique does
exactly that: the small group tables are built as usual, while the overall
sample's row budget (``base_rate · N``) is split between an exact outlier
stratum — selected on a measure column per [9] — and a uniform sample of
the remaining rows.  Both overall parts carry the small-group bitmask and
are filtered against used small group tables at runtime, so the combining
logic is unchanged.

Section 5.3.3 compares this hybrid against outlier indexing alone on SUM
queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.outlier import select_outlier_indices
from repro.core.smallgroup import (
    OverallPart,
    SmallGroupConfig,
    SmallGroupSampling,
    Store,
)
from repro.engine.reservoir import uniform_sample_indices
from repro.engine.table import Table
from repro.errors import PreprocessingError, SamplingError


@dataclass(frozen=True)
class HybridConfig(SmallGroupConfig):
    """Small-group config plus the outlier-index parameters.

    Attributes
    ----------
    measure:
        Measure column the outlier set is selected on.
    outlier_share:
        Fraction of the overall-sample budget stored as exact outliers.
    """

    measure: str = ""
    outlier_share: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.measure:
            raise SamplingError("hybrid small group sampling needs a measure")
        if not 0.0 < self.outlier_share < 1.0:
            raise SamplingError(
                f"outlier share must be in (0, 1), got {self.outlier_share}"
            )


class SmallGroupWithOutlier(SmallGroupSampling):
    """Small group sampling whose overall sample is outlier-indexed."""

    name = "small_group+outlier"

    def __init__(self, config: HybridConfig) -> None:
        super().__init__(config)
        self.config: HybridConfig = config

    def build_overall_parts(
        self,
        view: Table,
        store: Store,
        rng: np.random.Generator,
    ) -> list[OverallPart]:
        """Outlier stratum + uniform remainder within the overall budget."""
        if not view.has_column(self.config.measure):
            raise PreprocessingError(
                f"no measure column {self.config.measure!r}"
            )
        n = view.n_rows
        budget = max(2, round(self.config.base_rate * n))
        k = max(1, round(self.config.outlier_share * budget))
        values = view.column(self.config.measure).numeric_values()
        outlier_idx = select_outlier_indices(values, k)
        keep = np.ones(n, dtype=bool)
        keep[outlier_idx] = False
        rest_idx = np.flatnonzero(keep)
        sample_size = max(1, budget - outlier_idx.size)
        sampled = rest_idx[
            uniform_sample_indices(rest_idx.size, sample_size, rng)
        ]
        remainder_rate = sampled.size / rest_idx.size if rest_idx.size else 1.0

        outliers = store(outlier_idx, "sg_outliers")
        remainder = store(sampled, "sg_overall")
        return [
            OverallPart(table=outliers, rate=1.0, zero_variance=True),
            OverallPart(table=remainder, rate=remainder_rate),
        ]
