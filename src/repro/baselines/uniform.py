"""Uniform random sampling baseline.

The classic static technique: one uniform sample of the (joined) database,
queries rewritten against it with results scaled by the inverse sampling
rate.  To support the paper's matched-sample-space comparisons — a query
with ``i`` grouping columns run by small group sampling at base rate ``r``
and allocation ratio ``γ`` touches ``(1 + γ·i)·r·N`` rows, so its uniform
competitor gets a sample of rate ``(1 + γ·i)·r`` — the technique can build
a *family* of samples at several rates and select per query, itself a
trivial instance of dynamic sample selection: :meth:`plan`
returns one piece over the built sample whose rate is closest to the
requested one (the first configured rate by default).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.interfaces import (
    AQPTechnique,
    PreprocessReport,
    SampleTableInfo,
    closest_rate,
)
from repro.core.rewriter import SamplePiece
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.engine.reservoir import as_generator, uniform_sample_indices
from repro.errors import SamplingError


@dataclass(frozen=True)
class UniformConfig:
    """Parameters of the uniform sampling baseline.

    Attributes
    ----------
    rates:
        Sampling rates to pre-build samples for.  A query is answered
        from the built rate closest to the requested one, the first rate
        when none is requested.
    seed:
        RNG seed.
    """

    rates: tuple[float, ...] = (0.01,)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.rates:
            raise SamplingError("at least one sampling rate is required")
        for rate in self.rates:
            if not 0.0 < rate <= 1.0:
                raise SamplingError(f"rate must be in (0, 1], got {rate}")


class UniformSampling(AQPTechnique):
    """Uniform random sampling over the joined view (join synopsis)."""

    name = "uniform"

    def __init__(self, config: UniformConfig | None = None) -> None:
        super().__init__()
        self.config = config or UniformConfig()

    def preprocess(self, db: Database) -> PreprocessReport:
        """Draw one uniform sample of the joined view per configured rate."""
        start = time.perf_counter()
        view = db.joined_view()
        rng = as_generator(self.config.seed)
        n = view.n_rows
        samples = {}
        for rate in self.config.rates:
            k = max(1, round(rate * n))
            indices = uniform_sample_indices(n, k, rng)
            name = f"uniform_{rate:.6f}".rstrip("0").rstrip(".")
            table = view.take(indices).rename(name)
            actual_rate = indices.size / n if n else rate
            samples[rate] = (table, actual_rate)
        self.samples = samples
        elapsed = time.perf_counter() - start
        return self._report(db, elapsed, details={"rates": list(self.config.rates)})

    def sample_tables(self) -> list[SampleTableInfo]:
        """One stored sample table per configured rate."""
        return [
            SampleTableInfo(table=table, kind="uniform", rate=actual)
            for table, actual in self.samples.values()
        ]

    def plan(
        self, samples: dict, query: Query, rate: float | None = None
    ) -> list[SamplePiece]:
        """One piece over the built sample whose rate is closest to ``rate``."""
        table, actual_rate = samples[closest_rate(list(samples), rate)]
        scale = 1.0 / actual_rate
        piece = SamplePiece(
            table=table,
            query=query.with_table(table.name),
            rate=actual_rate,
            variance_weights=np.full(
                table.n_rows, (1.0 - actual_rate) * scale * scale
            ),
            counts_as_exact=False,
            description=f"{table.name} (rate {actual_rate:.4f})",
        )
        return [piece]
