"""The generic dynamic sample selection architecture (Section 3).

Pre-processing (the paper's Figure 1) runs in two steps: examine the data
distribution (and optionally a workload) to *select strata*, then *build
samples* — one or more biased sample tables plus metadata describing them.
At runtime (Figure 2), each incoming query is compared against the
metadata to *choose samples*, rewritten to run against them, and the
partial results are combined into one approximate answer.

:class:`DynamicSampleSelection` encodes that pipeline; concrete policies
(small group sampling, and the baselines re-expressed as trivial
single-sample policies) override the three hook methods.
"""

from __future__ import annotations

import abc
import time

from repro.core.answer import ApproxAnswer
from repro.core.combiner import execute_pieces
from repro.core.interfaces import (
    AQPTechnique,
    PreprocessReport,
    SampleTableInfo,
)
from repro.core.rewriter import SamplePiece
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.engine.table import Table


class DynamicSampleSelection(AQPTechnique):
    """Template for techniques following the dynamic-selection pipeline."""

    def __init__(self) -> None:
        super().__init__()
        self._infos: list[SampleTableInfo] = []

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def select_strata(self, db: Database, view: Table) -> object:
        """Step 1 of pre-processing: examine the data, pick the strata.

        Returns an arbitrary stratification description consumed by
        :meth:`build_samples`.
        """

    @abc.abstractmethod
    def build_samples(
        self, db: Database, view: Table, strata: object
    ) -> list[SampleTableInfo]:
        """Step 2 of pre-processing: build sample tables + metadata."""

    @abc.abstractmethod
    def choose_samples(self, query: Query) -> list[SamplePiece]:
        """Runtime phase: choose samples and rewrite the query."""

    def preprocess_details(self) -> dict:
        """Extra per-technique fields for the preprocess report."""
        return {}

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def preprocess(self, db: Database) -> PreprocessReport:
        """Run both pre-processing steps and report their cost."""
        start = time.perf_counter()
        view = db.joined_view()
        strata = self.select_strata(db, view)
        self._infos = self.build_samples(db, view, strata)
        self._preprocessed = True
        elapsed = time.perf_counter() - start
        return self._report(db, elapsed, details=self.preprocess_details())

    def answer(self, query: Query) -> ApproxAnswer:
        """Choose samples, execute the rewritten pieces, combine."""
        self.require_preprocessed()
        return execute_pieces(self.choose_samples(query), technique=self.name)

    def sample_tables(self) -> list[SampleTableInfo]:
        """All sample tables built during pre-processing."""
        return list(self._infos)
