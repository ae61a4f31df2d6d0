"""Common interfaces for AQP techniques.

Every technique in this library — small group sampling and all baselines —
is one instance of the paper's Section 3 pipeline:

* :meth:`AQPTechnique.preprocess` scans the database and builds a family
  of sample tables (possibly many, possibly biased), returning a
  :class:`PreprocessReport` with the time/space accounting that Section
  5.4.2 reports; :meth:`AQPTechnique.sample_tables` lists them;
* :meth:`AQPTechnique.plan` compares a query against a version of the
  stored samples and returns the rewritten
  :class:`~repro.core.rewriter.SamplePiece` list — the technique's whole
  runtime policy (:meth:`AQPTechnique.choose_samples` plans against the
  current version);
* :meth:`AQPTechnique.answer` executes those pieces and combines them into
  an :class:`~repro.core.answer.ApproxAnswer` — the same code for every
  technique.

The baselines are single-sample (or outlier + remainder) policies that
pick the stored sample whose rate is closest to a requested one
(:func:`closest_rate`); small group sampling picks per grouping column.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.answer import ApproxAnswer
from repro.core.combiner import execute_pieces
from repro.core.rewriter import SamplePiece
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.engine.table import Table
from repro.errors import RuntimePhaseError


@dataclass(frozen=True)
class SampleTableInfo:
    """One stored sample table plus its sampling metadata.

    Attributes
    ----------
    table:
        The sample rows (a join synopsis for star schemas: dimension
        columns are materialised inline).
    kind:
        Role of the table: ``"small_group"``, ``"overall"``,
        ``"outlier"``, ``"stratified"``, ``"uniform"`` or ``"workload"``.
    rate:
        Nominal sampling rate used to build the table (1.0 for
        100%-sampled small group / outlier tables).
    weights:
        Optional per-row weights (inverse inclusion probabilities) for
        non-uniformly sampled tables.
    """

    table: Table
    kind: str
    rate: float
    weights: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        """Number of rows stored."""
        return self.table.n_rows


@dataclass
class PreprocessReport:
    """Cost accounting for a technique's pre-processing phase.

    Attributes
    ----------
    technique:
        Technique name.
    wall_time_seconds:
        Time spent building samples.
    sample_rows:
        Total rows across all sample tables.
    sample_bytes:
        Approximate bytes across all sample tables.
    database_rows / database_bytes:
        Size of the source database (joined view), for overhead ratios.
    n_sample_tables:
        Number of sample tables built.
    details:
        Free-form per-technique extras (e.g. small group table sizes).
    """

    technique: str
    wall_time_seconds: float
    sample_rows: int
    sample_bytes: int
    database_rows: int
    database_bytes: int
    n_sample_tables: int
    details: dict = field(default_factory=dict)

    @property
    def space_overhead(self) -> float:
        """Sample bytes as a fraction of database bytes (Section 5.4.2)."""
        if self.database_bytes == 0:
            return 0.0
        return self.sample_bytes / self.database_bytes

    @property
    def row_overhead(self) -> float:
        """Sample rows as a fraction of database rows."""
        if self.database_rows == 0:
            return 0.0
        return self.sample_rows / self.database_rows


class AQPTechnique(abc.ABC):
    """Base class for approximate query processing techniques."""

    #: Short technique name used in reports and answers.
    name: str = "abstract"

    def __init__(self) -> None:
        #: The samples this technique answers from: ``None`` until
        #: :meth:`preprocess` builds them (or stored ones are adopted).
        #: Every rebuild or append assigns a new value, never edits one,
        #: so a session pins it per query and keys plan memos by its
        #: identity.
        self.samples: Any = None
        #: Cost report for the samples this technique holds: set when
        #: :meth:`preprocess` builds them, or when stored samples are
        #: adopted (:func:`repro.storage.load_samples`); ``None`` before.
        self.report: PreprocessReport | None = None

    @abc.abstractmethod
    def preprocess(self, db: Database) -> PreprocessReport:
        """Scan the database and build this technique's sample tables."""

    @abc.abstractmethod
    def sample_tables(self) -> list[SampleTableInfo]:
        """All sample tables this technique stores."""

    @abc.abstractmethod
    def plan(
        self, samples: Any, query: Query, rate: float | None = None
    ) -> list[SamplePiece]:
        """Choose among ``samples`` for ``query`` and rewrite it against them.

        A pure function: ``samples`` is any version of :attr:`samples`,
        so a caller that pinned one plans against it while an append
        publishes the next.  ``rate`` requests a per-query
        sample space (the matched-space harness of Section 5.2.3 passes
        one); ``None`` means the technique's default.  Techniques whose
        policy fixes the space themselves may ignore it.
        """

    def choose_samples(
        self, query: Query, rate: float | None = None
    ) -> list[SamplePiece]:
        """:meth:`plan` against the samples this technique holds now."""
        return self.plan(self.samples, query, rate)

    def answer(self, query: Query, rate: float | None = None) -> ApproxAnswer:
        """Answer ``query`` approximately: choose samples, execute, combine."""
        self.require_preprocessed()
        return execute_pieces(
            self.choose_samples(query, rate), technique=self.name
        )

    def supports_incremental_maintenance(self) -> bool:
        """Whether ``insert_rows`` maintains the samples.

        ``False`` here: appends to the base data leave the samples as
        built until the next :meth:`preprocess`.
        """
        return False

    def require_preprocessed(self) -> None:
        """Raise unless :meth:`preprocess` has completed."""
        if self.samples is None:
            raise RuntimePhaseError(
                f"{self.name}: preprocess() must run before answering queries"
            )

    def _report(
        self,
        db: Database,
        wall_time_seconds: float,
        details: dict | None = None,
    ) -> PreprocessReport:
        """Report on the current sample tables, kept as :attr:`report`."""
        infos = self.sample_tables()
        view_rows = db.fact_table.n_rows
        self.report = PreprocessReport(
            technique=self.name,
            wall_time_seconds=wall_time_seconds,
            sample_rows=sum(i.n_rows for i in infos),
            sample_bytes=sum(i.table.memory_bytes() for i in infos),
            database_rows=view_rows,
            database_bytes=db.total_bytes(),
            n_sample_tables=len(infos),
            details=details or {},
        )
        return self.report


def closest_rate(rates: Sequence[float], rate: float | None) -> float:
    """The built rate closest to ``rate``; the first one when ``None``.

    Ties go to the earlier entry of ``rates``.
    """
    if not rates:
        raise RuntimePhaseError("no samples built")
    if rate is None:
        return rates[0]
    return min(rates, key=lambda r: abs(r - rate))
