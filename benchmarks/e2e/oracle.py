"""Plain-numpy ground truth, sharing no execution code with ``repro.engine``.

The oracle reads the stored column arrays of a loaded database (codes
plus dictionaries for strings, numbers as they are), performs the
foreign-key joins itself with ``searchsorted``, filters with its own
lookup tables and groups with ``np.unique`` — so an engine bug in
joining, masking, caching, skipping or aggregation cannot hide in it.
It interprets only the query *description* (``Query`` with ``InSet``
predicates, COUNT and SUM), which is data, not engine behaviour.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.database import Database
from repro.engine.expressions import AggFunc, And, InSet, Query

#: SUM tolerance: the engine may add in another order than the oracle.
SUM_RTOL = 1e-9


class Oracle:
    """Exact answers over the base database plus any appended batches."""

    def __init__(self, db: Database) -> None:
        fact = db.fact_table
        self._fact_rows = fact.n_rows
        #: column name -> (stored Column, row positions into it or None)
        self._sources: dict[str, tuple] = {
            name: (fact.column(name), None) for name in fact.column_names
        }
        for fk in db.star_schema.foreign_keys:
            dim = db.table(fk.dimension_table)
            keys = dim.column(fk.dimension_key).data
            order = np.argsort(keys, kind="stable")
            references = fact.column(fk.fact_column).data
            positions = order[np.searchsorted(keys[order], references)]
            if not np.array_equal(keys[positions], references):
                raise ValueError(f"dangling foreign key in {fk.fact_column}")
            for name in dim.column_names:
                self._sources[name] = (dim.column(name), positions)
        self._appended: list[dict[str, list]] = []
        self._cache: dict[str, tuple[int, np.ndarray]] = {}

    @property
    def n_rows(self) -> int:
        return self._fact_rows + sum(
            len(next(iter(batch.values()))) for batch in self._appended
        )

    def append(self, rows: dict[str, list]) -> None:
        """Record one view-shaped batch as appended to the fact table."""
        self._appended.append(rows)

    def _values(self, name: str) -> tuple[np.ndarray, tuple | None]:
        """Per-row data of ``name`` over base + appended rows.

        Strings come back as codes into the returned dictionary.
        """
        column, positions = self._sources[name]
        dictionary = column.dictionary
        cached = self._cache.get(name)
        if cached is None or cached[0] != len(self._appended):
            base = column.data if positions is None else column.data[positions]
            parts = [base]
            if dictionary is not None:
                code_of = {value: code for code, value in enumerate(dictionary)}
            for batch in self._appended:
                if dictionary is None:
                    parts.append(np.asarray(batch[name], dtype=base.dtype))
                else:
                    parts.append(
                        np.fromiter(
                            (code_of[value] for value in batch[name]),
                            dtype=base.dtype,
                            count=len(batch[name]),
                        )
                    )
            cached = (len(self._appended), np.concatenate(parts))
            self._cache[name] = cached
        return cached[1], dictionary

    def _mask(self, predicate) -> np.ndarray:
        if isinstance(predicate, And):
            mask = self._mask(predicate.operands[0])
            for operand in predicate.operands[1:]:
                mask &= self._mask(operand)
            return mask
        if not isinstance(predicate, InSet):
            raise NotImplementedError(f"oracle cannot evaluate {predicate!r}")
        data, dictionary = self._values(predicate.column)
        if dictionary is None:
            return np.isin(data, np.asarray(predicate.values))
        members = set(predicate.values)
        wanted = np.fromiter(
            (value in members for value in dictionary), dtype=bool, count=len(dictionary)
        )
        return wanted[data]

    def answer(self, query: Query) -> dict[tuple, float]:
        """``group tuple -> first aggregate`` for ``query`` (COUNT or SUM)."""
        n = self.n_rows
        keep = np.ones(n, dtype=bool) if query.where is None else self._mask(query.where)
        selected = np.flatnonzero(keep)
        columns = [self._values(name) for name in query.group_by]
        combined = np.zeros(len(selected), dtype=np.int64)
        for data, dictionary in columns:
            if dictionary is None:
                raise NotImplementedError("oracle groups by string columns only")
            combined = combined * len(dictionary) + data[selected]
        keys, inverse = np.unique(combined, return_inverse=True)
        aggregate = query.aggregates[0]
        if aggregate.func is AggFunc.COUNT:
            totals = np.bincount(inverse, minlength=len(keys)).astype(float)
        elif aggregate.func is AggFunc.SUM:
            measure, _ = self._values(aggregate.column)
            totals = np.bincount(
                inverse, weights=measure[selected].astype(float), minlength=len(keys)
            )
        else:
            raise NotImplementedError(f"oracle cannot compute {aggregate.func}")
        answer: dict[tuple, float] = {}
        for key, total in zip(keys.tolist(), totals.tolist()):
            group = []
            for _, dictionary in reversed(columns):
                key, code = divmod(key, len(dictionary))
                group.append(dictionary[code])
            answer[tuple(reversed(group))] = total
        return answer


def same_answer(truth: dict[tuple, float], served: dict[tuple, float], is_sum: bool) -> bool:
    """Group sets equal; COUNT exact, SUM within ``SUM_RTOL``."""
    if truth.keys() != served.keys():
        return False
    if is_sum:
        return all(
            math.isclose(truth[g], served[g], rel_tol=SUM_RTOL, abs_tol=0.0)
            for g in truth
        )
    return all(truth[g] == served[g] for g in truth)
