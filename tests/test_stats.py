"""Tests for the first pre-processing scan (column statistics, L(C))."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.column import Column
from repro.engine.stats import (
    collect_column_stats,
    column_stats,
    per_group_selectivity,
)
from repro.engine.table import Table


def make_table(values):
    return Table("t", {"c": Column.strings(values)})


class TestColumnStats:
    def test_frequencies(self, small_table):
        stats = column_stats(small_table, "a")
        assert stats.frequencies == {"x": 3, "y": 3, "z": 2}
        assert stats.distinct_count == 3
        assert stats.total_count == 8

    def test_values_by_frequency_desc(self):
        stats = column_stats(make_table(["a"] * 5 + ["b"] * 2 + ["c"] * 3), "c")
        assert [v for v, _ in stats.values_by_frequency()] == ["a", "c", "b"]

    def test_values_by_frequency_tie_break_deterministic(self):
        stats = column_stats(make_table(["b", "a"]), "c")
        assert [v for v, _ in stats.values_by_frequency()] == ["a", "b"]


class TestCommonValues:
    def test_paper_definition_example(self):
        # 90 Stereo / 10 TV with t = 0.15: common must cover >= 85 rows.
        stats = column_stats(make_table(["Stereo"] * 90 + ["TV"] * 10), "c")
        assert stats.common_values(0.15) == {"Stereo"}

    def test_t_zero_everything_common(self):
        stats = column_stats(make_table(["a", "b", "b"]), "c")
        assert stats.common_values(0.0) == {"a", "b"}

    def test_t_one_nothing_common(self):
        stats = column_stats(make_table(["a", "b"]), "c")
        assert stats.common_values(1.0) == set()

    def test_invalid_fraction(self):
        stats = column_stats(make_table(["a"]), "c")
        with pytest.raises(ValueError):
            stats.common_values(1.5)

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
        t=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_minimality_and_coverage(self, counts, t):
        values = [v for i, c in enumerate(counts) for v in [f"v{i}"] * c]
        stats = column_stats(make_table(values), "c")
        common = stats.common_values(t)
        n = stats.total_count
        covered = sum(stats.frequencies[v] for v in common)
        uncommon_rows = n - covered
        # Rows outside L(C) fit in the small group table: <= N*t.
        assert uncommon_rows <= n * t + 1e-9
        # Minimality: dropping the least frequent common value breaks coverage.
        if common:
            weakest = min(common, key=lambda v: stats.frequencies[v])
            assert covered - stats.frequencies[weakest] < n * (1 - t)


class TestCollect:
    def test_threshold_drops_wide_columns(self):
        t = Table(
            "t",
            {
                "narrow": Column.strings(["a", "b"] * 10),
                "wide": Column.ints(range(20)),
            },
        )
        stats = collect_column_stats(t, distinct_threshold=5)
        assert "narrow" in stats
        assert "wide" not in stats

    def test_explicit_column_list(self, small_table):
        stats = collect_column_stats(small_table, columns=["a"])
        assert set(stats) == {"a"}

    def test_includes_numeric_columns_when_small(self, small_table):
        stats = collect_column_stats(small_table)
        assert "b" in stats
        assert stats["b"].frequencies == {1: 5, 2: 3}


def unique_frequencies(col):
    """The frequency map as the sorting scan built it: ``numpy.unique``."""
    values, counts = np.unique(col.data, return_counts=True)
    if col.dictionary is not None:
        return {col.dictionary[v]: c for v, c in zip(values.tolist(), counts.tolist())}
    return dict(zip(values.tolist(), counts.tolist()))


class TestCountingHistogram:
    """Dictionary columns are counted, not sorted; the map must not change."""

    @pytest.fixture(scope="class")
    def table(self):
        rng = np.random.default_rng(5)
        n = 3000
        sparse_dictionary = tuple(f"v{i:03d}" for i in range(50))
        return Table(
            "t",
            {
                # Codes 0, 7 and 49 only: most dictionary entries unused.
                "sparse": Column.from_codes(
                    rng.choice([49, 0, 7], size=n), sparse_dictionary
                ),
                # Dictionary (5000 entries) larger than the column.
                "oversized": Column.from_codes(
                    rng.integers(0, 5000, size=n),
                    tuple(f"w{i}" for i in range(5000)),
                ),
                "exactly_six": Column.from_codes(
                    np.arange(n) % 6, tuple("abcdefgh")
                ),
                "seven": Column.from_codes(np.arange(n) % 7, tuple("abcdefgh")),
                "ints": Column.ints(rng.integers(-3, 3, size=n)),
                "floats": Column.floats(rng.integers(0, 4, size=n) / 4.0),
            },
        )

    def test_equal_maps_and_key_order(self, table):
        stats = collect_column_stats(table, distinct_threshold=5000)
        assert set(stats) == set(table.column_names)
        for name, column_stat in stats.items():
            expected = unique_frequencies(table.column(name))
            assert column_stat.frequencies == expected
            assert list(column_stat.frequencies) == list(expected)
            assert table.column(name).value_counts() == expected
            assert table.column(name).distinct_count() == len(expected)

    def test_threshold_boundary_counts_present_values_only(self, table):
        # A column is kept at exactly the threshold and dropped one above
        # it; unused dictionary entries (8 > 6) do not count.
        stats = collect_column_stats(table, distinct_threshold=6)
        assert set(stats) == {"sparse", "exactly_six", "ints", "floats"}


class TestPerGroupSelectivity:
    def test_basic(self):
        assert per_group_selectivity([10, 20, 30], 100) == pytest.approx(0.2)

    def test_empty(self):
        assert per_group_selectivity([], 100) == 0.0
        assert per_group_selectivity([1], 0) == 0.0
