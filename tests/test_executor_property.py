"""Property-based tests: the vectorised executor equals a reference."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine import executor as executor_module
from repro.engine.column import Column
from repro.engine.executor import aggregate_table, dense_ids
from repro.engine.expressions import AggFunc, AggregateSpec, InSet, Query
from repro.engine.table import Table

from tests.test_executor import reference_aggregate

LETTERS = ["a", "b", "c", "d"]


@st.composite
def random_table(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    g1 = draw(st.lists(st.sampled_from(LETTERS), min_size=n, max_size=n))
    g2 = draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    )
    v = draw(
        st.lists(
            st.floats(
                min_value=-1000, max_value=1000, allow_nan=False, width=32
            ),
            min_size=n,
            max_size=n,
        )
    )
    return Table.from_dict("t", {"g1": g1, "g2": g2, "v": [float(x) for x in v]})


@given(
    table=random_table(),
    group_by=st.sampled_from([(), ("g1",), ("g2",), ("g1", "g2"), ("g2", "g1")]),
    agg=st.sampled_from(
        [
            (AggregateSpec(AggFunc.COUNT, alias="cnt"),),
            (AggregateSpec(AggFunc.SUM, "v", alias="s"),),
            (
                AggregateSpec(AggFunc.COUNT, alias="cnt"),
                AggregateSpec(AggFunc.SUM, "v", alias="s"),
            ),
            (AggregateSpec(AggFunc.MIN, "v"), AggregateSpec(AggFunc.MAX, "v")),
        ]
    ),
    predicate_values=st.sets(st.sampled_from(LETTERS), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_aggregate_matches_reference(table, group_by, agg, predicate_values):
    where = InSet("g1", sorted(predicate_values)) if predicate_values else None
    query = Query("t", agg, group_by, where)
    result = aggregate_table(table, query)
    expected = reference_aggregate(table, query)
    assert set(result.rows) == set(expected)
    for key, values in expected.items():
        got = result.rows[key]
        assert len(got) == len(values)
        for g, e in zip(got, values):
            assert abs(g - e) <= 1e-6 * max(1.0, abs(e))


@given(
    table=random_table(),
    weights=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    scale=st.floats(min_value=0.1, max_value=200.0, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_weighted_scaled_count(table, weights, scale):
    n = table.n_rows
    w = np.full(n, weights)
    query = Query("t", (AggregateSpec(AggFunc.COUNT, alias="c"),), ("g1",))
    result = aggregate_table(table, query, weights=w, scale=scale)
    expected = reference_aggregate(table, query, weights=w.tolist(), scale=scale)
    for key, values in expected.items():
        assert result.rows[key][0] == np.float64(values[0]) or abs(
            result.rows[key][0] - values[0]
        ) <= 1e-9 * abs(values[0])


@given(
    columns=st.lists(
        st.lists(st.integers(min_value=0, max_value=5), min_size=5, max_size=5),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_dense_ids_equals_tuple_grouping(columns):
    arrays = [np.asarray(c) for c in columns]
    ids, n_groups = dense_ids(arrays)
    tuples = list(zip(*(a.tolist() for a in arrays)))
    # Same partition: two rows share an id iff they share a tuple.
    for i in range(len(tuples)):
        for j in range(len(tuples)):
            assert (ids[i] == ids[j]) == (tuples[i] == tuples[j])
    assert n_groups == len(set(tuples))


# ----------------------------------------------------------------------
# Filter-first GROUP BY kernel vs the densify-everything reference
# ----------------------------------------------------------------------
GROUP_COLUMNS = ("s", "i", "f", "t")
COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")
SUM_V = AggregateSpec(AggFunc.SUM, "v", alias="s_v")
AVG_V = AggregateSpec(AggFunc.AVG, "v", alias="a_v")


def reference_grouped(table, query, weights=None, variance_weights=None, scale=1.0):
    """Group ids over the *whole* table by sorting, then ``ids[selection]``.

    The pre-kernel algorithm, kept here as the reference: every grouping
    column is densified with ``np.unique(return_index, return_inverse)``,
    the joint ids likewise over all rows, the WHERE is applied afterwards
    and groups left empty are dropped.  Returns ``(rows, raw_counts,
    sum_squares, sum_cross)`` as insertion-ordered dicts.
    """
    n = table.n_rows
    selection = (
        np.arange(n)
        if query.where is None
        else np.flatnonzero(query.where.evaluate(table))
    )
    columns = [table.column(name) for name in query.group_by]
    if columns:
        inverses = [
            np.unique(col.data, return_inverse=True)[1].reshape(-1)
            for col in columns
        ]
        _, first_rows, ids = np.unique(
            np.stack(inverses, axis=1),
            axis=0,
            return_index=True,
            return_inverse=True,
        )
        keys = [tuple(col[int(r)] for col in columns) for r in first_rows]
        ids = ids.reshape(-1)[selection]
    else:
        keys, ids = [()], np.zeros(selection.size, dtype=np.int64)
    n_groups = len(keys)
    w = None if weights is None else weights[selection]
    vw = (
        variance_weights[selection]
        if variance_weights is not None
        else np.full(selection.size, scale * scale)
        if w is None
        else (w * scale) ** 2
    )
    raw = np.bincount(ids, minlength=n_groups)
    weighted = raw.astype(np.float64) if w is None else np.bincount(
        ids, weights=w, minlength=n_groups
    )
    per_aggregate, squares, crosses = [], {}, {}
    for agg in query.aggregates:
        if agg.func is AggFunc.COUNT:
            per_aggregate.append(weighted * scale)
            squares[agg.name] = np.bincount(ids, weights=vw, minlength=n_groups)
            continue
        values = table.column(agg.column).numeric_values()[selection]
        values = values.astype(np.float64)
        sums = np.bincount(
            ids, weights=values if w is None else values * w, minlength=n_groups
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            per_aggregate.append(
                sums * scale if agg.func is AggFunc.SUM else sums / weighted
            )
        squares[agg.name] = np.bincount(
            ids, weights=values * values * vw, minlength=n_groups
        )
        crosses[agg.name] = np.bincount(
            ids, weights=values * vw, minlength=n_groups
        )
    live = [g for g in range(n_groups) if raw[g] > 0]
    return (
        {keys[g]: tuple(float(a[g]) for a in per_aggregate) for g in live},
        {keys[g]: int(raw[g]) for g in live},
        {name: {keys[g]: float(a[g]) for g in live} for name, a in squares.items()},
        {name: {keys[g]: float(a[g]) for g in live} for name, a in crosses.items()},
    )


def assert_same_as_reference(table, query, **kwargs):
    """Byte-equal values *and* dict iteration order on all four mappings."""
    result = aggregate_table(table, query, collect_variance_stats=True, **kwargs)
    rows, raw_counts, sum_squares, sum_cross = reference_grouped(
        table, query, **kwargs
    )
    assert list(result.rows.items()) == list(rows.items())
    assert list(result.raw_counts.items()) == list(raw_counts.items())
    assert set(result.sum_squares) == set(sum_squares)
    for name, expected in sum_squares.items():
        assert list(result.sum_squares[name].items()) == list(expected.items())
    assert set(result.sum_cross) == set(sum_cross)
    for name, expected in sum_cross.items():
        assert list(result.sum_cross[name].items()) == list(expected.items())
    return result


@st.composite
def grouping_table(draw):
    """String / int / float / string grouping columns plus a 0-1 selector."""
    n = draw(st.integers(min_value=0, max_value=60))

    def column(values):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    return Table(
        "t",
        {
            "s": Column.strings(column(["ash", "birch", "cedar", "elm", "fir"])),
            "i": Column.ints(column([-7, 0, 3, 40, 1000])),
            "f": Column.floats(column([-1.25, 0.5, 3.0, 1e9])),
            "t": Column.strings(column(["x", "y", "z"])),
            "keep": Column.ints(column([0, 1])),
            "v": Column.floats(
                draw(
                    st.lists(
                        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                        min_size=n,
                        max_size=n,
                    )
                )
            ),
        },
    )


@given(
    table=grouping_table(),
    group_by=st.lists(
        st.sampled_from(GROUP_COLUMNS), unique=True, max_size=4
    ).map(tuple),
    filtered=st.booleans(),
    weighted=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_sorting_reference(table, group_by, filtered, weighted, seed):
    where = InSet("keep", [1]) if filtered else None
    query = Query("t", (COUNT, SUM_V, AVG_V), group_by, where)
    kwargs = {}
    if weighted:
        rng = np.random.default_rng(seed)
        kwargs = dict(
            weights=rng.uniform(0.5, 20.0, table.n_rows),
            variance_weights=rng.uniform(0.0, 5.0, table.n_rows),
            scale=float(rng.uniform(0.5, 100.0)),
        )
    assert_same_as_reference(table, query, **kwargs)


def wide_table(n_rows, dictionary_sizes, seed=0):
    """String columns ``c0..`` whose dictionaries mostly hold unused entries."""
    rng = np.random.default_rng(seed)
    columns = {
        f"c{j}": Column.from_codes(
            rng.integers(0, size, n_rows), [f"{j}_{k:05d}" for k in range(size)]
        )
        for j, size in enumerate(dictionary_sizes)
    }
    columns["keep"] = Column.ints(rng.integers(0, 2, n_rows))
    columns["v"] = Column.floats(rng.normal(size=n_rows))
    return Table("t", columns)


class TestKernelPinnedCases:
    def test_empty_selection_has_no_groups(self):
        table = wide_table(50, (3, 4))
        nothing = InSet("keep", [7])
        for group_by in ((), ("c0",), ("c0", "c1")):
            result = assert_same_as_reference(
                table, Query("t", (COUNT, SUM_V), group_by, nothing)
            )
            assert result.rows == {}

    def test_no_where_no_group_by(self):
        table = wide_table(50, (3,))
        result = assert_same_as_reference(table, Query("t", (COUNT, SUM_V)))
        assert result.raw_counts == {(): 50}

    def test_one_to_four_columns(self):
        table = wide_table(400, (3, 4, 5, 6))
        for width in range(1, 5):
            group_by = tuple(f"c{j}" for j in range(width))
            assert_same_as_reference(table, Query("t", (COUNT, SUM_V), group_by))
            assert_same_as_reference(
                table, Query("t", (COUNT, AVG_V), group_by, InSet("keep", [1]))
            )

    def test_dictionary_larger_than_the_column(self):
        # 5,000 entries for 30 rows: beyond the dictionary fast path, so the
        # column's codes are re-densified; keys must still decode correctly.
        table = wide_table(30, (5000, 3))
        result = assert_same_as_reference(
            table, Query("t", (COUNT,), ("c0", "c1"), InSet("keep", [1]))
        )
        assert all(key[0].startswith("0_") for key in result.rows)

    def test_either_side_of_the_dense_bound(self, monkeypatch):
        # 32 x 32 = 1,024 cells is the largest key space densified by
        # counting for a small selection; 41 x 25 = 1,025 sorts instead.
        where = InSet("keep", [1])
        for sizes in ((32, 32), (41, 25)):
            table = wide_table(200, sizes, seed=sum(sizes))
            query = Query("t", (COUNT, SUM_V), ("c0", "c1"), where)
            natural = assert_same_as_reference(table, query)
            for floor in (0, 10**9):  # force the sorted, then the dense branch
                with monkeypatch.context() as patch:
                    patch.setattr(executor_module, "_DENSE_KEY_FLOOR", floor)
                    patch.setattr(executor_module, "_DENSE_KEY_SLACK", 0)
                    forced = assert_same_as_reference(table, query)
                assert list(forced.rows.items()) == list(natural.rows.items())

    def test_key_space_beyond_int64_uses_the_row_matrix(self):
        sizes = (1024,) * 7  # 2**70 cells
        assert np.prod([float(s) for s in sizes]) >= executor_module._RADIX_LIMIT
        table = wide_table(120, sizes)
        group_by = tuple(f"c{j}" for j in range(7))
        assert_same_as_reference(table, Query("t", (COUNT, SUM_V), group_by))
        assert_same_as_reference(
            table, Query("t", (COUNT, SUM_V), group_by, InSet("keep", [1]))
        )

    def test_weighted_piece_scan_with_variance_stats(self):
        table = wide_table(500, (6, 5))
        rng = np.random.default_rng(5)
        assert_same_as_reference(
            table,
            Query("t", (COUNT, SUM_V, AVG_V), ("c0", "c1"), InSet("keep", [1])),
            weights=rng.uniform(1.0, 100.0, 500),
            variance_weights=rng.uniform(0.0, 9.0, 500),
            scale=100.0,
        )
