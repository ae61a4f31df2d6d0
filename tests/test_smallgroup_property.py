"""Property-based tests of small group sampling's core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines.uniform import UniformConfig, UniformSampling
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.database import Database
from repro.engine.executor import aggregate_table, execute
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    CompareOp,
    InSet,
    Query,
)
from repro.engine.table import Table

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")
SUM_V = AggregateSpec(AggFunc.SUM, "v", alias="s")
AVG_V = AggregateSpec(AggFunc.AVG, "v", alias="avg")

VALUES_A = [f"a{i}" for i in range(8)]
VALUES_B = [f"b{i}" for i in range(4)]


@st.composite
def random_database(draw):
    n = draw(st.integers(min_value=20, max_value=120))
    # Skewed choice: low indices much more likely.
    weights = np.array([1.0 / (i + 1) ** 1.5 for i in range(len(VALUES_A))])
    weights /= weights.sum()
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    a = rng.choice(VALUES_A, size=n, p=weights)
    b = rng.choice(VALUES_B, size=n)
    v = rng.uniform(0, 100, size=n)
    table = Table.from_dict(
        "t", {"a": [str(x) for x in a], "b": [str(x) for x in b], "v": v.tolist()}
    )
    return Database([table]), seed


@given(
    data=random_database(),
    group_by=st.sampled_from([("a",), ("b",), ("a", "b")]),
    rate=st.sampled_from([0.1, 0.3, 0.6]),
    gamma=st.sampled_from([0.25, 0.5, 1.0]),
    predicate=st.sets(st.sampled_from(VALUES_B), max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_invariants(data, group_by, rate, gamma, predicate):
    db, seed = data
    technique = SmallGroupSampling(
        SmallGroupConfig(
            base_rate=rate,
            allocation_ratio=gamma,
            use_reservoir=False,
            seed=seed,
        )
    )
    technique.preprocess(db)
    where = InSet("b", sorted(predicate)) if predicate else None
    query = Query("t", (COUNT, SUM_V), group_by, where)
    exact = aggregate_table(db.fact_table, query)
    answer = technique.answer(query)

    # 1. No spurious groups: sampling never invents a group.
    assert set(answer.as_dict()) <= set(exact.rows)

    # 2. Exact-marked groups are numerically exact on both aggregates.
    for group in answer.exact_groups():
        assert abs(answer.value(group, "cnt") - exact.rows[group][0]) < 1e-9
        assert abs(answer.value(group, "s") - exact.rows[group][1]) < 1e-6 * max(
            1.0, abs(exact.rows[group][1])
        )

    # 3. Variances are non-negative and zero exactly for exact groups.
    for group, estimates in answer.groups.items():
        for estimate in estimates:
            assert estimate.variance >= 0.0
            if estimate.exact:
                assert estimate.variance == 0.0


def full_rate_techniques(seed):
    """Small group and uniform sampling with the whole database as sample."""
    return (
        SmallGroupSampling(
            SmallGroupConfig(
                base_rate=1.0,
                allocation_ratio=0.2,
                use_reservoir=False,
                seed=seed,
            )
        ),
        UniformSampling(UniformConfig(rates=(1.0,), seed=seed)),
    )


@given(
    data=random_database(),
    group_by=st.sampled_from([("a",), ("a", "b")]),
    min_count=st.sampled_from([None, 2, 5]),
    order=st.sampled_from([None, "cnt", "group"]),
    descending=st.booleans(),
    limit=st.sampled_from([None, 1, 3]),
)
@settings(max_examples=40, deadline=None)
def test_full_rate_recovers_exact_answer(
    data, group_by, min_count, order, descending, limit
):
    """base_rate=1 means the sample is the database: answers equal
    ``execute`` for every query, regardless of the small-group layout,
    after HAVING, ORDER BY and LIMIT too.  Counts are exact at rate 1,
    so HAVING on them keeps the same groups, and ordering by them, with
    the grouping columns breaking ties, keeps the same groups in the
    same order.  Without ORDER BY the group order is the technique's own,
    so a LIMIT there would keep an arbitrary subset: only ordered queries
    get one."""
    db, seed = data
    limit = None if order is None else limit
    by_columns = tuple((column, descending) for column in group_by)
    order_by = {
        None: (),
        "cnt": (("cnt", descending),) + by_columns,
        "group": by_columns,
    }[order]
    having = () if min_count is None else (("cnt", CompareOp.GE, min_count),)
    query = Query(
        "t", (COUNT, SUM_V, AVG_V), group_by,
        order_by=order_by, limit=limit, having=having,
    )
    exact = execute(db, query)
    for technique in full_rate_techniques(seed):
        technique.preprocess(db)
        answer = technique.answer(query)
        groups = list(answer.as_dict())
        if order is None:
            groups.sort(key=list(exact.rows).index)
        assert groups == list(exact.rows)
        for group, row in exact.rows.items():
            assert answer.value(group, "cnt") == row[0]
            for name, expected in zip(("s", "avg"), row[1:]):
                assert abs(answer.value(group, name) - expected) <= 1e-6 * max(
                    1.0, abs(expected)
                )


@given(data=random_database())
@settings(max_examples=25, deadline=None)
def test_pieces_partition_small_group_classes(data):
    """Bitmask de-duplication: across the small-group pieces of a query,
    every class row is counted exactly once (piece raw totals add to the
    union of the used classes)."""
    db, seed = data
    technique = SmallGroupSampling(
        SmallGroupConfig(
            base_rate=0.2,
            allocation_ratio=1.0,
            use_reservoir=False,
            seed=seed,
        )
    )
    technique.preprocess(db)
    query = Query("t", (COUNT,), ("a", "b"))
    pieces = technique.choose_samples(query)
    small_pieces = pieces[:-1]
    counted = 0
    for piece in small_pieces:
        result = aggregate_table(
            piece.table, piece.query, scale=1.0
        )
        counted += int(result.raw_counts.sum())
    # Union of classes: rows belonging to at least one used table's class.
    used = technique.applicable_tables(query)
    if not used:
        assert counted == 0
        return
    member = np.zeros(db.fact_table.n_rows, dtype=bool)
    for i in used:
        member |= technique.samples.classes[i](db.fact_table)
    assert counted == int(member.sum())
