"""Self-tests of the benchmark harness (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/e2e``; everything
here uses small databases (2,000 and 20,000 fact rows) and finishes in
well under 30 s.
"""

from __future__ import annotations

import json

import pytest

from repro.datagen.tpch import generate_tpch
from repro.engine.executor import execute

from benchmarks.e2e import cli, loadgen, runner, tracing, workloads
from benchmarks.e2e.compare import compare
from benchmarks.e2e.config import WORKLOADS, metric_table
from benchmarks.e2e.oracle import Oracle, same_answer
from benchmarks.e2e.stats import MIN_SAMPLES_BEYOND, percentile, samples_beyond

SMALL_ROWS = 20_000


@pytest.fixture(scope="module")
def small_db():
    return generate_tpch(scale=1.0, z=2.0, rows_per_scale=SMALL_ROWS, seed=5)


# -- statistics ----------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = [15, 20, 35, 40, 50]
    assert percentile(samples, 5) == 15
    assert percentile(samples, 30) == 20
    assert percentile(samples, 40) == 20
    assert percentile(samples, 50) == 35
    assert percentile(samples, 100) == 50
    assert percentile(list(reversed(samples)), 50) == 35
    with pytest.raises(ValueError):
        percentile([], 50)


def test_ten_samples_beyond_rule():
    assert MIN_SAMPLES_BEYOND == 10
    assert samples_beyond(100, 90) == 10  # p90 needs 100 samples ...
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(200, 95) == 10  # ... and p95 needs 200
    assert samples_beyond(199, 95) == 9
    assert samples_beyond(0, 90) == 0


# -- open-loop scheduling ------------------------------------------------
def test_open_loop_times_from_the_due_time():
    """A slow reply delays the next send; that wait counts in its latency."""
    now = [100.0]
    service = iter([0.5, 0.1, 0.1])  # the first reply overruns the 0.3 s period

    def sender(client, op):
        now[0] += next(service)
        return {"ok": True}

    def sleep(seconds):
        now[0] += seconds

    ops = [workloads.AppendOp("t", {"c": [1]})] * 3
    samples = loadgen.open_loop(
        0, ops, 0.3, lambda index, body: True, clock=lambda: now[0], sleep=sleep, sender=sender
    )
    assert loadgen.due_times(100.0, 0.3, 3) == pytest.approx([100.0, 100.3, 100.6])
    assert [s.lateness_s for s in samples] == pytest.approx([0.0, 0.2, 0.0])
    # op 1 was due at 100.3, left at 100.5 and returned at 100.6
    assert [s.latency_s for s in samples] == pytest.approx([0.5, 0.3, 0.1])
    assert all(s.ok for s in samples)


# -- span arithmetic -----------------------------------------------------
def test_self_times_sum_to_the_root():
    tree = tracing.Node("client.request", 10.0, [
        tracing.Node("client.json", 1.0),
        tracing.Node("app.handle", 6.0, [
            tracing.Node("protocol.encode", 2.0),
            tracing.Node("session.sql", 3.0, [
                tracing.Node("query", 2.5, [tracing.Node("parse", 0.5), tracing.Node("piece:a", 1.0),
                                            tracing.Node("piece:b", 0.5)]),
            ]),
        ]),
    ])
    assert tree.self_seconds() == pytest.approx(3.0)
    assert tracing.self_time(tree, "app.handle") == pytest.approx(1.0)
    assert tracing.total(tree, "piece:", prefix=True) == pytest.approx(1.5)
    assert sum(node.self_seconds() for node in tree.walk()) == pytest.approx(tree.seconds)
    assert tracing.budget_gap_pct([tree]) == pytest.approx(0.0)


def test_an_overrunning_child_is_clamped_and_shows_as_a_gap():
    tree = tracing.Node("client.request", 10.0, [
        tracing.Node("app.handle", 4.0, [tracing.Node("protocol.encode", 5.0)]),
    ])
    assert tracing.self_time(tree, "app.handle") == 0.0
    assert tracing.budget_gap_pct([tree]) == pytest.approx(10.0)  # 6 + 0 + 5 = 11 vs 10


# -- oracle --------------------------------------------------------------
def test_oracle_agrees_with_the_engine_on_a_small_star_schema():
    db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=2000, seed=9)
    oracle = Oracle(db)
    ops = workloads.adhoc_queries(db, seed=3, n=64, mode="exact")[:64]
    assert len(ops) == 64
    for op in ops:
        result = execute(db, op.query)
        engine = {key: values[0] for key, values in result.rows.items()}
        is_sum = op.query.aggregates[0].column is not None
        assert same_answer(oracle.answer(op.query), engine, is_sum), op.sql


def test_oracle_counts_appended_rows(small_db):
    oracle = Oracle(small_db)
    template = workloads.template_queries(small_db, seed=1)[0]
    before = sum(oracle.answer(template.query).values())
    batch = workloads.append_batches(small_db, seed=1, n=1)[0]
    oracle.append(batch.rows)
    assert oracle.n_rows == SMALL_ROWS + len(batch.rows["l_orderkey"])
    assert sum(oracle.answer(template.query).values()) >= before
    assert not same_answer({("a",): 1.0}, {("a",): 2.0}, is_sum=False)
    assert same_answer({("a",): 1.0}, {("a",): 1.0 + 1e-12}, is_sum=True)


# -- op lists ------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(small_db, workload):
    def digests(seed):
        ops = runner.build_ops(small_db, workload, seed, seconds=1.0)
        return {phase: workloads.ops_digest(listed) for phase, listed in ops.items()}

    first, again, other = digests(4), digests(4), digests(5)
    assert first == again
    assert first["timed"] != other["timed"]
    # Only ingest_mix appends seeded batches; elsewhere they are the fixed probe.
    assert (first["appends"] != other["appends"]) == (workload == "ingest_mix")


def test_adhoc_list_is_distinct_and_cycles_through_group_widths(small_db):
    ops = workloads.adhoc_queries(small_db, seed=2, n=128, mode="approx")
    assert len(ops) >= 128
    assert len({op.sql for op in ops}) == len(ops)
    for start in range(0, 64, 4):  # every run of four holds each width once
        assert sorted(len(op.query.group_by) for op in ops[start : start + 4]) == [1, 2, 3, 4]
    assert workloads.ops_digest(workloads.panel_queries(small_db)) == workloads.ops_digest(
        workloads.panel_queries(small_db)
    )


# -- --compare -----------------------------------------------------------
def _result_file(path, scale):
    table = metric_table("end_to_end")
    metrics = {name: {"value": 100.0 * scale.get(name, 1.0), "unit": e["unit"]} for name, e in table.items()}
    path.write_text(json.dumps({"workloads": {"dash_repeat": {"metrics": metrics}}}))
    return str(path)


def test_compare_passes_at_the_bound_and_fails_beyond_it(tmp_path, capsys):
    bound = metric_table("end_to_end")["query_p50_ms"]["bound"]
    base = _result_file(tmp_path / "a.json", {})
    at_bound = _result_file(tmp_path / "b.json", {"query_p50_ms": 1.0 + bound})
    beyond = _result_file(tmp_path / "c.json", {"query_p50_ms": 1.0 + bound + 0.01})
    better = _result_file(tmp_path / "d.json", {"throughput_ops_s": 2.0})
    assert compare(base, at_bound)[1]
    rows, agree = compare(base, beyond)
    assert not agree and any("DIFFERS (worse)" in row for row in rows)
    rows, agree = compare(base, better)
    assert not agree and any("DIFFERS (better)" in row for row in rows)
    assert cli.main(["--compare", base, at_bound]) == 0
    assert cli.main(["--compare", base, beyond]) == 1
    assert "query_p50_ms" in capsys.readouterr().out


# -- end to end, small ---------------------------------------------------
def test_timed_and_traced_runs_hold_together_on_a_small_database():
    """One workload through the real subprocess server, then the traced replay."""
    timed = runner.run_timed("ingest_mix", seed=1, seconds=1.5, fact_rows=SMALL_ROWS)
    assert timed["correct"], timed["failures"]
    assert set(timed["metrics"]) == set(metric_table("end_to_end"))
    assert all(metric["value"] > 0 for metric in timed["metrics"].values())
    assert timed["samples"]["appends"] == 3

    traced = tracing.run_traced("dash_repeat", seed=1, seconds=1.5, fact_rows=SMALL_ROWS)
    assert traced["correct"], traced["failures"]
    assert set(traced["metrics"]) == set(metric_table("per_layer"))
    assert traced["metrics"]["obs.budget_gap_pct"]["value"] <= tracing.BUDGET_TOLERANCE_PCT
    assert traced["metrics"]["session.plan_memo_hit_rate"]["value"] == 1.0
