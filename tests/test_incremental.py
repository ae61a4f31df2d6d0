"""Tests for incremental maintenance of small group sampling."""

import numpy as np
import pytest

from repro.baselines.hybrid import HybridConfig, SmallGroupWithOutlier
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine.database import Database
from repro.engine.executor import aggregate_table, execute
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.errors import SamplingError

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")

SPEC = dict(
    categoricals=[
        CategoricalSpec("color", 30, 1.6),
        CategoricalSpec("status", 4, 0.8),
    ],
    measures=[MeasureSpec("amount", distribution="lognormal")],
)


def make_db(n_rows, seed):
    return Database([generate_flat_table("flat", n_rows, seed=seed, **SPEC)])


def make_batch(n_rows, seed):
    return generate_flat_table("flat", n_rows, seed=seed, **SPEC)


@pytest.fixture()
def technique():
    db = make_db(4000, seed=31)
    sg = SmallGroupSampling(
        SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=31)
    )
    sg.preprocess(db)
    return db, sg


class TestInsertRows:
    def test_supported_for_basic_algorithm(self, technique):
        _, sg = technique
        assert sg.samples.appendable

    def test_hybrid_rejects_insert(self):
        db = make_db(2000, seed=32)
        hybrid = SmallGroupWithOutlier(
            HybridConfig(
                base_rate=0.05, measure="amount", use_reservoir=False
            )
        )
        hybrid.preprocess(db)
        assert not hybrid.samples.appendable
        with pytest.raises(SamplingError):
            hybrid.insert_rows(make_batch(10, seed=33))

    def test_missing_columns_rejected(self, technique):
        _, sg = technique
        batch = make_batch(10, seed=34)
        batch = batch.select([c for c in batch.column_names if c != "amount"])
        with pytest.raises(SamplingError, match="missing view columns"):
            sg.insert_rows(batch)

    def test_empty_batch_noop(self, technique):
        _, sg = technique
        before = [m.stored_rows for m in sg.metadata()]
        sg.insert_rows(make_batch(4000, seed=35).head(0))
        assert [m.stored_rows for m in sg.metadata()] == before

    def test_reservoir_size_fixed_rate_rederived(self, technique):
        _, sg = technique
        part_before = sg.preprocess_details()["overall_parts"][0]
        sg.insert_rows(make_batch(2000, seed=36))
        part_after = sg.preprocess_details()["overall_parts"][0]
        assert part_after["rows"] == part_before["rows"]  # fixed k
        assert part_after["rate"] < part_before["rate"]  # N grew

    def test_small_tables_capture_uncommon_inserts(self, technique):
        _, sg = technique
        color_meta = next(
            m for m in sg.metadata() if m.columns == ("color",)
        )
        # The rarest colors are uncommon; inserting rows with them must
        # land in the small group table.
        batch = make_batch(500, seed=37)
        uncommon_in_batch = int(
            np.count_nonzero(sg.samples.classes[color_meta.bit_index](batch))
        )
        before = sg.metadata()[color_meta.bit_index].stored_rows
        sg.insert_rows(batch)
        after = sg.metadata()[color_meta.bit_index].stored_rows
        assert after - before == uncommon_in_batch

    def test_exact_groups_stay_exact_after_inserts(self):
        db = make_db(4000, seed=38)
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=38)
        )
        sg.preprocess(db)
        batch = make_batch(1500, seed=39)
        sg.insert_rows(batch)
        merged = Database(
            [db.fact_table.concat(batch.rename("flat"))]
        )
        query = Query("flat", (COUNT,), ("color",))
        exact = execute(merged, query).as_dict()
        answer = sg.answer(query)
        assert answer.exact_groups()
        for group in answer.exact_groups():
            assert answer.value(group) == pytest.approx(exact[group])

    def test_estimates_track_grown_database(self):
        """After inserts, the scaled estimates reflect the new N."""
        db = make_db(4000, seed=40)
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.1, use_reservoir=False, seed=40)
        )
        sg.preprocess(db)
        batch = make_batch(4000, seed=41)
        sg.insert_rows(batch)
        query = Query("flat", (COUNT,))
        answer = sg.answer(query)
        assert answer.value(()) == pytest.approx(8000, rel=0.12)

    def test_unseen_values_classified_uncommon(self, technique):
        _, sg = technique
        color_meta = next(
            m for m in sg.metadata() if m.columns == ("color",)
        )
        sample_table = sg.sample_catalog().table(color_meta.name)
        batch = make_batch(20, seed=42)
        novel = batch.with_column(
            "color",
            type(batch.column("color")).strings(["brand_new_value"] * 20),
        )
        sg.insert_rows(novel)
        extended = sg.sample_catalog().table(color_meta.name)
        assert extended.n_rows == sample_table.n_rows + 20
        values = set(extended.column("color").to_list())
        assert "brand_new_value" in values

    def test_multiple_batches_accumulate(self, technique):
        db, sg = technique
        total = db.fact_table.n_rows
        for seed in (50, 51, 52):
            batch = make_batch(700, seed=seed)
            sg.insert_rows(batch)
            total += 700
        report = sg.samples.maintenance_report()
        assert report["view_rows"] == total


class TestMaintenanceReport:
    def test_fresh_build_not_stale(self, technique):
        _, sg = technique
        report = sg.samples.maintenance_report()
        assert not report["rebuild_recommended"]
        for table in report["tables"]:
            assert table["fill_ratio"] <= 1.05

    def test_drift_detection(self):
        """Flooding the database with a formerly-rare value overflows its
        small group table and trips the rebuild recommendation."""
        db = make_db(4000, seed=60)
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=60)
        )
        sg.preprocess(db)
        color_meta = next(
            m for m in sg.metadata() if m.columns == ("color",)
        )
        rare_value = sg.sample_catalog().table(color_meta.name).column(
            "color"
        )[0]
        batch = make_batch(2000, seed=61)
        flooded = batch.with_column(
            "color", type(batch.column("color")).strings([rare_value] * 2000)
        )
        sg.insert_rows(flooded)
        report = sg.samples.maintenance_report()
        assert report["rebuild_recommended"]
        assert report["worst_fill_ratio"] > 1.5
