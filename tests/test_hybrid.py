"""Tests for small group sampling enhanced with outlier indexing."""

import numpy as np
import pytest

from repro.baselines.hybrid import HybridConfig, SmallGroupWithOutlier
from repro.baselines.outlier import OutlierConfig, OutlierIndexing
from repro.engine.executor import execute
from repro.engine.expressions import AggFunc, AggregateSpec, InSet, Query
from repro.errors import PreprocessingError, SamplingError
from repro.metrics.error import rel_err

SUM_AMOUNT = AggregateSpec(AggFunc.SUM, "amount", alias="total")


class TestConfig:
    def test_measure_required(self):
        with pytest.raises(SamplingError):
            HybridConfig()

    def test_share_bounds(self):
        with pytest.raises(SamplingError):
            HybridConfig(measure="amount", outlier_share=1.5)

    def test_inherits_small_group_validation(self):
        with pytest.raises(SamplingError):
            HybridConfig(measure="amount", base_rate=0.0)


@pytest.fixture(scope="module")
def hybrid(flat_db):
    technique = SmallGroupWithOutlier(
        HybridConfig(
            base_rate=0.05, measure="amount", use_reservoir=False, seed=4
        )
    )
    technique.preprocess(flat_db)
    return technique


class TestStructure:
    def test_two_overall_parts(self, hybrid):
        details = hybrid.preprocess_details()
        parts = details["overall_parts"]
        assert len(parts) == 2
        names = {p["name"] for p in parts}
        assert names == {"sg_outliers", "sg_overall"}
        exact_part = next(p for p in parts if p["name"] == "sg_outliers")
        assert exact_part["exact"]

    def test_overall_budget_split(self, hybrid, flat_db):
        details = hybrid.preprocess_details()
        n = flat_db.fact_table.n_rows
        assert details["overall_rows"] == pytest.approx(0.05 * n, rel=0.05)

    def test_missing_measure(self, flat_db):
        technique = SmallGroupWithOutlier(
            HybridConfig(measure="missing", use_reservoir=False)
        )
        with pytest.raises(PreprocessingError):
            technique.preprocess(flat_db)

    def test_pieces_include_outlier_branch(self, hybrid):
        query = Query("flat", (SUM_AMOUNT,), ("city",))
        pieces = hybrid.choose_samples(query)
        names = [p.table.name for p in pieces]
        assert "sg_outliers" in names
        assert "sg_overall" in names

    def test_outlier_groups_not_marked_exact(self, hybrid):
        query = Query("flat", (SUM_AMOUNT,), ("status",))
        answer = hybrid.answer(query)
        # status has no small group table (only 3 common values), so no
        # group may be reported exact even though outliers are 100% stored.
        assert not answer.exact_groups()

    def test_small_group_answers_still_exact(self, hybrid, flat_db, tiny_tpch):
        # A star schema too: the outliers are ranked on a fact measure, the
        # groups are dimension attributes.
        star = SmallGroupWithOutlier(
            HybridConfig(
                base_rate=0.05,
                measure="l_extendedprice",
                use_reservoir=False,
                seed=5,
            )
        )
        star.preprocess(tiny_tpch)
        star_sum = AggregateSpec(AggFunc.SUM, "l_extendedprice", alias="s")
        for technique, db, query in (
            (hybrid, flat_db, Query("flat", (SUM_AMOUNT,), ("city",))),
            (star, tiny_tpch, Query("lineitem", (star_sum,), ("p_brand",))),
        ):
            exact = execute(db, query).as_dict()
            answer = technique.answer(query)
            assert answer.exact_groups()
            for group in answer.exact_groups():
                assert answer.value(group) == pytest.approx(exact[group])


class TestAccuracy:
    def test_sum_beats_outlier_alone(self, flat_db):
        """Section 5.3.3's comparison, in miniature."""
        query = Query(
            "flat",
            (SUM_AMOUNT,),
            ("city",),
            where=InSet("status", ["status_000", "status_001"]),
        )
        exact = execute(flat_db, query).as_dict()
        hybrid_errs, outlier_errs = [], []
        for seed in range(8):
            h = SmallGroupWithOutlier(
                HybridConfig(
                    base_rate=0.05,
                    measure="amount",
                    use_reservoir=False,
                    seed=seed,
                )
            )
            h.preprocess(flat_db)
            hybrid_errs.append(rel_err(exact, h.answer(query).as_dict()))
            o = OutlierIndexing(
                OutlierConfig(rates=(0.0625,), measures=("amount",), seed=seed)
            )
            o.preprocess(flat_db)
            outlier_errs.append(rel_err(exact, o.answer(query).as_dict()))
        assert np.mean(hybrid_errs) < np.mean(outlier_errs)

    def test_total_sum_reasonable(self, hybrid, flat_db):
        query = Query("flat", (SUM_AMOUNT,))
        truth = execute(flat_db, query).rows[()][0]
        assert hybrid.answer(query).value(()) == pytest.approx(truth, rel=0.3)
