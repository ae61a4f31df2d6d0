"""Tests for small group sampling: pre-processing and runtime phases."""

import cProfile
import hashlib
import pstats

import numpy as np
import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.tpch import generate_tpch
from repro.engine.executor import aggregate_table, execute
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    BitmaskDisjoint,
    InSet,
    Query,
)
from repro.engine.table import Table
from repro.errors import RuntimePhaseError, SamplingError
from repro.sql import parse

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


@pytest.fixture(scope="module")
def sg_flat(flat_db):
    technique = SmallGroupSampling(
        SmallGroupConfig(
            base_rate=0.05, allocation_ratio=0.5, use_reservoir=False, seed=1
        )
    )
    technique.preprocess(flat_db)
    return technique


class TestConfig:
    def test_small_fraction(self):
        config = SmallGroupConfig(base_rate=0.02, allocation_ratio=0.5)
        assert config.small_fraction == pytest.approx(0.01)

    def test_invalid_rate(self):
        with pytest.raises(SamplingError):
            SmallGroupConfig(base_rate=0.0)
        with pytest.raises(SamplingError):
            SmallGroupConfig(base_rate=1.5)

    def test_invalid_ratio(self):
        with pytest.raises(SamplingError):
            SmallGroupConfig(allocation_ratio=-0.1)

    def test_level_validation(self):
        with pytest.raises(SamplingError):
            SmallGroupConfig(levels=((0.01, 1.0), (0.005, 0.1)))
        with pytest.raises(SamplingError):
            SmallGroupConfig(levels=((0.01, 0.1), (0.02, 1.0)))
        with pytest.raises(SamplingError):
            SmallGroupConfig(levels=((0.01, 0.0),))

    def test_effective_levels_default(self):
        config = SmallGroupConfig(base_rate=0.02, allocation_ratio=0.5)
        assert config.effective_levels() == ((config.small_fraction, 1.0),)


class TestPreprocessing:
    def test_requires_preprocess_before_answer(self, flat_db):
        technique = SmallGroupSampling()
        with pytest.raises(RuntimePhaseError):
            technique.answer(Query("flat", (COUNT,)))

    def test_metadata_indices_dense(self, sg_flat):
        indices = [m.bit_index for m in sg_flat.metadata()]
        assert indices == list(range(len(indices)))

    def test_small_group_tables_capped(self, sg_flat, flat_db):
        n = flat_db.fact_table.n_rows
        t = sg_flat.config.small_fraction
        for meta in sg_flat.metadata():
            assert meta.stored_rows <= n * t + 1

    def test_small_tables_hold_all_uncommon_rows(self, sg_flat, flat_db):
        """Every row with an uncommon value is in the column's table."""
        from repro.engine.stats import collect_column_stats

        view = flat_db.joined_view()
        stats = collect_column_stats(view)
        catalog = sg_flat.sample_catalog()
        for meta in sg_flat.metadata():
            column = meta.columns[0]
            common = stats[column].common_values(sg_flat.config.small_fraction)
            uncommon_rows = sum(
                count
                for value, count in stats[column].frequencies.items()
                if value not in common
            )
            assert catalog.table(meta.name).n_rows == uncommon_rows

    def test_overall_sample_size(self, sg_flat, flat_db):
        details = sg_flat.preprocess_details()
        expected = round(sg_flat.config.base_rate * flat_db.fact_table.n_rows)
        assert details["overall_rows"] == expected

    def test_bitmask_tags_match_class_membership(self, sg_flat, flat_db):
        """A stored row's bit j is set iff its value is uncommon in col j."""
        from repro.engine.stats import collect_column_stats

        view = flat_db.joined_view()
        stats = collect_column_stats(view)
        commons = {
            m.bit_index: (
                m.columns[0],
                stats[m.columns[0]].common_values(
                    sg_flat.config.small_fraction
                ),
            )
            for m in sg_flat.metadata()
        }
        catalog = sg_flat.sample_catalog()
        overall = catalog.table("sg_overall")
        assert overall.bitmask is not None
        for row in range(min(50, overall.n_rows)):
            mask_bits = set(overall.bitmask.row_mask(row).bits())
            for bit, (column, common) in commons.items():
                value = overall.column(column)[row]
                assert (bit in mask_bits) == (value not in common)

    def test_sample_tables_are_join_synopses(self, tiny_tpch):
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        overall = technique.sample_catalog().table("sg_overall")
        # Dimension attributes are materialised inline.
        assert overall.has_column("p_brand")
        assert overall.has_column("o_custnation")

    def test_preprocess_report(self, flat_db):
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.02, use_reservoir=False)
        )
        report = technique.preprocess(flat_db)
        assert report.technique == "small_group"
        assert report.sample_rows > 0
        assert 0 < report.space_overhead < 1
        assert report.n_sample_tables == len(technique.metadata()) + 1

    def test_reservoir_and_direct_same_size(self, flat_db):
        a = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.02, use_reservoir=True, seed=3)
        )
        b = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.02, use_reservoir=False, seed=3)
        )
        ra = a.preprocess(flat_db)
        rb = b.preprocess(flat_db)
        assert ra.sample_rows == rb.sample_rows

    def test_explicit_column_list(self, flat_db):
        technique = SmallGroupSampling(
            SmallGroupConfig(
                base_rate=0.05, columns=("city",), use_reservoir=False
            )
        )
        technique.preprocess(flat_db)
        assert {m.columns[0] for m in technique.metadata()} <= {"city"}


def _update_digest(digest, table):
    """Feed one sample table's columns, dictionaries and bitmask words."""
    for name in table.column_names:
        col = table.column(name)
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(col.data).tobytes())
        if col.dictionary is not None:
            digest.update("\x00".join(col.dictionary).encode())
    digest.update(np.ascontiguousarray(table.bitmask.words).tobytes())


def _overall_digest(db, seed):
    """SHA-256 over the ``sg_overall`` rows and bitmask words."""
    technique = SmallGroupSampling(
        SmallGroupConfig(base_rate=0.05, use_reservoir=True, seed=seed)
    )
    technique.preprocess(db)
    overall = technique.sample_catalog().table("sg_overall")
    digest = hashlib.sha256()
    _update_digest(digest, overall)
    return overall.n_rows, digest.hexdigest()


def _append_batches(view):
    """Three view-shaped batches covering every dictionary case.

    The first shares the view's dictionaries, the second re-encodes the
    same kind of rows from Python lists (a foreign dictionary, as the
    wire delivers), and the third adds values no sample has seen.
    """
    rng = np.random.default_rng(2024)
    shared = view.take(rng.integers(0, view.n_rows, 700))
    listed = view.take(rng.integers(0, view.n_rows, 900))
    rows = {name: listed.column(name).to_list() for name in view.column_names}
    unseen = view.take(rng.integers(0, view.n_rows, 500))
    fresh = {name: unseen.column(name).to_list() for name in view.column_names}
    for name in ("l_shipmode", "p_brand"):
        fresh[name] = [
            f"{value}_new" if i % 3 == 0 else value
            for i, value in enumerate(fresh[name])
        ]
    return [
        shared,
        Table.from_dict(view.name, rows),
        Table.from_dict(view.name, fresh),
    ]


def _after_appends_digest(db, seed):
    """SHA-256 over every sample table after :func:`_append_batches`."""
    technique = SmallGroupSampling(
        SmallGroupConfig(base_rate=0.05, use_reservoir=True, seed=seed)
    )
    technique.preprocess(db)
    for batch in _append_batches(db.joined_view()):
        technique.insert_rows(batch)
    digest = hashlib.sha256()
    catalog = technique.sample_catalog()
    for name in sorted(catalog.table_names):
        digest.update(name.encode())
        _update_digest(digest, catalog.table(name))
    return len(catalog.table_names), digest.hexdigest()


class TestReservoirBuildIsPinned:
    """The default (``use_reservoir=True``) build, as ``repro serve`` runs it."""

    # Recorded at commit 07e33f5, where the reservoir was an item-at-a-time
    # Python loop: the batch kernel must store exactly the same rows.
    PARENT_DIGESTS = {
        3: "ad7ea7231f1fa6c726a93b461b62be34d4186e045136b21ecfb6e0e4e2fa773f",
        11: "b824d6fb7cc754bd34c453193791381f36e7283eb570e0631ff93ce64637077f",
    }

    @pytest.fixture(scope="class")
    def tpch_20k(self):
        return generate_tpch(scale=1.0, z=1.5, rows_per_scale=20000, seed=3)

    @pytest.mark.parametrize("seed", sorted(PARENT_DIGESTS))
    def test_overall_sample_matches_parent_commit(self, tpch_20k, seed):
        assert _overall_digest(tpch_20k, seed) == (
            1000,
            self.PARENT_DIGESTS[seed],
        )

    # Recorded at commit 1efea51, where every ``take`` re-validated its
    # codes and each sample table packed its own bitmask words.
    AFTER_APPENDS_DIGESTS = {
        3: "36693fcbf1dbffe8737e608a4f46a3c26da0496d80b04e4a2c57380bbb7399e4",
        11: "8c8fe9869cdb00f5aa0df0697013bac5c4f2444d94b647c9a162084aa80d80ec",
    }

    @pytest.mark.parametrize("seed", sorted(AFTER_APPENDS_DIGESTS))
    def test_samples_after_appends_match_parent_commit(self, seed):
        # Its own database: the class fixture must stay un-appended.
        db = generate_tpch(scale=1.0, z=1.5, rows_per_scale=20000, seed=3)
        assert _after_appends_digest(db, seed) == (
            19,  # 18 small group tables and sg_overall
            self.AFTER_APPENDS_DIGESTS[seed],
        )

    def test_python_call_count_independent_of_row_count(self, tpch_20k):
        def calls(db):
            technique = SmallGroupSampling(SmallGroupConfig(base_rate=0.01))
            profile = cProfile.Profile()
            profile.runcall(technique.preprocess, db)
            return pstats.Stats(profile).total_calls

        big = generate_tpch(scale=1.0, z=1.5, rows_per_scale=80000, seed=3)
        small_calls, big_calls = calls(tpch_20k), calls(big)
        # More chunks and more distinct values add a few thousand calls;
        # one call per row would add at least 60,000.
        assert abs(big_calls - small_calls) < 10_000


class TestRuntime:
    def test_exact_marked_groups_are_exact(self, sg_flat, flat_db, tiny_tpch):
        # A star schema too: its grouping columns are dimension attributes.
        sg_star = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=5)
        )
        sg_star.preprocess(tiny_tpch)
        star_query = Query("lineitem", (COUNT,), ("p_type", "s_region"))
        for technique, db, query in (
            (sg_flat, flat_db, Query("flat", (COUNT,), ("city", "shape"))),
            (sg_star, tiny_tpch, star_query),
        ):
            exact = execute(db, query).as_dict()
            answer = technique.answer(query)
            assert answer.exact_groups()  # skew guarantees some small groups
            for group in answer.exact_groups():
                assert answer.value(group) == pytest.approx(exact[group])

    def test_sum_exact_groups(self, sg_flat, flat_db):
        query = Query(
            "flat", (AggregateSpec(AggFunc.SUM, "amount", alias="s"),), ("city",)
        )
        exact = execute(flat_db, query).as_dict()
        answer = sg_flat.answer(query)
        for group in answer.exact_groups():
            assert answer.value(group) == pytest.approx(exact[group])

    def test_rewritten_sql_matches_paper_shape(self, sg_flat):
        query = Query("flat", (COUNT,), ("city", "color"))
        answer = sg_flat.answer(query)
        statement = parse(answer.rewritten_sql)
        # One branch per applicable small group table + the overall sample.
        applicable = sg_flat.applicable_tables(query)
        assert len(statement.selects) == len(applicable) + 1
        # First branch is unscaled and unfiltered, later ones carry filters.
        assert statement.selects[0].scale == 1.0
        assert statement.selects[-1].scale > 1.0
        where = statement.selects[-1].query.where
        last = where.operands[-1] if hasattr(where, "operands") else where
        assert isinstance(last, BitmaskDisjoint)

    def test_filter_ordering_by_bit_index(self, sg_flat):
        query = Query("flat", (COUNT,), ("city", "color", "shape"))
        pieces = sg_flat.choose_samples(query)
        used = [m for m in sg_flat.metadata() if m.columns[0] in query.group_by]
        assert [p.table.name for p in pieces[:-1]] == [m.name for m in used]

    def test_no_double_counting_total(self, sg_flat, flat_db):
        """Total COUNT across groups is consistent: only one stratum may
        claim each row class, so the expected total equals N (checked with
        a generous tolerance on the sampled stratum)."""
        query = Query("flat", (COUNT,), ("city",))
        answer = sg_flat.answer(query)
        total = sum(answer.as_dict().values())
        n = flat_db.fact_table.n_rows
        assert abs(total - n) / n < 0.35

    def test_unbiasedness_over_seeds(self, flat_db):
        query = Query(
            "flat", (COUNT,), ("shape",), where=InSet("status", ["status_000"])
        )
        exact = execute(flat_db, query)
        target_group = max(exact.as_dict(), key=exact.as_dict().get)
        truth = exact.as_dict()[target_group]
        estimates = []
        for seed in range(30):
            technique = SmallGroupSampling(
                SmallGroupConfig(
                    base_rate=0.05, use_reservoir=False, seed=seed
                )
            )
            technique.preprocess(flat_db)
            answer = technique.answer(query)
            if target_group in answer.groups:
                estimates.append(answer.value(target_group))
        mean = np.mean(estimates)
        assert abs(mean - truth) / truth < 0.15

    def test_full_rate_answers_exactly(self, flat_db):
        """base_rate = 1.0 makes the overall sample the whole database, so
        every answer must be exact."""
        technique = SmallGroupSampling(
            SmallGroupConfig(
                base_rate=1.0, allocation_ratio=0.01, use_reservoir=False
            )
        )
        technique.preprocess(flat_db)
        query = Query(
            "flat",
            (COUNT, AggregateSpec(AggFunc.SUM, "amount", alias="s")),
            ("color", "status"),
        )
        exact = aggregate_table(flat_db.joined_view(), query)
        answer = technique.answer(query)
        assert set(answer.groups) == set(exact.rows)
        for group, row in exact.rows.items():
            assert answer.groups[group][0].value == pytest.approx(row[0])
            assert answer.groups[group][1].value == pytest.approx(row[1])

    def test_piece_rows_grow_with_grouping(self, sg_flat):
        def piece_rows(query):
            return sum(p.table.n_rows for p in sg_flat.choose_samples(query))

        narrow = Query("flat", (COUNT,), ("status",))
        wide = Query("flat", (COUNT,), ("city", "color"))
        assert piece_rows(wide) >= piece_rows(narrow)

    def test_confidence_intervals_cover_for_sampled_groups(self, flat_db):
        query = Query("flat", (COUNT,), ("shape",))
        exact = execute(flat_db, query).as_dict()
        covered = total = 0
        for seed in range(25):
            technique = SmallGroupSampling(
                SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=seed)
            )
            technique.preprocess(flat_db)
            answer = technique.answer(query)
            for group, truth in exact.items():
                if group not in answer.groups or truth < 50:
                    continue
                lo, hi = answer.confidence_interval(group, level=0.95)
                total += 1
                covered += lo <= truth <= hi
        assert total > 0
        assert covered / total > 0.85


class TestVariations:
    def test_multi_level_builds_level_tables(self, flat_db):
        config = SmallGroupConfig(
            base_rate=0.05,
            levels=((0.025, 1.0), (0.1, 0.5)),
            use_reservoir=False,
        )
        technique = SmallGroupSampling(config)
        technique.preprocess(flat_db)
        levels = {m.level for m in technique.metadata()}
        assert levels == {0, 1}
        for meta in technique.metadata():
            if meta.level == 1:
                assert meta.rate == 0.5
                assert meta.stored_rows <= meta.class_rows

    def test_multi_level_estimates_reasonable(self, flat_db):
        config = SmallGroupConfig(
            base_rate=0.05,
            levels=((0.025, 1.0), (0.1, 0.5)),
            use_reservoir=False,
            seed=2,
        )
        technique = SmallGroupSampling(config)
        technique.preprocess(flat_db)
        query = Query("flat", (COUNT,), ("city",))
        exact = execute(flat_db, query).as_dict()
        answer = technique.answer(query)
        # Exact groups still exact.
        for group in answer.exact_groups():
            assert answer.value(group) == pytest.approx(exact[group])
        # Medium-level groups estimated within a loose band.
        total = sum(answer.as_dict().values())
        n = sum(exact.values())
        assert abs(total - n) / n < 0.35

    def test_pair_tables(self, flat_db):
        config = SmallGroupConfig(
            base_rate=0.05,
            pair_columns=(("color", "shape"),),
            use_reservoir=False,
        )
        technique = SmallGroupSampling(config)
        technique.preprocess(flat_db)
        pair_metas = [m for m in technique.metadata() if len(m.columns) == 2]
        assert len(pair_metas) == 1
        # Pair table applies only when both columns are grouped.
        q_both = Query("flat", (COUNT,), ("color", "shape"))
        q_one = Query("flat", (COUNT,), ("color",))
        applicable_both = {
            technique.metadata()[i].name
            for i in technique.applicable_tables(q_both)
        }
        applicable_one = {
            technique.metadata()[i].name
            for i in technique.applicable_tables(q_one)
        }
        assert pair_metas[0].name in applicable_both
        assert pair_metas[0].name not in applicable_one

    def test_pair_tables_answers_exact_for_rare_pairs(self, flat_db):
        config = SmallGroupConfig(
            base_rate=0.05,
            pair_columns=(("color", "shape"),),
            use_reservoir=False,
        )
        technique = SmallGroupSampling(config)
        technique.preprocess(flat_db)
        query = Query("flat", (COUNT,), ("color", "shape"))
        exact = execute(flat_db, query).as_dict()
        answer = technique.answer(query)
        for group in answer.exact_groups():
            assert answer.value(group) == pytest.approx(exact[group])

    def test_pair_coverage_beats_singles_on_joint_query(self, flat_db):
        """A pair table misses fewer groups of the pair's joint GROUP BY
        than the single-column tables alone."""
        query = Query("flat", (COUNT,), ("color", "shape"))
        exact = execute(flat_db, query)

        def missed(pair_columns):
            technique = SmallGroupSampling(
                SmallGroupConfig(
                    base_rate=0.05,
                    use_reservoir=False,
                    seed=3,
                    pair_columns=pair_columns,
                )
            )
            technique.preprocess(flat_db)
            found = set(technique.answer(query).as_dict()) & exact.groups()
            return exact.n_groups - len(found)

        assert missed((("color", "shape"),)) < missed(())

    def test_max_tables_per_query(self, flat_db):
        config = SmallGroupConfig(
            base_rate=0.05, max_tables_per_query=1, use_reservoir=False
        )
        technique = SmallGroupSampling(config)
        technique.preprocess(flat_db)
        query = Query("flat", (COUNT,), ("city", "color", "shape"))
        assert len(technique.applicable_tables(query)) <= 1
        pieces = technique.choose_samples(query)
        assert len(pieces) <= 2  # one table + overall

    def test_max_tables_prefers_smallest(self, flat_db):
        technique = SmallGroupSampling(
            SmallGroupConfig(
                base_rate=0.05, max_tables_per_query=1, use_reservoir=False
            )
        )
        technique.preprocess(flat_db)
        query = Query("flat", (COUNT,), ("city", "color", "shape"))
        chosen = technique.applicable_tables(query)
        applicable_all = [
            m for m in technique.metadata() if m.columns[0] in query.group_by
        ]
        smallest = min(applicable_all, key=lambda m: m.stored_rows)
        assert technique.metadata()[chosen[0]].name == smallest.name
