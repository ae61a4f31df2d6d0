"""An AQP "service": pre-process once, persist, serve SQL from the samples.

Demonstrates the production deployment shape the paper envisions:

1. a one-off pre-processing job builds the sample tables (join
   synopses, dimension attributes inline) and stores them inside the
   database directory;
2. a serving process loads both back — the samples without re-scanning
   the data — and answers SQL through the middleware session, logging
   what users ask;
3. the observed workload then drives a re-tuned, slimmer sample layout
   (§5.4.2's column trimming).

Run:  python examples/aqp_service.py
"""

import tempfile
from pathlib import Path

from repro import (
    AQPSession,
    SmallGroupConfig,
    SmallGroupSampling,
    generate_tpch,
    load_database,
    load_samples,
    save_database,
    save_samples,
)
from repro.core.workload_policy import small_group_for_workload, trim_columns
from repro.experiments.reporting import format_table

DASHBOARD = [
    "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipmode",
    "SELECT l_shipmode, p_brand, COUNT(*) AS cnt FROM lineitem "
    "GROUP BY l_shipmode, p_brand",
    "SELECT l_shipmode, AVG(l_extendedprice) AS avg_price FROM lineitem "
    "WHERE o_custregion IN ('o_custregion_000') GROUP BY l_shipmode",
    "SELECT p_brand, SUM(l_quantity) AS qty FROM lineitem "
    "WHERE s_region IN ('s_region_000', 's_region_001') GROUP BY p_brand",
    "SELECT l_shipmode, o_orderpriority, COUNT(*) AS cnt FROM lineitem "
    "GROUP BY l_shipmode, o_orderpriority",
]


CONFIG = SmallGroupConfig(base_rate=0.04, seed=21)


def preprocessing_job(workdir: Path) -> None:
    print("[preprocess job] generating TPCH1G2.0z and building samples...")
    db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=60000, seed=21)
    save_database(db, workdir)
    technique = SmallGroupSampling(CONFIG)
    report = technique.preprocess(db)
    stored = save_samples(technique, workdir)
    print(
        f"[preprocess job] {report.n_sample_tables} sample tables, "
        f"{report.sample_rows} rows, {report.space_overhead:.1%} overhead; "
        f"stored in {stored.relative_to(workdir)}"
    )


def serving_process(workdir: Path) -> None:
    print("\n[service] loading the stored database and samples...")
    db = load_database(workdir)
    technique = load_samples(workdir, db, CONFIG)
    print(
        f"[service] base: {db.fact_table.n_rows} rows; "
        f"samples: {technique.report.n_sample_tables} tables "
        f"(loaded from disk in {technique.report.wall_time_seconds:.2f} s, "
        "no re-scan)"
    )
    session = AQPSession(db)
    session.install(technique)
    print("\n[service] answering the dashboard queries approximately:")
    rows = []
    for sql in DASHBOARD:
        result = session.sql(sql, mode="both")
        rows.append(
            [
                sql.split("FROM")[0].strip()[:48] + "...",
                result.approx.n_groups,
                f"{result.approx_seconds * 1000:.1f}",
                f"{result.speedup:.1f}x",
            ]
        )
    print(format_table(["query", "groups", "ms", "speedup"], rows))

    print("\n[service] EXPLAIN for the last query:")
    print(session.explain(DASHBOARD[-1]))

    print("\n[tuning] re-fitting the sample layout to the observed workload:")
    observed = session.observed_workload()
    columns = trim_columns(observed)
    print(f"  columns actually grouped on: {list(columns)}")
    tuned = small_group_for_workload(
        db,
        observed,
        config=SmallGroupConfig(base_rate=0.04, use_reservoir=False, seed=21),
    )
    before = session.report.sample_rows
    after = sum(i.n_rows for i in tuned.sample_tables())
    print(
        f"  sample rows: {before} -> {after} "
        f"({1 - after / before:.0%} saved for the same workload)"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        preprocessing_job(workdir)
        serving_process(workdir)


if __name__ == "__main__":
    main()
