"""Streaming scenario: keep samples fresh while rows keep arriving.

A warehouse receives nightly batches of new fact rows.  Rebuilding the
sample tables from scratch after every batch is wasteful; this example
uses the library's incremental maintenance: new rows are classified
against the frozen common-value sets (appending to the small group tables
they fall into) and offered to the overall reservoir, which keeps its
fixed size.  The maintenance report tracks value-frequency drift and says
when a real rebuild is due.

Run:  python examples/streaming_updates.py
"""

from repro import (
    Database,
    SmallGroupConfig,
    SmallGroupSampling,
    execute,
    parse_query,
    score,
)
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.experiments.reporting import format_table

SPEC = dict(
    categoricals=[
        CategoricalSpec("product", 60, 1.6),
        CategoricalSpec("region", 10, 1.0),
        CategoricalSpec("channel", 4, 0.8),
    ],
    measures=[MeasureSpec("revenue", distribution="lognormal", mu=4, sigma=1.2)],
)

QUERY = parse_query(
    "SELECT product, COUNT(*) AS cnt, AVG(revenue) AS avg_rev "
    "FROM facts GROUP BY product"
)


def main() -> None:
    print("Initial load: 20,000 rows; pre-processing once...")
    initial = generate_flat_table("facts", 20000, seed=100, **SPEC)
    db = Database([initial])
    technique = SmallGroupSampling(
        SmallGroupConfig(base_rate=0.05, allocation_ratio=0.5, seed=100)
    )
    technique.preprocess(db)

    all_rows = initial
    rows = []
    for night in range(1, 6):
        batch = generate_flat_table("facts", 4000, seed=100 + night, **SPEC)
        technique.insert_rows(batch)
        all_rows = all_rows.concat(batch)
        current_db = Database([all_rows])
        exact = execute(current_db, QUERY)
        answer = technique.answer(QUERY)
        accuracy = score(exact.as_dict("cnt"), answer.as_dict("cnt"))
        report = technique.samples.maintenance_report()
        rows.append(
            [
                night,
                report["view_rows"],
                f"{accuracy.rel_err:.3f}",
                f"{accuracy.pct_groups:.1f}%",
                len(answer.exact_groups()),
                f"{report['worst_fill_ratio']:.2f}",
                "yes" if report["rebuild_recommended"] else "no",
            ]
        )
    print(
        format_table(
            [
                "batch",
                "total rows",
                "RelErr(count)",
                "missed",
                "exact groups",
                "worst fill",
                "rebuild?",
            ],
            rows,
        )
    )

    print("\nNow a distribution shift: one formerly-rare product floods in.")
    rare = technique.sample_catalog().table(
        technique.metadata()[0].name
    ).column("product")[0]
    flood = generate_flat_table("facts", 6000, seed=999, **SPEC)
    flood = flood.with_column(
        "product", type(flood.column("product")).strings([rare] * 6000)
    )
    technique.insert_rows(flood)
    report = technique.samples.maintenance_report()
    print(
        f"worst fill ratio after flood: {report['worst_fill_ratio']:.2f} "
        f"-> rebuild recommended: {report['rebuild_recommended']}"
    )
    overflowing = max(report["tables"], key=lambda t: t["fill_ratio"])
    print(
        f"overflowing table: {overflowing['name']} holds "
        f"{overflowing['class_fraction']:.2%} of rows vs a "
        f"{overflowing['cap_fraction']:.2%} cap"
    )


if __name__ == "__main__":
    main()
