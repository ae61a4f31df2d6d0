"""Space/accuracy trade-off: dynamic sample selection earns its disk.

The paper's architectural argument (Section 3): a static sample cannot
exploit extra disk — making it bigger makes every query slower — while
dynamic sample selection stores *many* biased samples and touches only a
small, per-query-appropriate subset.  This example sweeps the disk budget
and reports, for each budget, the accuracy and per-query rows scanned of

* uniform sampling forced to scan its whole (growing) sample, and
* small group sampling, whose per-query scan stays near the base rate
  while accuracy improves with the budget.

Run:  python examples/space_accuracy_tradeoff.py
"""

import numpy as np

from repro import (
    SmallGroupConfig,
    SmallGroupSampling,
    UniformConfig,
    UniformSampling,
    generate_tpch,
)
from repro.experiments.harness import Contender, run_experiment
from repro.experiments.reporting import format_table
from repro.workload.generator import generate_workload
from repro.workload.spec import WorkloadConfig

#: Disk budgets as fractions of the database.
BUDGETS = (0.04, 0.08, 0.16, 0.32)

#: Small group sampling keeps this base (per-query) rate and spends the
#: rest of the budget on more/larger small group tables via gamma.
SG_BASE_RATE = 0.04


def main() -> None:
    db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=60000, seed=9)
    n = db.fact_table.n_rows
    workload = generate_workload(
        db,
        WorkloadConfig(
            group_column_counts=(2, 3),
            queries_per_combo=5,
            seed=9,
        ),
    )
    rows = []
    for budget in BUDGETS:
        # Uniform: one sample consuming the whole budget; every query
        # scans all of it.
        uniform = UniformSampling(UniformConfig(rates=(budget,), seed=9))
        uniform_report = uniform.preprocess(db)
        # Small group: base rate fixed; gamma grows with the budget so the
        # extra disk becomes more exact small group coverage.
        gamma = budget / SG_BASE_RATE / 8
        sg = SmallGroupSampling(
            SmallGroupConfig(
                base_rate=SG_BASE_RATE,
                allocation_ratio=gamma,
                use_reservoir=False,
                seed=9,
            )
        )
        sg_report = sg.preprocess(db)
        contenders = [
            Contender("small_group", sg),
            Contender("uniform", uniform),
        ]
        result = run_experiment(db, workload, contenders, SG_BASE_RATE, gamma)
        for name, report in (
            ("small_group", sg_report),
            ("uniform", uniform_report),
        ):
            rows.append(
                [
                    f"{budget:.0%}",
                    name,
                    f"{report.sample_rows / n:.1%}",
                    int(
                        np.mean([r.rows_scanned[name] for r in result.records])
                    ),
                    f"{result.mean_metric(name, 'rel_err'):.3f}",
                    f"{result.mean_metric(name, 'pct_groups'):.1f}%",
                ]
            )
    print(
        format_table(
            [
                "disk budget",
                "technique",
                "stored rows/N",
                "rows scanned/query",
                "RelErr",
                "missed groups",
            ],
            rows,
        )
    )
    print(
        "\nReading: as the budget grows, uniform sampling's per-query scan "
        "cost grows with it, while small group sampling keeps the scan "
        "near the base rate and converts the extra disk into exact small "
        "groups — the dynamic-selection trade-off from Section 3."
    )


if __name__ == "__main__":
    main()
