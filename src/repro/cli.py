"""Command-line interface: regenerate the paper's figures and tables.

Usage::

    python -m repro list                  # enumerate reproducible results
    python -m repro figure 4 6           # regenerate figures 4 and 6
    python -m repro figure all --out results/
    python -m repro figure 4 --quick     # tiny/fast parameterisation

Each figure prints the same series the paper plots and can also be
written to CSV with ``--out``.
"""

from __future__ import annotations

import argparse
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.experiments.figures import (
    FigureRun,
    run_figure3a,
    run_figure3b,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_table_outlier,
    run_table_preprocessing,
)
from repro.experiments.reporting import format_table, write_csv

#: Figure id → (description, full runner, quick runner).
FIGURES: dict[str, tuple[str, Callable[[], FigureRun], Callable[[], FigureRun]]] = {
    "3a": (
        "Analytical SqRelErr vs sampling allocation ratio",
        run_figure3a,
        run_figure3a,
    ),
    "3b": (
        "Analytical SqRelErr vs skew",
        run_figure3b,
        run_figure3b,
    ),
    "4": (
        "SmGroup vs Uniform on TPCH1G2.0z by #grouping columns",
        lambda: run_figure4(queries_per_combo=10),
        lambda: run_figure4(rows_per_scale=8000, queries_per_combo=2),
    ),
    "5": (
        "Error vs per-group selectivity on SALES",
        lambda: run_figure5(queries_per_combo=10),
        lambda: run_figure5(sales_scale=0.2, queries_per_combo=2),
    ),
    "5-tpch": (
        "Error vs per-group selectivity on TPCH (§5.3.1)",
        lambda: run_figure5(database="tpch", queries_per_combo=8),
        lambda: run_figure5(
            database="tpch", rows_per_scale=8000, queries_per_combo=2
        ),
    ),
    "6": (
        "RelErr vs skew on the TPCH1Gyz family",
        lambda: run_figure6(queries_per_combo=8),
        lambda: run_figure6(
            skews=(1.0, 2.0), rows_per_scale=8000, queries_per_combo=2
        ),
    ),
    "7": (
        "Error vs base sampling rate on TPCH1G2.0z",
        lambda: run_figure7(queries_per_combo=8),
        lambda: run_figure7(
            rates=(0.02, 0.08), rows_per_scale=8000, queries_per_combo=2
        ),
    ),
    "8": (
        "SmGroup vs Basic Congress vs Uniform on SALES",
        lambda: run_figure8(queries_per_combo=10),
        lambda: run_figure8(sales_scale=0.2, queries_per_combo=2),
    ),
    "5.3.3": (
        "SUM queries: SG+outlier vs outlier indexing vs uniform",
        lambda: run_table_outlier(queries_per_combo=10),
        lambda: run_table_outlier(sales_scale=0.2, queries_per_combo=2),
    ),
    "9": (
        "Query-processing speedups (TPCH5G1.5z)",
        lambda: run_figure9(queries_per_combo=5),
        lambda: run_figure9(
            rows_per_scale=8000, scale=1.0, queries_per_combo=2
        ),
    ),
    "5.4.2": (
        "Pre-processing time and space for all techniques",
        run_table_preprocessing,
        lambda: run_table_preprocessing(
            rows_per_scale=8000, sales_scale=0.2, base_rates=(0.04,)
        ),
    ),
}


def render_run(run: FigureRun) -> str:
    """Render one figure run as text."""
    lines = [f"=== Paper figure/table {run.figure} ==="]
    for name, data in sorted(run.series.items()):
        lines.append(f"-- {name}")
        lines.append(
            format_table(["x", "value"], [[x, y] for x, y in data.items()])
        )
    if run.extras:
        lines.append("-- extras")
        lines.append(
            format_table(
                ["key", "value"],
                [[k, v] for k, v in sorted(run.extras.items())],
            )
        )
    return "\n".join(lines)


def _save(run: FigureRun, out_dir: Path) -> Path:
    safe = run.figure.replace(".", "_")
    path = out_dir / f"figure_{safe}.csv"
    rows = [
        [series, x, y]
        for series, data in sorted(run.series.items())
        for x, y in data.items()
    ]
    write_csv(path, ["series", "x", "value"], rows)
    return path


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Dynamic Sample Selection for Approximate Query "
            "Processing' (SIGMOD 2003)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list reproducible figures/tables")
    figure = subparsers.add_parser(
        "figure", help="regenerate one or more figures"
    )
    figure.add_argument(
        "ids",
        nargs="+",
        help=f"figure ids ({', '.join(FIGURES)}) or 'all'",
    )
    figure.add_argument(
        "--quick",
        action="store_true",
        help="tiny parameterisation (seconds instead of minutes)",
    )
    figure.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write per-figure CSV files to",
    )
    plan = subparsers.add_parser(
        "plan",
        help="recommend small-group-sampling parameters from the model",
    )
    plan.add_argument("--z", type=float, default=1.8, help="Zipf skew")
    plan.add_argument(
        "--distinct", type=int, default=50, help="distinct values per column"
    )
    plan.add_argument(
        "--group-columns", type=int, default=2, help="grouping columns"
    )
    plan.add_argument(
        "--selectivity", type=float, default=0.1, help="predicate selectivity"
    )
    plan.add_argument(
        "--rows", type=int, default=1_000_000, help="database rows"
    )
    plan.add_argument(
        "--budget",
        type=float,
        default=0.02,
        help="runtime sample budget as a fraction of the database",
    )
    plan.add_argument(
        "--target",
        type=float,
        default=None,
        help="target SqRelErr; when given, also plan the minimum budget",
    )
    report = subparsers.add_parser(
        "report",
        help="summarise previously recorded benchmark results",
    )
    report.add_argument(
        "--results",
        type=Path,
        default=Path("benchmarks/results"),
        help="directory holding figure_*.csv files",
    )
    sql = subparsers.add_parser(
        "sql",
        help="run one aggregation query against a stored database",
    )
    sql.add_argument(
        "database", type=Path, help="directory written by repro.storage"
    )
    sql.add_argument("query", help="SQL aggregation query text")
    sql.add_argument(
        "--mode",
        choices=("exact", "approx", "both"),
        default="exact",
        help=(
            "exact executor (default), small-group approximate answering, "
            "or both side by side"
        ),
    )
    sql.add_argument(
        "--base-rate",
        type=float,
        default=0.04,
        help="base sampling rate for approx/both modes",
    )
    sql.add_argument(
        "--explain",
        action="store_true",
        help=(
            "also print the approximate answer's rewritten SQL (the "
            "UNION ALL of sample-table pieces that was executed)"
        ),
    )
    sql.add_argument(
        "--profile",
        action="store_true",
        help=(
            "also print the query profile: lifecycle spans and cache "
            "hit/miss delta (answer-neutral)"
        ),
    )
    sql.add_argument(
        "--profile-json",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "write the query profile as strict JSON to PATH "
            "('-' for stdout); implies profiling"
        ),
    )
    stats = subparsers.add_parser(
        "stats",
        help=(
            "run a small workload and print process-wide observability "
            "stats (metrics registry + memo counters)"
        ),
    )
    stats.add_argument(
        "database", type=Path, help="directory written by repro.storage"
    )
    stats.add_argument(
        "--query",
        action="append",
        default=None,
        metavar="SQL",
        help=(
            "SQL aggregation query to run (repeatable); default is one "
            "COUNT(*) over the largest table"
        ),
    )
    stats.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="times to run each query (warm passes exercise the caches)",
    )
    stats.add_argument(
        "--mode",
        choices=("exact", "approx", "both"),
        default="both",
        help="execution mode for the workload queries",
    )
    stats.add_argument(
        "--base-rate",
        type=float,
        default=0.04,
        help="base sampling rate for approx/both modes",
    )
    stats.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the stats as strict JSON to PATH ('-' for stdout)",
    )
    serve = subparsers.add_parser(
        "serve",
        help=(
            "serve a stored database to concurrent clients over the JSON "
            "protocol (docs/serving.md)"
        ),
    )
    serve.add_argument(
        "database", type=Path, help="directory written by repro.storage"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="address to bind"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="port to bind (0 picks a free port)",
    )
    serve.add_argument(
        "--base-rate",
        type=float,
        default=0.04,
        help="base sampling rate for the installed technique",
    )
    serve.add_argument(
        "--exact-only",
        action="store_true",
        help="skip technique installation; serve exact queries only",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        help=(
            "concurrent queries admitted before new ones are rejected "
            "with 'overloaded' (HTTP 429)"
        ),
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "default per-request deadline applied when a request carries "
            "no timeout of its own"
        ),
    )
    query = subparsers.add_parser(
        "query",
        help="send one SQL query to a running `repro serve` instance",
    )
    query.add_argument("sql", help="SQL aggregation query text")
    query.add_argument(
        "--host", default="127.0.0.1", help="server address"
    )
    query.add_argument(
        "--port", type=int, default=8642, help="server port"
    )
    query.add_argument(
        "--mode",
        choices=("exact", "approx", "both"),
        default="approx",
        help="execution mode requested from the server",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="server-side per-request deadline",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="print the raw response object instead of a rendered table",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "sql":
        return _run_sql(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "query":
        return _run_query(args)
    if args.command == "list":
        rows = [[fid, desc] for fid, (desc, _, _) in FIGURES.items()]
        print(format_table(["id", "description"], rows))
        return 0
    if args.command == "plan":
        return _run_plan(args)
    if args.command == "report":
        return _run_report(args.results)
    ids = list(FIGURES) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in FIGURES]
    if unknown:
        print(f"unknown figure ids: {unknown}; use 'repro list'")
        return 2
    for fid in ids:
        description, full, quick = FIGURES[fid]
        print(f"\nRunning {fid}: {description} ...")
        run = (quick if args.quick else full)()
        print(render_run(run))
        if args.out is not None:
            path = _save(run, args.out)
            print(f"wrote {path}")
    return 0


def _run_sql(args) -> int:
    """Answer one SQL query against a database stored on disk."""
    from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
    from repro.errors import ReproError
    from repro.middleware.session import AQPSession
    from repro.storage.io import load_database

    try:
        db = load_database(args.database)
    except ReproError as error:
        print(f"cannot load database from {args.database}: {error}")
        return 1
    session = AQPSession(db)
    profile = args.profile or args.profile_json is not None
    try:
        if args.mode in ("approx", "both"):
            session.install(
                SmallGroupSampling(SmallGroupConfig(base_rate=args.base_rate))
            )
        result = session.sql(
            args.query, mode=args.mode, explain=args.explain, profile=profile
        )
    except ReproError as error:
        print(f"query failed: {error}")
        return 1
    print(result.to_text())
    if args.profile_json is not None and result.profile is not None:
        _write_json(result.profile.to_dict(), args.profile_json)
    return 0


def _write_json(payload: dict, path: str) -> None:
    """Write strict JSON to ``path``, or stdout when ``path`` is ``-``."""
    from repro.obs import dumps

    text = dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n")
        print(f"wrote {path}")


def _run_stats(args) -> int:
    """Run a small workload and report process-wide observability stats.

    The registry counters and the memo metrics are process-wide, so the
    numbers cover exactly what this invocation ran: ``--repeat`` passes
    over each ``--query`` (first pass cold, the rest exercising the
    parse/plan memos and the per-column memos).
    """
    from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
    from repro.engine.cache import get_cache
    from repro.errors import ReproError
    from repro.middleware.session import AQPSession
    from repro.obs import get_registry
    from repro.storage.io import load_database

    try:
        db = load_database(args.database)
    except ReproError as error:
        print(f"cannot load database from {args.database}: {error}")
        return 1
    queries = args.query
    if not queries:
        largest = max(
            (db.table(name) for name in db.table_names),
            key=lambda t: t.n_rows,
        )
        queries = [f"SELECT COUNT(*) AS n FROM {largest.name}"]
    get_registry().reset()
    get_cache().metrics.reset()
    session = AQPSession(db)
    try:
        if args.mode in ("approx", "both"):
            session.install(
                SmallGroupSampling(SmallGroupConfig(base_rate=args.base_rate))
            )
        for _ in range(max(1, args.repeat)):
            for query in queries:
                session.sql(query, mode=args.mode)
    except ReproError as error:
        print(f"workload failed: {error}")
        return 1
    registry_snapshot = get_registry().snapshot()
    cache_snapshot = get_cache().metrics.snapshot()
    print(
        f"workload: {len(queries)} quer{'y' if len(queries) == 1 else 'ies'}"
        f" x {max(1, args.repeat)} repeats, mode={args.mode}"
    )
    counters = registry_snapshot.get("counters", {})
    if counters:
        print(
            format_table(
                ["counter", "value"], sorted(counters.items())
            )
        )
    gauges = registry_snapshot.get("gauges", {})
    if gauges:
        print(format_table(["gauge", "value"], sorted(gauges.items())))
    histograms = registry_snapshot.get("histograms", {})
    if histograms:
        rows = [
            [
                name,
                h["count"],
                h["sum"],
                h["min"],
                h["max"],
                h["mean"],
            ]
            for name, h in sorted(histograms.items())
        ]
        print(
            format_table(
                ["histogram", "count", "sum", "min", "max", "mean"], rows
            )
        )
    kinds = cache_snapshot.get("by_kind", {})
    if kinds:
        rows = [
            [kind, c["hits"], c["misses"], f"{c['hit_rate']:.2f}"]
            for kind, c in sorted(kinds.items())
        ]
        print(format_table(["cache kind", "hits", "misses", "rate"], rows))
    # Incremental-ingestion summary: always printed (zeros included) so a
    # run can confirm whether reservoir maintenance engaged.
    counter = get_registry().counter
    print(
        "ingest: "
        f"reservoir_updates={counter('ingest.reservoir_updates'):g}"
    )
    if args.json is not None:
        _write_json(
            {"registry": registry_snapshot, "cache": cache_snapshot},
            args.json,
        )
    return 0


def _run_serve(args) -> int:
    """Serve a stored database to concurrent clients until interrupted."""
    from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
    from repro.errors import ReproError
    from repro.middleware.session import AQPSession
    from repro.server import ServerConfig, make_server
    from repro.storage.io import load_database

    try:
        db = load_database(args.database)
    except ReproError as error:
        print(f"cannot load database from {args.database}: {error}")
        return 1
    session = AQPSession(db)
    try:
        if not args.exact_only:
            print(
                f"pre-processing samples (base rate {args.base_rate:g}) ...",
                end=" ",
                flush=True,
            )
            report = session.install(
                SmallGroupSampling(SmallGroupConfig(base_rate=args.base_rate))
            )
            print(
                f"{report.wall_time_seconds:.2f} s, "
                f"{report.sample_rows} sample rows"
            )
        server = make_server(
            session,
            host=args.host,
            port=args.port,
            config=ServerConfig(
                max_inflight=args.max_inflight,
                default_deadline=args.deadline,
            ),
        )
    except ReproError as error:
        session.close()
        print(f"cannot start server: {error}")
        return 1
    host, port = server.server_address[:2]
    print(
        f"serving {args.database} on http://{host}:{port} "
        f"(max_inflight={args.max_inflight}"
        + (
            f", default deadline {args.deadline:g}s"
            if args.deadline is not None
            else ""
        )
        + "); Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down ...")
    finally:
        server.shutdown()
        server.server_close()
        session.close()
    return 0


def _run_query(args) -> int:
    """Send one query to a running server and render the answer."""
    from repro.client import ReproClient
    from repro.errors import ServerError

    with ReproClient(host=args.host, port=args.port) as client:
        try:
            response = client.query(
                args.sql, mode=args.mode, timeout=args.timeout
            )
        except ServerError as error:
            code = f" [{error.code}]" if error.code else ""
            print(f"query failed{code}: {error}")
            return 1
    if args.json:
        _write_json(response, "-")
        return 0
    answer = response.get("answer", {})
    for kind in ("approx", "exact"):
        part = answer.get(kind)
        if part is None:
            continue
        headers = list(part["group_columns"]) + list(part["aggregate_names"])
        rows = [
            list(group["key"])
            + list(group.get("estimates", group.get("values", [])))
            for group in part["groups"]
        ]
        label = (
            f"approximate answer ({part.get('technique', '')}, "
            f"{part['n_groups']} groups)"
            if kind == "approx"
            else f"exact answer ({part['n_groups']} groups)"
        )
        print(label)
        print(format_table(headers, rows))
    timings = response.get("timings", {})
    parts = [
        f"{name}={timings[key]:.4f}s"
        for name, key in (
            ("approx", "approx_seconds"),
            ("exact", "exact_seconds"),
        )
        if timings.get(key) is not None
    ]
    if parts:
        print("timings: " + " ".join(parts))
    return 0


def _run_report(results_dir: Path) -> int:
    """Summarise recorded figure CSVs: per series, the value range."""
    import csv

    files = sorted(results_dir.glob("figure_*.csv"))
    if not files:
        print(
            f"no figure_*.csv files in {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
        return 1
    rows = []
    for path in files:
        figure = path.stem.removeprefix("figure_")
        series: dict[str, list[float]] = {}
        with path.open() as handle:
            for record in csv.DictReader(handle):
                try:
                    value = float(record["value"])
                except ValueError:
                    continue
                series.setdefault(record["series"], []).append(value)
        for name, values in sorted(series.items()):
            rows.append(
                [figure, name, len(values), min(values), max(values)]
            )
    print(format_table(["figure", "series", "points", "min", "max"], rows))
    print(f"\n{len(files)} recorded figures in {results_dir}")
    return 0


def _run_plan(args) -> int:
    from repro.analysis.model import AnalysisScenario
    from repro.analysis.planner import plan_allocation_ratio, plan_budget
    from repro.errors import ExperimentError

    scenario = AnalysisScenario(
        n_group_columns=args.group_columns,
        selectivity=args.selectivity,
        n_distinct=args.distinct,
        z=args.z,
        database_rows=args.rows,
        budget_fraction=args.budget,
    )
    plan = plan_allocation_ratio(scenario)
    print("At the given budget (Theorem 4.1 model):")
    print(
        format_table(
            ["parameter", "value"],
            [
                ["budget fraction", plan.budget_fraction],
                ["allocation ratio (gamma)", plan.allocation_ratio],
                ["base rate r", plan.base_rate],
                ["predicted SqRelErr", plan.predicted_sq_rel_err],
            ],
        )
    )
    if args.target is not None:
        try:
            sized = plan_budget(scenario, args.target)
        except ExperimentError as error:
            print(f"cannot reach target: {error}")
            return 1
        print(f"\nMinimum budget for SqRelErr <= {args.target}:")
        print(
            format_table(
                ["parameter", "value"],
                [
                    ["budget fraction", sized.budget_fraction],
                    ["allocation ratio (gamma)", sized.allocation_ratio],
                    ["base rate r", sized.base_rate],
                    ["predicted SqRelErr", sized.predicted_sq_rel_err],
                ],
            )
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
