"""Command line of the end-to-end benchmark (see README.md).

Two callers share it.  The benchmark driver runs one workload per call
(``--workload W --seed N --seconds S --trace 0|1``) and reads the last
line of standard output.  A person runs every workload with one command
(no ``--workload``), adds ``--traced`` for the per-layer run and its
fingerprint cross-check, keeps results with ``--out`` and compares two
result files with ``--compare``.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.e2e.compare import compare
from benchmarks.e2e.config import FACT_ROWS, WORKLOADS, load_spec, metric_table
from benchmarks.e2e.stats import MIN_SAMPLES_BEYOND


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="timed run, then traced run, then cross-check their fingerprints")
    parser.add_argument("--out", metavar="FILE", help="write the full results as JSON")
    parser.add_argument("--fact-rows", type=int, default=FACT_ROWS,
                        help="fact-table rows (the benchmark proper uses the default)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files against the bounds and exit")
    return parser


def _print_result(result: dict) -> None:
    kind = "end_to_end" if result["mode"] == "timed" else "per_layer"
    table = metric_table(kind)
    samples = result["samples"]
    print(f"== {result['workload']} ({result['mode']}, seed {result['seed']}, "
          f"{result['seconds']:g} s, {result['fact_rows']} fact rows) ==")
    for name, metric in result["metrics"].items():
        bound = f"  bound {table[name]['bound']:.2f}" if "bound" in table[name] else ""
        print(f"  {name:<32}{metric['value']:>14.4f} {metric['unit']:<9}"
              f"({table[name]['better']} is better{bound})")
    print(f"  samples: {samples['queries']} queries, {samples['appends']} appends"
          + (f", {samples['beyond_tail']} beyond the tail percentile"
             f"{'' if samples['beyond_tail'] >= MIN_SAMPLES_BEYOND else ' (fewer than the rule asks for)'}"
             if "beyond_tail" in samples else ""))
    for name, value in result.get("extra", {}).items():
        print(f"  {name:<32}{value:>14.4f}")
    share = result["failed"] / result["attempted"]
    print(f"  failed_share {share:.6f} ({result['failed']} of {result['attempted']})"
          + ("" if result.get("valid", True) else "  RUN INVALID: load generator overloaded"))
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")


def _cross_check(timed: dict, traced: dict) -> list[str]:
    """Served fingerprints must equal the in-process replay's, op for op."""
    if timed["workload"] == "ingest_mix":
        return []  # reads race appends there; the serial replay sees other tables
    replayed = traced["fingerprints"]
    return [
        f"{timed['workload']} op #{index}: served fingerprint differs from in-process replay"
        for index, fingerprint in timed["fingerprints"].items()
        if index in replayed and replayed[index] != fingerprint
    ]


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        rows, agree = compare(*args.compare)
        print("\n".join(rows))
        return 0 if agree else 1

    # Imported late: --compare and --help need neither numpy nor the product.
    from benchmarks.e2e.runner import run_timed
    from benchmarks.e2e.tracing import run_traced

    seconds = args.seconds if args.seconds is not None else float(load_spec()["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    results: dict[str, dict] = {}
    traces: dict[str, dict] = {}
    problems: list[str] = []
    for name in names:
        if args.traced or args.trace == 0:
            results[name] = run_timed(name, args.seed, seconds, args.fact_rows)
            _print_result(results[name])
        if args.traced or args.trace == 1:
            traces[name] = run_traced(name, args.seed, seconds, args.fact_rows)
            _print_result(traces[name])
        if args.traced:
            problems += _cross_check(results[name], traces[name])
    if {"adhoc_approx", "exact_scan"} <= results.keys():
        exact = results["exact_scan"]["metrics"]["query_p50_ms"]["value"]
        approx = results["adhoc_approx"]["metrics"]["query_p50_ms"]["value"]
        print(f"speedup_vs_exact {exact / approx:.2f}x "
              f"(exact_scan p50 {exact:.1f} ms / adhoc_approx p50 {approx:.1f} ms; not gated)")
    for problem in problems:
        print(f"FAILED: {problem}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "seconds": seconds, "workloads": results,
                       "traced": traces}, handle, indent=1, allow_nan=False)

    runs = list(results.values()) + list(traces.values())
    correct = all(run["correct"] for run in runs) and not problems
    if len(runs) == 1:
        # The driver's contract: the last line is one JSON object.
        run = runs[0]
        print(json.dumps({"correct": correct, "attempted": run["attempted"],
                          "failed": run["failed"], "metrics": run["metrics"]}, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
