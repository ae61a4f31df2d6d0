"""Answer checks and quality scoring on served response bodies.

Everything here reads the wire format only (``docs/serving.md``); truth
comes from :mod:`benchmarks.e2e.oracle`, never from the code under test.
"""

from __future__ import annotations

from repro.engine.expressions import AggFunc
from repro.metrics.error import pct_groups, rel_err

from benchmarks.e2e.oracle import Oracle, same_answer
from benchmarks.e2e.workloads import QueryOp


def well_formed_query(body: dict, mode: str) -> bool:
    """``ok``, a fingerprint, and an answer whose group list matches its count."""
    answer = body.get("answer", {}).get(mode)
    return (
        body.get("ok") is True
        and isinstance(body.get("fingerprint"), str)
        and isinstance(answer, dict)
        and isinstance(answer.get("groups"), list)
        and answer.get("n_groups") == len(answer["groups"])
    )


def well_formed_append(body: dict, expected_rows: int, expected_total: int) -> bool:
    """``ok`` and the row counts the batch implies (no lost or doubled append)."""
    return (
        body.get("ok") is True
        and body.get("appended_rows") == expected_rows
        and body.get("total_rows") == expected_total
    )


def exact_groups(body: dict) -> dict[tuple, float]:
    """``group -> first aggregate`` of an exact-mode response."""
    return {tuple(g["key"]): g["values"][0] for g in body["answer"]["exact"]["groups"]}


def approx_groups(body: dict) -> dict[tuple, dict]:
    """``group -> {estimate, interval, exact}`` (first aggregate) of an approximate response."""
    return {
        tuple(g["key"]): {
            "estimate": g["estimates"][0],
            "interval": g["intervals"][0],
            "exact": g["exact"][0],
        }
        for g in body["answer"]["approx"]["groups"]
    }


def _is_sum(op: QueryOp) -> bool:
    return op.query.aggregates[0].func is AggFunc.SUM


def exact_matches_oracle(op: QueryOp, body: dict, oracle: Oracle) -> bool:
    """An exact-mode answer equals the oracle's (groups, COUNT exact, SUM rtol)."""
    return same_answer(oracle.answer(op.query), exact_groups(body), _is_sum(op))


def flagged_exact_is_true(op: QueryOp, body: dict, truth: dict[tuple, float]) -> bool:
    """Every group an approximate answer flags ``exact`` equals the truth."""
    flagged = {g: v["estimate"] for g, v in approx_groups(body).items() if v["exact"]}
    if not flagged.keys() <= truth.keys():
        return False
    return same_answer({g: truth[g] for g in flagged}, flagged, _is_sum(op))


def score_quality(scored: list[tuple[dict[tuple, float], dict[tuple, dict]]]) -> dict[str, float]:
    """Mean RelErr / PctGroups (Defs 4.2 / 4.1) and pooled CI coverage.

    ``scored`` pairs each query's truth with its approximate groups.
    Coverage is the share of non-exact groups, pooled over all queries,
    whose truth lies inside the returned interval.
    """
    rel, missed, inside, judged = [], [], 0, 0
    for truth, approx in scored:
        estimates = {g: v["estimate"] for g, v in approx.items()}
        rel.append(rel_err(truth, estimates))
        missed.append(pct_groups(truth, estimates))
        for group, value in approx.items():
            if value["exact"] or group not in truth:
                continue
            low, high = value["interval"]
            judged += 1
            inside += low <= truth[group] <= high
    return {
        "rel_err": sum(rel) / len(rel),
        "groups_missed_pct": sum(missed) / len(missed),
        "ci_coverage": inside / judged if judged else 1.0,
    }
