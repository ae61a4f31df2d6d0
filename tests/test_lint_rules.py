"""Fixture-driven tests for the repro.lint invariant checker.

Each rule gets at least one failing fixture (proving it fires) and one
passing fixture (proving it does not over-fire), plus baseline mechanics
and the self-hosting check: the checker runs clean on the repo's own
tree with the reviewed baseline.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    all_rules,
    apply_baseline,
    lint_source,
    load_baseline,
    main,
)
from repro.lint.baseline import BaselineEntry

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_rule(rule_id, source, path):
    """Findings of one rule over a dedented fixture snippet."""
    return lint_source(
        textwrap.dedent(source), path, all_rules([rule_id])
    )


class TestRL002ScaleDiscipline:
    def test_fires_on_sampled_piece_with_unit_scale(self):
        source = """
            def pieces(t, q):
                return [SamplePiece(table=t, query=q, scale=1.0)]
        """
        findings = run_rule("RL002", source, "repro/core/foo.py")
        assert len(findings) == 1
        assert "1/r" in findings[0].message

    def test_fires_on_exact_piece_with_nonunit_scale(self):
        source = """
            def pieces(t, q):
                return [
                    SamplePiece(
                        table=t, query=q, scale=2.0, zero_variance=True
                    )
                ]
        """
        findings = run_rule("RL002", source, "repro/core/foo.py")
        assert len(findings) == 1
        assert "unit scale" in findings[0].message

    def test_fires_on_defaulted_scale_without_weights(self):
        source = """
            def pieces(t, q):
                return [SamplePiece(table=t, query=q)]
        """
        assert len(run_rule("RL002", source, "repro/baselines/foo.py")) == 1

    def test_correct_constructions_pass(self):
        source = """
            def pieces(t, q, rate, w):
                return [
                    SamplePiece(table=t, query=q, scale=1.0 / rate),
                    SamplePiece(
                        table=t, query=q, scale=1.0, zero_variance=True
                    ),
                    SamplePiece(table=t, query=q, weights=w),
                    OverallPart(table=t, scale=1.0 / rate, rate=rate),
                ]
        """
        assert run_rule("RL002", source, "repro/core/foo.py") == []

    def test_runtime_zero_variance_is_undecidable(self):
        source = """
            def pieces(t, q, part):
                return SamplePiece(
                    table=t, query=q, scale=1.0,
                    zero_variance=part.zero_variance,
                )
        """
        assert run_rule("RL002", source, "repro/core/foo.py") == []

    def test_out_of_scope_path_ignored(self):
        source = """
            def pieces(t, q):
                return SamplePiece(table=t, query=q, scale=1.0)
        """
        assert run_rule("RL002", source, "repro/experiments/foo.py") == []


class TestRL003Nondeterminism:
    def test_fires_on_wall_clock(self):
        source = """
            import time

            def stamp():
                return time.time()
        """
        findings = run_rule("RL003", source, "repro/core/foo.py")
        assert len(findings) == 1
        assert "wall clock" in findings[0].message

    def test_fires_on_from_import_alias(self):
        source = """
            from time import time

            def stamp():
                return time()
        """
        assert len(run_rule("RL003", source, "repro/engine/foo.py")) == 1

    def test_fires_on_unseeded_generators(self):
        source = """
            import random

            import numpy as np

            def draw():
                rng = np.random.default_rng()
                return random.Random(), rng
        """
        findings = run_rule("RL003", source, "repro/baselines/foo.py")
        assert len(findings) == 2

    def test_fires_on_legacy_global_numpy_rng(self):
        source = """
            import numpy as np

            def draw(n):
                return np.random.rand(n)
        """
        assert len(run_rule("RL003", source, "repro/core/foo.py")) == 1

    def test_seeded_and_monotonic_pass(self):
        source = """
            import time

            import numpy as np

            def timed(seed):
                start = time.perf_counter()
                rng = np.random.default_rng(seed)
                return rng, time.perf_counter() - start
        """
        assert run_rule("RL003", source, "repro/engine/foo.py") == []

    def test_datagen_may_use_entropy(self):
        source = """
            import numpy as np

            def fresh():
                return np.random.default_rng()
        """
        assert run_rule("RL003", source, "repro/datagen/foo.py") == []


class TestRL005AssertAsGuard:
    def test_fires_on_bare_assert(self):
        source = """
            def guard(x):
                assert x is not None
                return x
        """
        findings = run_rule("RL005", source, "repro/engine/foo.py")
        assert len(findings) == 1
        assert "python -O" in findings[0].message

    def test_raising_guard_passes(self):
        source = """
            from repro.errors import InternalError

            def guard(x):
                if x is None:
                    raise InternalError("x must be set")
                return x
        """
        assert run_rule("RL005", source, "repro/engine/foo.py") == []


class TestRL006IOPurity:
    def test_fires_on_print_in_library_code(self):
        source = """
            def report(x):
                print(x)
        """
        findings = run_rule("RL006", source, "repro/core/foo.py")
        assert len(findings) == 1

    def test_fires_on_breakpoint_anywhere(self):
        source = """
            def debug(x):
                breakpoint()
        """
        assert len(run_rule("RL006", source, "repro/cli.py")) == 1

    def test_presentation_layer_may_print(self):
        source = """
            def report(x):
                print(x)
        """
        for path in (
            "repro/cli.py",
            "repro/lint/cli.py",
            "repro/experiments/reporting.py",
        ):
            assert run_rule("RL006", source, path) == []


class TestRL008ZoneMapMutation:
    BAD_SUBSCRIPT = """
        class Editor:
            def patch(self, col, i, v):
                col.data[i] = v
    """

    BAD_REBIND = """
        class Editor:
            def swap(self, col, arr):
                col.data = arr
    """

    BAD_SET_BIT = """
        def tag(vector, rows, bit):
            vector.set_bit(rows, bit)
    """

    GOOD_INVALIDATED = """
        class Editor:
            def patch(self, col, i, v):
                col.data[i] = v
                self.invalidate(col)
    """

    GOOD_INIT = """
        class Holder:
            def __init__(self, arr):
                self.data = arr
                self.data[0] = 0
    """

    def test_fires_on_subscript_write(self):
        findings = run_rule(
            "RL008", self.BAD_SUBSCRIPT, "repro/engine/foo.py"
        )
        assert len(findings) == 1
        assert findings[0].symbol == "Editor.patch"
        assert "writes into 'data'" in findings[0].message

    def test_fires_on_attribute_rebind(self):
        findings = run_rule("RL008", self.BAD_REBIND, "repro/engine/foo.py")
        assert len(findings) == 1
        assert "rebinds 'data'" in findings[0].message

    def test_fires_on_set_bit_call(self):
        findings = run_rule("RL008", self.BAD_SET_BIT, "repro/engine/foo.py")
        assert len(findings) == 1
        assert "set_bit" in findings[0].message

    def test_invalidating_in_same_function_passes(self):
        assert (
            run_rule("RL008", self.GOOD_INVALIDATED, "repro/engine/foo.py")
            == []
        )

    def test_init_is_exempt(self):
        assert run_rule("RL008", self.GOOD_INIT, "repro/engine/foo.py") == []

    def test_reads_are_out_of_scope(self):
        source = """
            def summarise(col, start, stop):
                return col.data[start:stop].min()
        """
        assert run_rule("RL008", source, "repro/engine/foo.py") == []

    def test_out_of_scope_file_ignored(self):
        assert (
            run_rule("RL008", self.BAD_SUBSCRIPT, "repro/workload/foo.py")
            == []
        )

    def test_allowlisted_primitive_passes(self):
        source = """
            class BitmaskVector:
                def set_bit(self, rows, bit):
                    self.words[rows, bit // WORD_BITS] |= one << bit
        """
        assert run_rule("RL008", source, "repro/engine/bitmask.py") == []


class TestRL009ObservabilityReads:
    BAD_ATTR_READ = """
        def combine(span, groups):
            total = span.seconds
            return total + len(groups)
    """

    BAD_AUG_READ = """
        def accumulate(piece_span, extra):
            piece_span.seconds += extra
    """

    BAD_READ_API = """
        def slowest(span):
            return span.find("pool.scatter")
    """

    BAD_BRANCH = """
        def maybe_fast_path(span, table):
            if span:
                return table.head()
            return table
    """

    BAD_BRANCH_CALL = """
        def maybe(span, table):
            if span.find("combine"):
                return table.head()
            return table
    """

    BAD_REGISTRY_READ = """
        def adaptive(registry, query):
            if registry.counter("pool.tasks_scattered") > 100:
                return query.serial()
            return query
    """

    GOOD_WRITE_ONLY = """
        def combine(span, groups):
            child = span.child("combine")
            with child:
                child.add("groups", len(groups))
                child.annotate(done=True)
            child.seconds = 0.25
            get_registry().incr("combiner.pieces_executed", len(groups))
    """

    GOOD_IDENTITY = """
        def attach(span, answer):
            answer.trace = None if span is NULL_SPAN else span
            return answer
    """

    def test_fires_on_span_state_read(self):
        findings = run_rule("RL009", self.BAD_ATTR_READ, "repro/engine/foo.py")
        assert len(findings) == 1
        assert "'.seconds'" in findings[0].message

    def test_fires_on_augmented_read(self):
        findings = run_rule("RL009", self.BAD_AUG_READ, "repro/core/foo.py")
        assert len(findings) == 1
        assert "write-only" in findings[0].message

    def test_fires_on_read_api_call(self):
        findings = run_rule("RL009", self.BAD_READ_API, "repro/engine/foo.py")
        assert len(findings) == 1
        assert "read-API" in findings[0].message

    def test_fires_on_span_truthiness_branch(self):
        findings = run_rule("RL009", self.BAD_BRANCH, "repro/core/foo.py")
        assert len(findings) == 1
        assert "branches on span" in findings[0].message

    def test_fires_on_span_call_in_branch_test(self):
        findings = run_rule(
            "RL009", self.BAD_BRANCH_CALL, "repro/core/foo.py"
        )
        assert findings  # the .find() read and the branch use both count
        assert any("control flow" in f.message or "read-API" in f.message
                   for f in findings)

    def test_fires_on_registry_read(self):
        findings = run_rule(
            "RL009", self.BAD_REGISTRY_READ, "repro/baselines/foo.py"
        )
        assert len(findings) == 1
        assert "registry" in findings[0].message

    def test_write_only_instrumentation_passes(self):
        assert (
            run_rule("RL009", self.GOOD_WRITE_ONLY, "repro/engine/foo.py")
            == []
        )

    def test_identity_check_against_null_span_passes(self):
        assert (
            run_rule("RL009", self.GOOD_IDENTITY, "repro/core/foo.py") == []
        )

    def test_out_of_scope_file_ignored(self):
        for path in ("repro/obs/profile.py", "repro/middleware/session.py"):
            assert run_rule("RL009", self.BAD_ATTR_READ, path) == []


class TestInfrastructure:
    def test_unparsable_file_is_reported_not_raised(self):
        findings = lint_source("def broken(:", "repro/engine/foo.py")
        assert len(findings) == 1
        assert findings[0].rule == "RL000"

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(KeyError):
            all_rules(["RL999"])

    def test_every_rule_has_id_and_title(self):
        rules = all_rules()
        # RL001, RL004, RL007 and RL010-RL014 are retired and stay
        # reserved.
        assert [r.rule_id for r in rules] == [
            f"RL00{i}" for i in (2, 3, 5, 6, 8, 9)
        ]
        assert all(r.title for r in rules)


class TestBaseline:
    def findings(self):
        return lint_source(
            "def f(x):\n    assert x\n    print(x)\n",
            "repro/engine/foo.py",
        )

    def test_apply_baseline_splits_fresh_accepted_stale(self):
        findings = self.findings()
        entries = [
            BaselineEntry(
                rule="RL005",
                path="repro/engine/foo.py",
                symbol="f",
                reason="legacy",
            ),
            BaselineEntry(
                rule="RL002",
                path="repro/engine/gone.py",
                symbol="g",
                reason="stale",
            ),
        ]
        fresh, accepted, stale = apply_baseline(findings, entries)
        assert [f.rule for f in fresh] == ["RL006"]
        assert [f.rule for f in accepted] == ["RL005"]
        assert [e.symbol for e in stale] == ["g"]

    def test_load_baseline_requires_reasons(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "RL005",
                            "path": "repro/x.py",
                            "symbol": "f",
                            "reason": "",
                        }
                    ]
                }
            )
        )
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_repo_baseline_is_small_and_justified(self):
        entries = load_baseline(REPO_ROOT / "lint_baseline.json")
        assert len(entries) <= 5
        assert all(len(e.reason) > 20 for e in entries)


class TestCLI:
    def write_fixture(self, tmp_path):
        pkg = tmp_path / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def guard(x):\n    assert x\n    return x\n"
        )
        return tmp_path

    def test_exit_one_on_fresh_findings(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "RL005" in out

    def test_baseline_turns_exit_green(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "RL005",
                            "path": "repro/engine/bad.py",
                            "symbol": "guard",
                            "reason": "fixture acceptance for the test",
                        }
                    ]
                }
            )
        )
        assert main([str(root), "--baseline", str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        code = main([str(root), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 1
        assert payload["summary"]["fresh"] == 1
        assert payload["findings"][0]["rule"] == "RL005"

    def test_write_baseline_skeleton(self, tmp_path, capsys):
        root = self.write_fixture(tmp_path)
        out_file = tmp_path / "generated.json"
        assert main([str(root), "--write-baseline", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["entries"][0]["rule"] == "RL005"
        assert "TODO" in payload["entries"][0]["reason"]
        capsys.readouterr()

    def test_rule_subset_selection(self, tmp_path):
        root = self.write_fixture(tmp_path)
        assert main([str(root), "--rules", "RL006"]) == 0


class TestSelfHosting:
    def test_repo_tree_is_clean_under_baseline(self, capsys):
        code = main(
            [
                str(REPO_ROOT / "src"),
                "--baseline",
                str(REPO_ROOT / "lint_baseline.json"),
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload["findings"]
        assert payload["findings"] == []
        assert payload["stale_baseline"] == []
        assert payload["summary"]["checked_files"] > 60

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                str(REPO_ROOT / "src"),
                "--baseline",
                str(REPO_ROOT / "lint_baseline.json"),
            ],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout


class TestWriteBaselineDeterminism:
    def fixture_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "zz.py").write_text(
            "def guard(x):\n    assert x\n    return x\n"
        )
        (pkg / "aa.py").write_text(
            "def check(x):\n    assert x\n    print(x)\n"
        )
        return tmp_path

    def test_output_is_sorted_and_stable(self, tmp_path, capsys):
        root = self.fixture_tree(tmp_path)
        out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
        assert main([str(root), "--write-baseline", str(out1)]) == 0
        assert main([str(root), "--write-baseline", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()
        entries = json.loads(out1.read_text())["entries"]
        keys = [(e["path"], e["rule"], e["symbol"]) for e in entries]
        assert keys == sorted(keys)
        assert list(entries[0]) == ["rule", "path", "symbol", "reason"]

    def test_regenerate_preserves_reasons_and_prunes_stale(
        self, tmp_path, capsys
    ):
        root = self.fixture_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "RL005",
                            "path": "repro/engine/aa.py",
                            "symbol": "check",
                            "reason": "reviewed: fixture guard is fine",
                        },
                        {
                            "rule": "RL002",
                            "path": "repro/engine/gone.py",
                            "symbol": "vanished",
                            "reason": "matches nothing anymore",
                        },
                    ]
                }
            )
        )
        assert main([str(root), "--write-baseline", str(baseline)]) == 0
        captured = capsys.readouterr()
        assert "pruned stale baseline entry" in captured.err
        assert "gone.py" in captured.err
        payload = json.loads(baseline.read_text())
        by_key = {
            (e["rule"], e["path"], e["symbol"]): e["reason"]
            for e in payload["entries"]
        }
        assert by_key[
            ("RL005", "repro/engine/aa.py", "check")
        ] == "reviewed: fixture guard is fine"
        assert ("RL002", "repro/engine/gone.py", "vanished") not in by_key
        assert "TODO" in by_key[("RL006", "repro/engine/aa.py", "check")]
