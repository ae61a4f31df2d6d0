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
from repro.lint.core import _run_rules, parse_context

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_rule(rule_id, source, path):
    """Findings of one rule over a dedented fixture snippet."""
    return lint_source(
        textwrap.dedent(source), path, all_rules([rule_id])
    )


class TestRL001MutationWithoutInvalidation:
    BAD = """
        class Catalog:
            def replace(self, name, table):
                old = self._tables[name]
                self._tables[name] = table
                return old
    """

    GOOD = """
        class Catalog:
            def replace(self, name, table):
                old = self._tables[name]
                self.cache.invalidate_table(old)
                self._tables[name] = table
                return old
    """

    def test_fires_on_uninvalidated_replacement(self):
        findings = run_rule("RL001", self.BAD, "repro/engine/catalog.py")
        assert len(findings) == 1
        assert findings[0].rule == "RL001"
        assert findings[0].symbol == "Catalog.replace"

    def test_invalidate_in_same_function_passes(self):
        assert run_rule("RL001", self.GOOD, "repro/engine/catalog.py") == []

    def test_plan_version_bump_discharges(self):
        source = """
            class Technique:
                def rebuild(self, tables):
                    self._tables = tables
                    self._plan_version += 1
        """
        assert run_rule("RL001", source, "repro/engine/t.py") == []

    def test_init_is_exempt(self):
        source = """
            class Catalog:
                def __init__(self):
                    self._tables = {}
        """
        assert run_rule("RL001", source, "repro/engine/catalog.py") == []

    def test_allowlisted_symbol_is_exempt(self):
        source = """
            class Database:
                def add_table(self, table):
                    self._tables[table.name] = table
        """
        assert run_rule("RL001", source, "repro/engine/database.py") == []

    def test_out_of_scope_path_ignored(self):
        assert run_rule("RL001", self.BAD, "repro/datagen/catalog.py") == []


class TestRL001AppendVocabulary:
    """Raw payload growth must come with an invalidation.

    Rebinding ``column.data`` / ``vector.words`` to a grown array leaves
    every identity-anchored cache entry describing the old payload, so
    the same function must call ``invalidate*``.
    """

    RAW_DATA_GROW = """
        class Loader:
            def grow(self, column, tail):
                column.data = np.concatenate([column.data, tail])
    """

    RAW_WORDS_GROW = """
        class Loader:
            def grow(self, vector, rows):
                vector.words = np.vstack([vector.words, rows])
    """

    def test_raw_data_grow_without_notify_fires(self):
        findings = run_rule(
            "RL001", self.RAW_DATA_GROW, "repro/engine/loader.py"
        )
        assert [f.symbol for f in findings] == ["Loader.grow"]
        assert "'data'" in findings[0].message

    def test_raw_words_grow_without_notify_fires(self):
        findings = run_rule(
            "RL001", self.RAW_WORDS_GROW, "repro/engine/loader.py"
        )
        assert [f.symbol for f in findings] == ["Loader.grow"]

    def test_invalidate_also_discharges_data_grow(self):
        source = """
            class Loader:
                def grow(self, column, tail):
                    column.data = np.concatenate([column.data, tail])
                    self.cache.invalidate_object(column)
        """
        assert run_rule("RL001", source, "repro/engine/loader.py") == []

    def test_element_write_into_payload_is_rl008_territory(self):
        # Writing *into* the array (not rebinding it) is the published-
        # array hazard RL008 owns; RL001 must not double-report it.
        source = """
            class Mask:
                def set_bit(self, rows, bit):
                    self.words[rows, bit] |= 1
        """
        assert run_rule("RL001", source, "repro/engine/bitmask.py") == []

    def test_column_from_parts_is_allowlisted(self):
        # Worker-side reassembly populates a brand-new object; identity-
        # keyed caches cannot hold entries for it (reviewed allowlist).
        source = """
            def column_from_parts(kind, data, dictionary):
                column = Column.__new__(Column)
                column.data = data
                return column
        """
        assert run_rule("RL001", source, "repro/engine/column.py") == []


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


class TestRL004CacheKeyHygiene:
    def test_fires_on_computed_anchor(self):
        source = """
            def lookup(cache, col):
                return cache.get("k", (col.numeric_values(),))
        """
        findings = run_rule("RL004", source, "repro/engine/foo.py")
        assert len(findings) == 1
        assert "temporary" in findings[0].message

    def test_fires_on_get_cache_receiver(self):
        source = """
            import numpy as np

            from repro.engine.cache import get_cache

            def store(x, v):
                get_cache().put("k", [np.asarray(x)], v)
        """
        assert len(run_rule("RL004", source, "repro/engine/foo.py")) == 1

    def test_name_and_attribute_anchors_pass(self):
        source = """
            def lookup(cache, col, anchors, self_like):
                cache.get("a", (col,))
                cache.get("b", anchors)
                cache.put("c", (self_like.table, col), 1)
                cache.get_or_compute("d", (anchors[0],), lambda: 2)
        """
        assert run_rule("RL004", source, "repro/engine/foo.py") == []

    def test_non_cache_receivers_ignored(self):
        source = """
            def lookup(mapping, key):
                return mapping.get("kind", (key.compute(),))
        """
        assert run_rule("RL004", source, "repro/engine/foo.py") == []


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
                get_cache().invalidate_object(col)
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
        # RL007, RL010 and RL014 are retired and stay reserved.
        assert [r.rule_id for r in rules] == [
            f"RL00{i}" for i in (1, 2, 3, 4, 5, 6, 8, 9)
        ] + [f"RL01{i}" for i in range(1, 4)]
        assert all(r.title for r in rules)

    def test_project_wide_rules_are_marked(self):
        by_id = {r.rule_id: r for r in all_rules()}
        graph_rules = {"RL011", "RL012", "RL013"}
        for rule_id, rule in by_id.items():
            assert rule.project_wide == (rule_id in graph_rules), rule_id


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
                rule="RL001",
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


# ---------------------------------------------------------------------------
# Whole-program analyzer (project index, call graph, dataflow) + RL011-RL013
# ---------------------------------------------------------------------------


class TestProjectIndex:
    def build(self, files):
        from repro.lint.core import parse_context
        from repro.lint.project import ProjectIndex

        contexts = [
            parse_context(textwrap.dedent(source), path)
            for path, source in files.items()
        ]
        return ProjectIndex(contexts)

    def test_module_name_derivation(self):
        from repro.lint.project import module_name_for

        assert module_name_for("repro/engine/parallel.py") == (
            "repro.engine.parallel"
        )
        assert module_name_for("repro/lint/__init__.py") == "repro.lint"
        assert module_name_for("fixtures/mod.py") == "fixtures.mod"

    def test_functions_classes_and_methods_indexed(self):
        project = self.build(
            {
                "repro/engine/a.py": """
                    class Cache:
                        def get(self):
                            return 1
                    def helper():
                        def inner():
                            return 2
                        return inner
                """
            }
        )
        assert "repro.engine.a.Cache.get" in project.functions
        assert "repro.engine.a.helper.inner" in project.functions
        cls = project.classes["repro.engine.a.Cache"]
        assert cls.methods["get"] == "repro.engine.a.Cache.get"
        info = project.functions["repro.engine.a.Cache.get"]
        assert info.class_qualname == "repro.engine.a.Cache"

    def test_import_resolution_absolute_and_relative(self):
        project = self.build(
            {
                "repro/engine/a.py": "def target():\n    return 1\n",
                "repro/engine/b.py": """
                    from repro.engine import a
                    from .a import target as t
                """,
            }
        )
        assert project.resolve_local("repro.engine.b", "a.target") == (
            "repro.engine.a.target"
        )
        assert project.resolve_local("repro.engine.b", "t") == (
            "repro.engine.a.target"
        )

    def test_subclass_map_supports_virtual_dispatch(self):
        project = self.build(
            {
                "repro/engine/base.py": """
                    class Base:
                        def run(self):
                            return self.step()
                        def step(self):
                            raise NotImplementedError
                """,
                "repro/engine/impl.py": """
                    from repro.engine.base import Base
                    class Impl(Base):
                        def step(self):
                            return 1
                """,
            }
        )
        assert project.all_subclasses("repro.engine.base.Base") == [
            "repro.engine.impl.Impl"
        ]
        graph = project.call_graph()
        dsts = {e.dst for e in graph.callees("repro.engine.base.Base.run")}
        assert "repro.engine.impl.Impl.step" in dsts


class TestCallGraph:
    def graph(self, files):
        helper = TestProjectIndex()
        project = helper.build(files)
        return project, project.call_graph()

    def test_submit_edges_carry_backend(self):
        project, graph = self.graph(
            {
                "repro/server/work.py": """
                    def task(x):
                        return x
                    def _handle_query(request):
                        return task(request)
                """
            }
        )
        backends = {
            (e.dst.rsplit(".", 1)[-1], e.backend)
            for e in graph.submit_edges()
        }
        assert backends == {("_handle_query", "server-thread")}

    def test_name_fallback_skips_builtin_collisions(self):
        project, graph = self.graph(
            {
                "repro/engine/work.py": """
                    class Store:
                        def get(self):
                            return 1
                    def use(thing):
                        return thing.get()
                """
            }
        )
        dsts = {e.dst for e in graph.callees("repro.engine.work.use")}
        assert "repro.engine.work.Store.get" not in dsts


class TestDataflow:
    def analysis(self, files):
        helper = TestProjectIndex()
        project = helper.build(files)
        return project, project.analysis()

    def test_worker_context_is_transitive(self):
        project, analysis = self.analysis(
            {
                "repro/server/work.py": """
                    def handle(request):
                        return helper(request)
                    def helper(x):
                        return x + 1
                    def offline(items):
                        return items
                """
            }
        )
        assert analysis.runs_in_worker("repro.server.work.handle") == {
            "server-thread"
        }
        assert analysis.runs_in_worker("repro.server.work.helper") == {
            "server-thread"
        }
        assert analysis.runs_in_worker("repro.server.work.offline") == set()

    def test_lock_kinds_recovered_from_construction(self):
        project, analysis = self.analysis(
            {
                "repro/engine/locks.py": """
                    import threading

                    _MODULE_LOCK = threading.Lock()

                    class Engine:
                        def __init__(self):
                            self._lock = threading.RLock()
                """
            }
        )
        assert analysis.lock_kind("Engine._lock") == "RLock"
        assert analysis.lock_kind(
            "repro.engine.locks._MODULE_LOCK"
        ) == "Lock"

    def test_lock_order_edge_through_callee(self):
        project, analysis = self.analysis(
            {
                "repro/engine/locks.py": """
                    import threading

                    class Engine:
                        def __init__(self):
                            self._outer_lock = threading.Lock()
                            self._inner_lock = threading.Lock()
                        def outer(self):
                            with self._outer_lock:
                                self.nested()
                        def nested(self):
                            with self._inner_lock:
                                pass
                """
            }
        )
        pairs = {(e.outer, e.inner) for e in analysis.lock_order}
        assert ("Engine._outer_lock", "Engine._inner_lock") in pairs

    def test_invalidators_and_caller_coverage(self):
        project, analysis = self.analysis(
            {
                "repro/engine/state.py": """
                    class Builder:
                        def build(self):
                            self._overall_parts = []
                        def preprocess(self):
                            self.build()
                            self.bump_plan_version()
                        def bump_plan_version(self):
                            self.plan_version += 1
                """
            }
        )
        inv = analysis.invalidators
        assert "repro.engine.state.Builder.preprocess" in inv
        assert "repro.engine.state.Builder.build" not in inv
        assert "repro.engine.state.Builder.build" in analysis.covered


class TestRL011TransitiveSharedState:
    BAD = """
        class Catalog:
            def _handle_add(self, item):
                return self.task(item)
            def task(self, item):
                return self.helper(item)
            def helper(self, item):
                self._tables[item] = item
                return item
    """

    GOOD_LOCKED = """
        class Catalog:
            def _handle_add(self, item):
                return self.task(item)
            def task(self, item):
                return self.helper(item)
            def helper(self, item):
                with self._lock:
                    self._tables[item] = item
                return item
    """

    GOOD_UNREACHABLE = """
        class Catalog:
            def helper(self, item):
                self._tables[item] = item
                return item
    """

    def test_fires_on_transitive_helper_mutation(self):
        findings = run_rule("RL011", self.BAD, "repro/server/catalog.py")
        assert [f.symbol for f in findings] == ["Catalog.helper"]
        assert "request handler" in findings[0].message
        # The message names the chain that makes the helper concurrent.
        assert "via _handle_add -> task -> helper" in findings[0].message

    def test_fires_on_unlocked_mutation_in_handler(self):
        source = """
            def handle(request):
                cache = get_cache()
                cache._entries[request] = compute(request)
                return request
        """
        findings = run_rule("RL011", source, "repro/server/app.py")
        assert len(findings) == 1
        assert findings[0].symbol == "handle"
        assert "_entries" in findings[0].message

    def test_fires_on_mutating_method_call(self):
        source = """
            def do_POST(handler):
                results._log.append(handler)
        """
        findings = run_rule("RL011", source, "repro/server/http.py")
        assert len(findings) == 1
        assert "_log" in findings[0].message

    def test_lock_guarded_mutation_passes(self):
        findings = run_rule(
            "RL011", self.GOOD_LOCKED, "repro/server/catalog.py"
        )
        assert findings == []

    def test_unreachable_function_passes(self):
        findings = run_rule(
            "RL011", self.GOOD_UNREACHABLE, "repro/engine/catalog.py"
        )
        assert findings == []

    def test_allowlisted_symbol_passes(self):
        files = {
            "repro/server/app.py": """
                from repro.engine.column import column_from_parts

                def _handle_load(item):
                    return column_from_parts(item)
            """,
            "repro/engine/column.py": """
                def column_from_parts(item):
                    col = item
                    col.data = item
                    return col
            """,
        }
        contexts = [
            parse_context(textwrap.dedent(source), path)
            for path, source in files.items()
        ]
        findings = _run_rules(contexts, all_rules(["RL011"]))
        assert findings == []


class TestRL012LockOrderCycle:
    SEEDED_CYCLE = """
        import threading

        class Engine:
            def __init__(self):
                self._cache_lock = threading.Lock()
                self._stats_lock = threading.Lock()
            def put(self):
                with self._cache_lock:
                    with self._stats_lock:
                        pass
            def record(self):
                with self._stats_lock:
                    with self._cache_lock:
                        pass
    """

    INTERPROCEDURAL_CYCLE = """
        import threading

        class Engine:
            def __init__(self):
                self._cache_lock = threading.Lock()
                self._stats_lock = threading.Lock()
            def put(self):
                with self._cache_lock:
                    self.bump()
            def bump(self):
                with self._stats_lock:
                    pass
            def record(self):
                with self._stats_lock:
                    self.store()
            def store(self):
                with self._cache_lock:
                    pass
    """

    SELF_DEADLOCK = """
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.Lock()
            def put(self):
                with self._lock:
                    self.flush()
            def flush(self):
                with self._lock:
                    pass
    """

    REENTRANT_OK = """
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.RLock()
            def put(self):
                with self._lock:
                    self.flush()
            def flush(self):
                with self._lock:
                    pass
    """

    CONSISTENT_ORDER = """
        import threading

        class Engine:
            def __init__(self):
                self._cache_lock = threading.Lock()
                self._stats_lock = threading.Lock()
            def put(self):
                with self._cache_lock:
                    with self._stats_lock:
                        pass
            def record(self):
                with self._cache_lock:
                    with self._stats_lock:
                        pass
    """

    def test_fires_on_seeded_abba_cycle(self):
        findings = run_rule(
            "RL012", self.SEEDED_CYCLE, "repro/engine/locks.py"
        )
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message

    def test_fires_on_cycle_through_calls(self):
        findings = run_rule(
            "RL012", self.INTERPROCEDURAL_CYCLE, "repro/engine/locks.py"
        )
        assert len(findings) == 1

    def test_fires_on_plain_lock_self_deadlock(self):
        findings = run_rule(
            "RL012", self.SELF_DEADLOCK, "repro/engine/locks.py"
        )
        assert len(findings) == 1
        assert "self-deadlock" in findings[0].message

    def test_reentrant_rlock_self_loop_exempt(self):
        findings = run_rule(
            "RL012", self.REENTRANT_OK, "repro/engine/locks.py"
        )
        assert findings == []

    def test_consistent_order_passes(self):
        findings = run_rule(
            "RL012", self.CONSISTENT_ORDER, "repro/engine/locks.py"
        )
        assert findings == []


class TestRL013InvalidationCoverage:
    BAD = """
        class Catalog:
            def replace(self, name, table):
                self._tables[name] = table
    """

    GOOD_CALLEE_SIDE = """
        class Catalog:
            def replace(self, name, table):
                self._tables[name] = table
                self._after(table)
            def _after(self, table):
                self.cache.invalidate_table(table)
    """

    GOOD_CALLER_SIDE = """
        class Builder:
            def build(self):
                self._overall_parts = []
            def preprocess(self):
                self.build()
                self.bump_plan_version()
            def bump_plan_version(self):
                self.plan_version += 1
    """

    BAD_UNCOVERED_CALLER = """
        class Builder:
            def build(self):
                self._overall_parts = []
            def rebuild(self):
                self.build()
    """

    def test_fires_without_any_coverage(self):
        findings = run_rule("RL013", self.BAD, "repro/engine/catalog.py")
        assert [f.symbol for f in findings] == ["Catalog.replace"]
        assert "no invalidation covers" in findings[0].message

    def test_callee_side_invalidation_passes(self):
        # RL001 would flag this (no invalidation in the same body);
        # the interprocedural rule sees through the helper call.
        findings = run_rule(
            "RL013", self.GOOD_CALLEE_SIDE, "repro/engine/catalog.py"
        )
        assert findings == []
        # ... while the intraprocedural RL001 still flags it (the
        # invalidation lives in the helper, not the mutating body):
        rl001 = run_rule(
            "RL001", self.GOOD_CALLEE_SIDE, "repro/engine/catalog.py"
        )
        assert [f.symbol for f in rl001] == ["Catalog.replace"]

    def test_caller_side_coverage_passes(self):
        findings = run_rule(
            "RL013", self.GOOD_CALLER_SIDE, "repro/engine/builder.py"
        )
        assert findings == []
        # ... which is exactly what RL001 cannot prove:
        rl001 = run_rule(
            "RL001", self.GOOD_CALLER_SIDE, "repro/engine/builder.py"
        )
        assert [f.symbol for f in rl001] == ["Builder.build"]

    def test_uncovered_caller_chain_fires(self):
        findings = run_rule(
            "RL013", self.BAD_UNCOVERED_CALLER, "repro/engine/builder.py"
        )
        assert [f.symbol for f in findings] == ["Builder.build"]

    def test_out_of_scope_file_ignored(self):
        findings = run_rule("RL013", self.BAD, "repro/datagen/catalog.py")
        assert findings == []


class TestGraphReportCLI:
    def test_graph_report_writes_json_and_dot(self, tmp_path, capsys):
        target = tmp_path / "graph.json"
        code = main(
            [
                str(REPO_ROOT / "src"),
                "--baseline",
                str(REPO_ROOT / "lint_baseline.json"),
                "--graph-report",
                str(target),
                "--format",
                "json",
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(target.read_text())
        # One per request entry point: do_GET/do_POST, handle, _handle_*.
        assert payload["summary"]["submit_edges"] >= 5
        assert payload["summary"]["lock_cycles"] == 0
        assert payload["summary"]["worker_reachable_functions"] > 50
        # HTTP handler threads are the only concurrency source.
        backends = {e["backend"] for e in payload["submit_edges"]}
        assert backends == {"server-thread"}
        callgraph = target.with_suffix(".json.callgraph.dot").read_text()
        lockorder = target.with_suffix(".json.lockorder.dot").read_text()
        assert callgraph.startswith("digraph callgraph")
        assert lockorder.startswith("digraph lockorder")
        assert "ExecutionCache._lock" in lockorder

    def test_graph_report_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            main(
                [
                    str(REPO_ROOT / "src"),
                    "--baseline",
                    str(REPO_ROOT / "lint_baseline.json"),
                    "--graph-report",
                    str(target),
                    "--format",
                    "json",
                ]
            )
            capsys.readouterr()
        assert a.read_text() == b.read_text()


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
                            "rule": "RL001",
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
        assert ("RL001", "repro/engine/gone.py", "vanished") not in by_key
        assert "TODO" in by_key[("RL006", "repro/engine/aa.py", "check")]


class TestGraphRulesSelfHost:
    def test_graph_rules_clean_on_src_modulo_baseline(self, capsys):
        code = main(
            [
                str(REPO_ROOT / "src"),
                "--rules",
                "RL011,RL012,RL013",
                "--baseline",
                str(REPO_ROOT / "lint_baseline.json"),
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload["findings"]
        assert payload["findings"] == []
        assert payload["baselined"] == []

    def test_rl013_discharges_rl001_baseline_entries(self, capsys):
        # The two RL001 baseline entries (small-group builders bumped by
        # their caller) are exactly what the interprocedural upgrade
        # proves safe: RL013 reports nothing on the same tree.
        code = main(
            [
                str(REPO_ROOT / "src"),
                "--rules",
                "RL013",
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload["findings"]
        assert payload["findings"] == []
