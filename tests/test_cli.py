"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.figures import FIGURES
from repro.experiments.reporting import render_run
from repro.storage import save_database


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "4", "--quick"])
        assert args.ids == ["4"]
        assert args.quick


class TestList:
    def test_lists_every_figure(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fid in FIGURES:
            assert fid in out


class TestFigure:
    def test_unknown_id(self, capsys):
        assert main(["figure", "nope"]) == 2
        assert "unknown figure ids" in capsys.readouterr().out

    def test_quick_analytical_figure(self, capsys):
        assert main(["figure", "3a", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "figure/table 3a" in out
        assert "small_group/sq_rel_err" in out

    def test_quick_empirical_figure_with_csv(self, tmp_path, capsys):
        assert main(["figure", "4", "--quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "figure/table 4" in out
        csv_path = tmp_path / "figure_4.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "series,x,value"

    def test_render_run_includes_extras(self):
        from repro.experiments.figures import run_figure3a

        text = render_run(run_figure3a())
        assert "extras" in text
        assert "uniform" in text


@pytest.mark.parametrize("fid", sorted(FIGURES))
def test_every_quick_figure_runs(fid, capsys):
    """Every registered figure has a working quick parameterisation."""
    assert main(["figure", fid, "--quick"]) == 0
    assert f"figure/table" in capsys.readouterr().out


class TestReport:
    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path)]) == 1
        assert "no figure_" in capsys.readouterr().out

    def test_report_summarises_csvs(self, tmp_path, capsys):
        (tmp_path / "figure_4.csv").write_text(
            "series,x,value\nsmall_group/rel_err,1,0.5\n"
            "small_group/rel_err,2,0.8\nuniform/rel_err,1,1.0\n"
        )
        assert main(["report", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "small_group/rel_err" in out
        assert "1 recorded figures" in out

    def test_report_on_real_results_if_present(self, capsys):
        from pathlib import Path

        results = Path("benchmarks/results")
        if not any(results.glob("figure_*.csv")):
            pytest.skip("no recorded results")
        assert main(["report"]) == 0
        assert "figure" in capsys.readouterr().out


class TestPlan:
    def test_plan_at_budget(self, capsys):
        assert main(["plan", "--z", "1.8", "--budget", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "allocation ratio" in out
        assert "predicted SqRelErr" in out

    def test_plan_with_target(self, capsys):
        assert main(["plan", "--z", "1.8", "--target", "100"]) == 0
        out = capsys.readouterr().out
        assert "Minimum budget" in out

    def test_plan_unreachable_target(self, capsys):
        assert main(["plan", "--target", "1e-15"]) == 1
        assert "cannot reach target" in capsys.readouterr().out


class TestSqlProfileJson:
    QUERY = (
        "SELECT l_shipmode, COUNT(*) AS cnt, AVG(l_extendedprice) AS p "
        "FROM lineitem GROUP BY l_shipmode"
    )

    @staticmethod
    def _strict(text: str):
        def reject(token):
            raise AssertionError(f"non-strict JSON token {token!r}")

        return json.loads(text, parse_constant=reject)

    def test_dash_leaves_stdout_one_strict_json_document(
        self, tiny_tpch, tmp_path, capsys
    ):
        db = save_database(tiny_tpch, tmp_path / "db")
        argv = ["sql", str(db), self.QUERY, "--mode", "both"]
        assert main(argv + ["--profile-json", "-"]) == 0
        captured = capsys.readouterr()
        profile = self._strict(captured.out)
        assert profile["mode"] == "both" and profile["sql"] == self.QUERY
        assert captured.err.startswith("mapped 4 tables in ")
        assert "stored samples in" in captured.err
        assert "approximate answer" in captured.err
        # Any other destination leaves stdout as it was.
        path = tmp_path / "profile.json"
        assert main(argv + ["--profile-json", str(path)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("mapped 4 tables in ")
        assert lines[1].startswith("loaded samples")
        assert lines[-1] == f"wrote {path}" and captured.err == ""
        assert self._strict(path.read_text())["mode"] == "both"


class TestStatsJson:
    QUERY = "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipmode"

    def test_dash_leaves_stdout_one_strict_json_document(
        self, tiny_tpch, tmp_path, capsys
    ):
        db = save_database(tiny_tpch, tmp_path / "db")
        argv = ["stats", str(db), "--query", self.QUERY, "--mode", "both"]
        assert main(argv + ["--json", "-"]) == 0
        captured = capsys.readouterr()
        stats = TestSqlProfileJson._strict(captured.out)
        assert set(stats) == {"registry", "cache"}
        assert captured.err.startswith("mapped 4 tables in ")
        assert "workload: 1 query x 3 repeats, mode=both" in captured.err
        assert "ingest: reservoir_updates=" in captured.err
        # Any other destination leaves stdout as it was.
        path = tmp_path / "stats.json"
        assert main(argv + ["--json", str(path)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("mapped 4 tables in ")
        assert lines[-2].startswith("ingest: reservoir_updates=")
        assert lines[-1] == f"wrote {path}" and captured.err == ""
        assert set(TestSqlProfileJson._strict(path.read_text())) == {
            "registry", "cache"
        }
