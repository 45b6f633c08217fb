"""The ``repro results`` subcommand: golden outputs over a tiny sweep."""

import csv
import io
import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("results-cli") / "run"
    assert (
        main(
            [
                "sweep",
                "--shapes", "2,3", "1,2,2", "5",
                "--tasks", "leader", "k-leader:2",
                "--run-dir", str(path),
            ]
        )
        == 0
    )
    return path


class TestStats:
    def test_stats_lists_tables_and_memo(self, run_dir, capsys):
        assert main(["results", "stats", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "records" in out
        assert "memo:" in out and "entries" in out

    def test_missing_warehouse_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no warehouse"):
            main(["results", "stats", str(tmp_path)])


class TestQuery:
    def test_filter_and_project(self, run_dir, capsys):
        assert (
            main(
                [
                    "results", "query", str(run_dir),
                    "--where", "model=clique",
                    "--where", "task=leader",
                    "--columns", "sizes,limit,solvable",
                    "--sort-by", "sizes",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # Three clique shapes, one row each; gcd>1 shapes solve.
        assert out.count("True") + out.count("False") == 3
        assert "1,2,2" in out and "2,3" in out

    def test_group_aggregate(self, run_dir, capsys):
        assert (
            main(
                [
                    "results", "query", str(run_dir),
                    "--group-by", "task",
                    "--agg", "count",
                    "--agg", "mean:limit_float",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "k-leader:2" in out and "leader" in out
        assert "mean_limit_float" in out
        assert "2 rows" in out

    def test_bad_where_clause(self, run_dir):
        with pytest.raises(SystemExit, match="bad --where"):
            main(["results", "query", str(run_dir), "--where", "nonsense"])

    def test_bad_where_value_for_numeric_column(self, run_dir):
        with pytest.raises(SystemExit, match="not a valid value"):
            main(["results", "query", str(run_dir), "--where", "seed=abc"])


class TestExport:
    def test_csv_round_trips_records(self, run_dir, capsys):
        assert (
            main(
                [
                    "results", "export", str(run_dir),
                    "--columns", "key,limit,solvable",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        records = [
            json.loads(line)
            for line in (run_dir / "records.jsonl").read_text().splitlines()
        ]
        assert len(rows) == len(records)
        by_key = {record["key"]: record for record in records}
        for row in rows:
            assert row["limit"] == by_key[row["key"]]["value"]["limit"]

    def test_json_export_to_file(self, run_dir, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert (
            main(
                [
                    "results", "export", str(run_dir),
                    "--format", "json",
                    "--where", "solvable=true",
                    "-o", str(target),
                ]
            )
            == 0
        )
        assert "wrote" in capsys.readouterr().out

        def no_constants(token):  # NaN/Infinity must not appear
            raise AssertionError(f"non-strict JSON token {token}")

        rows = json.loads(target.read_text(), parse_constant=no_constants)
        assert rows and all(row["solvable"] for row in rows)
        # Unfilled kind-specific columns export as null, not NaN.
        assert all(row["estimate"] is None for row in rows)


class TestCompactAndIngest:
    def test_compact_preserves_queries(self, run_dir, capsys):
        before = main(
            ["results", "query", str(run_dir), "--group-by", "model"]
        )
        first = capsys.readouterr().out
        assert main(["results", "compact", str(run_dir)]) == 0
        assert "memo folded" in capsys.readouterr().out
        assert (
            main(["results", "query", str(run_dir), "--group-by", "model"])
            == before
        )
        assert capsys.readouterr().out == first

    def test_explicit_ingest(self, run_dir, tmp_path, capsys):
        warehouse = tmp_path / "standalone"
        assert (
            main(["results", "ingest", str(warehouse), str(run_dir)]) == 0
        )
        out = capsys.readouterr().out
        assert "ingested" in out
        assert main(["results", "stats", str(warehouse)]) == 0
        assert "records" in capsys.readouterr().out

    def test_ingest_into_run_dir_targets_its_warehouse(
        self, run_dir, tmp_path, capsys
    ):
        # Ingesting "into a run directory" must land in the same store
        # query/stats read (its warehouse/), not a parallel one.
        other = tmp_path / "other"
        assert main(["sweep", "--shapes", "2,2", "--run-dir", str(other)]) == 0
        assert main(["results", "ingest", str(run_dir), str(other)]) == 0
        capsys.readouterr()
        assert not (run_dir / "segments").exists()
        assert main(
            ["results", "query", str(run_dir), "--where", "sizes=2,2"]
        ) == 0
        assert "2,2" in capsys.readouterr().out


class TestVacuum:
    def test_vacuum_removes_ingested_run_dirs(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["sweep", "--shapes", "2,2", "--run-dir", str(run)]) == 0
        warehouse = tmp_path / "wh"
        assert main(["results", "ingest", str(warehouse), str(run)]) == 0
        capsys.readouterr()
        assert main(["results", "vacuum", str(warehouse), str(run)]) == 0
        out = capsys.readouterr().out
        assert "removed" in out and "vacuumed 1/1" in out
        assert not run.exists()

    def test_vacuum_refuses_its_own_warehouse_home(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["sweep", "--shapes", "2,2", "--run-dir", str(run)]) == 0
        capsys.readouterr()
        # The default warehouse lives inside the run directory; vacuuming
        # the run dir through it must refuse and exit nonzero.
        assert main(["results", "vacuum", str(run), str(run)]) == 1
        assert "contains-warehouse" in capsys.readouterr().out
        assert run.exists()

    def test_vacuum_needs_run_dirs(self, run_dir):
        with pytest.raises(SystemExit, match="need at least one"):
            main(["results", "vacuum", str(run_dir)])
