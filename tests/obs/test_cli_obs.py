"""CLI observability round-trips: --profile-out, obs explain/history/
diff/tiers, stamps, --progress, and the retired spellings."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from repro.chain import clear_memo
from repro.cli import _stderr_progress, build_parser, main
from repro.obs import clock
from repro.obs.schema import validate_profile
from repro.results import ResultsStore


def _table_rows(text):
    """Rows of a ``format_table`` print-out, split on whitespace."""
    lines = [
        line for line in text.splitlines()
        if line.strip() and set(line) - {"-", " "}
    ]
    return [line.split() for line in lines[1:]]  # drop the header


def _subparsers(parser):
    """The ``repro`` subcommand parsers, by name."""
    return next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


def _traced_sweep(*argv):
    """``main(["sweep", *argv, "--profile-out", <tmp>])``; returns status.

    The profile goes to a throwaway file next to the run: these callers
    want the tracing and the persisted telemetry, not the document.
    """
    run_dir = argv[argv.index("--run-dir") + 1]
    profile = f"{run_dir}.profile.json"
    return main(["sweep", *argv, "--profile-out", profile])


class TestExplain:
    def test_explain_prints_the_profiles_span_tree(self, tmp_path, capsys):
        profile = tmp_path / "run.json"
        assert main(
            ["run", "2,3", "--model", "clique",
             "--profile-out", str(profile)]
        ) == 0
        out = capsys.readouterr().out
        record_text, _, tail = out.partition("wrote profile to")
        record = json.loads(record_text)
        # Telemetry rides the return path, never the record itself.
        assert "_telemetry" not in record
        assert "telemetry" not in record
        assert str(profile) in tail

        assert main(["obs", "explain", str(profile)]) == 0
        tree = capsys.readouterr().out
        assert tree.splitlines()[0].split() == [
            "span", "calls", "total", "self",
        ]
        assert "repro.run" in tree
        assert "runner.job" in tree
        assert "job.compile" in tree or "job.evolve" in tree

    def test_explain_of_a_missing_profile_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="obs explain"):
            main(["obs", "explain", str(tmp_path / "nope.json")])

    def test_untraced_run_prints_no_tree(self, capsys):
        assert main(["run", "2,3"]) == 0
        out = capsys.readouterr().out
        record = json.loads(out)
        assert "_telemetry" not in record
        assert "repro.run" not in out


class TestProfileOut:
    def test_sweep_profile_validates_and_telemetry_lands(
        self, tmp_path, capsys
    ):
        run = tmp_path / "run"
        profile_path = tmp_path / "profile.json"
        assert main(
            ["sweep", "--n", "4", "--run-dir", str(run),
             "--profile-out", str(profile_path)]
        ) == 0
        out = capsys.readouterr().out
        assert f"wrote profile to {profile_path}" in out

        document = json.loads(profile_path.read_text())
        assert validate_profile(document) == []
        assert document["meta"]["command"] == "sweep"
        assert "repro.sweep" in document["aggregates"]
        assert document["metrics"]["counters"]["runner.jobs"] == 10

        store = ResultsStore(run / "warehouse")
        assert "telemetry" in store.tables()
        rows = store.table("telemetry").to_rows()
        assert {row["kind"] for row in rows} >= {"counter", "span"}

        # And the table is reachable through the ordinary query CLI.
        assert main(
            ["results", "query", str(run), "--table", "telemetry",
             "--where", "kind=counter"]
        ) == 0
        queried = capsys.readouterr().out
        assert "runner.jobs" in queried

    def test_solve_profile_validates(self, tmp_path, capsys):
        profile_path = tmp_path / "solve.json"
        assert main(
            ["solve", "1,2", "--profile-out", str(profile_path)]
        ) == 0
        capsys.readouterr()
        document = json.loads(profile_path.read_text())
        assert validate_profile(document) == []
        assert document["meta"]["command"] == "solve"
        assert "repro.solve" in document["aggregates"]

    def test_results_export_writes_telemetry_json_rows(
        self, tmp_path, capsys
    ):
        run = tmp_path / "run"
        clear_memo()
        assert _traced_sweep("--n", "4", "--run-dir", str(run)) == 0
        capsys.readouterr()
        out_path = tmp_path / "telemetry.json"
        assert main(
            ["results", "export", str(run), "--table", "telemetry",
             "--format", "json", "-o", str(out_path)]
        ) == 0
        rows = json.loads(out_path.read_text())
        assert all(
            {"kind", "name", "value", "count"} <= set(row) for row in rows
        )
        assert any(row["name"] == "runner.jobs" for row in rows)

    def test_untraced_sweep_persists_no_telemetry(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["sweep", "--n", "4", "--run-dir", str(run)]) == 0
        capsys.readouterr()
        store = ResultsStore(run / "warehouse")
        assert "telemetry" not in store.tables()


class TestFrozenStamps:
    def test_frozen_clock_pins_telemetry_stamps(self, tmp_path, capsys):
        run = tmp_path / "run"
        with clock.frozen(1234.5):
            assert main(
                ["sweep", "--n", "4", "--run-dir", str(run),
                 "--profile-out", str(tmp_path / "p.json")]
            ) == 0
        capsys.readouterr()
        rows = ResultsStore(run / "warehouse").table("telemetry").to_rows()
        assert rows
        assert {row["stamp"] for row in rows} == {1234.5}
        assert {row["master_seed"] for row in rows} == {0}


class TestCrossRunAnalyticsCLI:
    """Satellite coverage: several traced sweeps in one warehouse stay
    distinguishable and drive history/diff/tiers read-back."""

    @pytest.fixture
    def run(self, tmp_path, capsys):
        """Two traced sweeps (distinct specs, hence distinct run dirs)
        feeding one shared warehouse; returns the warehouse path."""
        from repro.obs import reset_telemetry

        warehouse = tmp_path / "warehouse"
        clear_memo()
        with clock.frozen(100.0):
            assert _traced_sweep(
                "--n", "4", "--run-dir", str(tmp_path / "first"),
                "--warehouse", str(warehouse),
            ) == 0
        # A fresh registry between sweeps: each persisted profile is one
        # sweep's telemetry, not the process's running total.
        reset_telemetry()
        clear_memo()
        with clock.frozen(200.0):
            assert _traced_sweep(
                "--n", "4", "--master-seed", "7",
                "--run-dir", str(tmp_path / "second"),
                "--warehouse", str(warehouse),
            ) == 0
        reset_telemetry()
        capsys.readouterr()
        return warehouse

    def test_sweeps_stay_distinguishable_by_stamp_and_seed(self, run):
        from repro.obs.analyze import sweep_stamps

        assert sweep_stamps(ResultsStore(run)) == [(100.0, 0), (200.0, 7)]

    def test_obs_history_trends_across_sweeps(self, run, capsys):
        assert main(["obs", "history", str(run)]) == 0
        out = capsys.readouterr().out
        jobs = [
            line for line in out.splitlines()
            if line.startswith("runner.jobs")
        ]
        assert len(jobs) == 2  # one line per sweep, trend-ordered
        assert "100.000000" in jobs[0] and "200.000000" in jobs[1]

    def test_obs_history_filters_by_master_seed(self, run, capsys):
        assert main(
            ["obs", "history", str(run),
             "--master-seed", "7", "--kind", "counter"]
        ) == 0
        out = capsys.readouterr().out
        rows = _table_rows(out)
        assert rows
        assert all(parts[2] == "200.000000" for parts in rows)

    def test_results_query_serves_persisted_telemetry(self, run, capsys):
        # The live registry is empty (reset after the sweeps); the rows
        # shown all come from the warehouse.
        assert main(
            ["results", "query", str(run), "--table", "telemetry",
             "--where", "name=runner.jobs"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("runner.jobs") == 2  # one row per sweep

    def test_obs_diff_compares_the_two_sweeps(self, run, capsys):
        assert main(["obs", "diff", str(run)]) == 0
        out = capsys.readouterr().out
        jobs = next(
            line for line in out.splitlines() if "runner.jobs" in line
        )
        # Identical sweep specs: 10 jobs on both sides, ratio 1.
        assert "1.000" in jobs
        assert main(
            ["obs", "diff", str(run), "--a", "100.0", "--b", "200.0"]
        ) == 0

    def test_obs_diff_needs_two_sweeps(self, tmp_path, capsys):
        run = tmp_path / "one"
        with clock.frozen(50.0):
            assert _traced_sweep("--n", "4", "--run-dir", str(run)) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["obs", "diff", str(run)])

    def test_obs_tiers_attributes_wall_clock(self, run, capsys):
        assert main(["obs", "tiers", str(run)]) == 0
        out = capsys.readouterr().out
        assert "sweep.execute" in out
        assert "%" in out
        assert main(["obs", "tiers", str(run), "--stamp", "100.0"]) == 0
        assert "sweep.execute" in capsys.readouterr().out

    def test_obs_tiers_unknown_stamp_names_the_available_ones(self, run):
        with pytest.raises(SystemExit, match="obs tiers: .*available "
                           r"stamps: 100\.0, 200\.0"):
            main(["obs", "tiers", str(run), "--stamp", "123.0"])


class TestProgressFlag:
    """``--progress``: one stderr line per finished job, records and
    run-directory contents untouched."""

    @staticmethod
    def _stripped(path):
        """A run directory's records, ``elapsed`` excluded."""
        return [
            {k: v for k, v in json.loads(line).items() if k != "elapsed"}
            for line in (path / "records.jsonl").read_text().splitlines()
        ]

    def test_progress_sweep_streams_stderr(self, tmp_path, capsys):
        run = tmp_path / "run"
        clear_memo()
        assert main(
            ["sweep", "--n", "4", "--run-dir", str(run), "--no-warehouse",
             "--progress"]
        ) == 0
        err = capsys.readouterr().err
        assert "progress: 1/10" in err
        assert "progress: 10/10" in err

    def test_progress_records_identical_to_plain_run(self, tmp_path, capsys):
        clear_memo()
        assert main(
            ["sweep", "--n", "4", "--run-dir", str(tmp_path / "plain"),
             "--no-warehouse"]
        ) == 0
        clear_memo()
        assert main(
            ["sweep", "--n", "4", "--run-dir", str(tmp_path / "progress"),
             "--no-warehouse", "--progress"]
        ) == 0
        capsys.readouterr()
        assert self._stripped(tmp_path / "plain") == self._stripped(
            tmp_path / "progress"
        )

    def test_pooled_progress_records_identical_to_plain_pooled_run(
        self, tmp_path, capsys
    ):
        pooled = ["--engine", "process", "--workers", "2", "--no-warehouse"]
        clear_memo()
        assert main(
            ["sweep", "--n", "4", "--run-dir", str(tmp_path / "plain"),
             *pooled]
        ) == 0
        clear_memo()
        assert main(
            ["sweep", "--n", "4", "--run-dir", str(tmp_path / "progress"),
             *pooled, "--progress"]
        ) == 0
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("progress: 10/10 ")
        assert self._stripped(tmp_path / "plain") == self._stripped(
            tmp_path / "progress"
        )

    def test_progress_run_dir_holds_the_plain_file_set(
        self, tmp_path, capsys
    ):
        def files(run):
            # A warehouse segment is named by its table plus a stamp,
            # a pid or the record bytes it covers: keep the table.
            return sorted(
                re.sub(r"(segments/[^-/]+)-[^/]*(\.[a-z]+)$", r"\1\2",
                       str(path.relative_to(run)))
                for path in run.rglob("*")
            )

        for name, extra in (("plain", []), ("progress", ["--progress"])):
            clear_memo()
            assert main(
                ["sweep", "--n", "4", "--run-dir", str(tmp_path / name),
                 *extra]
            ) == 0
        capsys.readouterr()
        assert files(tmp_path / "progress") == files(tmp_path / "plain")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n", "4", "--no-warehouse"],
            ["phase-diagram", "4", "--no-warehouse"],
        ],
        ids=["sweep", "phase-diagram"],
    )
    def test_resumed_progress_ends_at_the_total(self, argv, tmp_path,
                                                capsys):
        run = tmp_path / "run"
        clear_memo()
        assert main([*argv, "--run-dir", str(run)]) == 0
        records = run / "records.jsonl"
        lines = records.read_text().splitlines(keepends=True)
        assert len(lines) == 10
        records.write_text("".join(lines[:6]))
        capsys.readouterr()
        assert main([*argv, "--run-dir", str(run), "--progress"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split()[1] for line in err] == [
            "7/10", "8/10", "9/10", "10/10"
        ]

    def test_run_report_progress_flags_parse(self, tmp_path, capsys):
        assert main(["run", "2,3", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "progress: 1/1" in err

    @pytest.mark.parametrize(
        "command", ["run", "sweep", "phase-diagram", "report"]
    )
    def test_progress_is_the_commands_only_progress_option(self, command):
        sub = _subparsers(build_parser())[command]
        options = [
            option for action in sub._actions
            for option in action.option_strings
            if "progress" in option
        ]
        assert options == ["--progress"]
        progress = next(
            action for action in sub._actions
            if "--progress" in action.option_strings
        )
        assert progress.default is False

    @pytest.mark.parametrize(
        "record, line",
        [({"key": "sizes=1,2"}, "progress: 3/7 sizes=1,2\n"),
         ({}, "progress: 3/7 ?\n")],
        ids=["keyed", "keyless"],
    )
    def test_stderr_line_format(self, record, line, capsys):
        _stderr_progress(record, 3, 7)
        captured = capsys.readouterr()
        assert captured.err == line
        assert captured.out == ""

    def test_report_progress_counts_every_experiment(self, tmp_path,
                                                     capsys):
        from repro.analysis import ALL_EXPERIMENTS

        assert main(["report", str(tmp_path / "out"), "--progress"]) == 0
        err = capsys.readouterr().err.splitlines()
        total = len(ALL_EXPERIMENTS)
        assert [line.split()[1] for line in err] == [
            f"{k}/{total}" for k in range(1, total + 1)
        ]


class TestObsDiffStamps:
    def test_a_and_b_select_both_sides(self, tmp_path, capsys):
        clear_memo()
        warehouse = tmp_path / "warehouse"
        from repro.obs import reset_telemetry

        with clock.frozen(100.0):
            assert _traced_sweep(
                "--n", "4", "--run-dir", str(tmp_path / "first"),
                "--warehouse", str(warehouse),
            ) == 0
        reset_telemetry()
        clear_memo()
        with clock.frozen(200.0):
            assert _traced_sweep(
                "--n", "4", "--master-seed", "7",
                "--run-dir", str(tmp_path / "second"),
                "--warehouse", str(warehouse),
            ) == 0
        reset_telemetry()
        capsys.readouterr()
        assert main(
            ["obs", "diff", str(warehouse), "--a", "100.0", "--b", "200.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "runner.jobs" in out

        # An unknown stamp names the ones that do exist.
        with pytest.raises(SystemExit, match="available stamps"):
            main(
                ["obs", "diff", str(warehouse),
                 "--a", "123.0", "--b", "200.0"]
            )


class TestOneTelemetrySpelling:
    """``--profile-out`` is the only switch and ``repro obs`` the only
    reader; the retired spellings are argparse errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "run", "2,3"],
            ["run", "2,3", "--trace"],
            ["metrics", "show"],
            ["obs", "diff", "DIR", "--stamps", "1", "2"],
            ["obs", "tail", "DIR"],
            ["obs", "top", "DIR"],
        ],
        ids=["trace-prefix", "trace-flag", "metrics", "obs-diff-stamps",
             "obs-tail", "obs-top"],
    )
    def test_retired_spellings_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_reads_the_four_warehouse_views(self):
        obs = _subparsers(build_parser())["obs"]
        action = next(
            action for action in obs._actions if action.dest == "action"
        )
        assert set(action.choices) == {"explain", "history", "diff",
                                       "tiers"}

    def test_every_subcommand_accepts_profile_out(self):
        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sub.choices
        missing = [
            name for name, subparser in sub.choices.items()
            if not any(
                "--profile-out" in action.option_strings
                for action in subparser._actions
            )
        ]
        assert missing == []

    def test_repro_trace_environment_variable_is_ignored(self):
        import repro

        # Import the same source tree this test runs against.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, REPRO_TRACE="1", PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c",
             "from repro.obs import OBS; print(OBS.enabled)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "False"
