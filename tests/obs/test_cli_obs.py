"""CLI observability round-trips: --profile-out, obs explain (span tree
and self-time table), --progress, and the retired spellings."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from repro.chain import clear_memo
from repro.cli import _stderr_progress, build_parser, main
from repro.obs import reset_telemetry
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


class TestReportSpans:
    def test_report_runs_each_experiment_in_its_own_span(
        self, tmp_path, capsys
    ):
        # Imported before the command runs, so the root span's self
        # time holds no import.
        from repro.analysis import ALL_EXPERIMENTS

        profile = tmp_path / "report.json"
        assert main(
            ["report", str(tmp_path / "out"), "--profile-out", str(profile)]
        ) == 0
        capsys.readouterr()
        (root,) = json.loads(profile.read_text())["spans"]
        assert root["name"] == "repro.report"
        experiments = [
            child for child in root["children"]
            if child["name"] == "analysis.experiment"
        ]
        assert len(experiments) == 21
        assert [span["attrs"]["generator"] for span in experiments] == [
            generator.__name__ for generator in ALL_EXPERIMENTS
        ]
        # The experiment spans cover the command: the root's self time
        # (argument handling, writing the report) stays small.
        covered = sum(child["duration"] for child in root["children"])
        assert root["duration"] - covered < 0.1 * root["duration"]


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
        assert "group.evolve" in tree

    def test_explain_of_a_pooled_sweep_prints_the_self_time_table(
        self, tmp_path, capsys
    ):
        profile = tmp_path / "sweep.json"
        clear_memo()
        assert main(
            ["sweep", "--n", "4", "--engine", "process", "--workers", "2",
             "--run-dir", str(tmp_path / "run"),
             "--profile-out", str(profile)]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "explain", str(profile)]) == 0
        tree, _, table = capsys.readouterr().out.partition("\n\n")
        assert tree.splitlines()[0].split() == [
            "span", "calls", "total", "self",
        ]
        assert "sweep.execute" in tree and "runner.group" in tree
        assert table.splitlines()[0].split() == [
            "span", "self", "calls", "share",
        ]
        rows = {row[0]: row for row in _table_rows(table)}
        assert {"repro.sweep", "sweep.execute", "runner.group"} <= set(rows)
        shares = [float(row[3].rstrip("%")) for row in rows.values()]
        # Each share is rounded to 0.1%, so the printed sum may miss 100
        # by at most half a digit per row.
        assert abs(sum(shares) - 100.0) <= 0.05 * len(shares) + 1e-9
        # The table is the profile's aggregates, reordered by self time.
        aggregates = json.loads(profile.read_text())["aggregates"]
        assert set(rows) == set(aggregates)
        assert [row[2] for row in rows.values()] == [
            str(aggregates[name]["calls"]) for name in rows
        ]

    def test_explain_of_a_missing_profile_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="obs explain"):
            main(["obs", "explain", str(tmp_path / "nope.json")])

    def test_untraced_run_prints_no_tree(self, capsys):
        assert main(["run", "2,3"]) == 0
        out = capsys.readouterr().out
        record = json.loads(out)
        assert "_telemetry" not in record
        assert "repro.run" not in out


class TestGroupedSweepProfile:
    """A cold traced 2-worker sweep: span nesting and memo accounting."""

    @pytest.fixture
    def profile(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        clear_memo()
        assert main(
            ["sweep", "--n", "4", "--engine", "process", "--workers", "2",
             "--run-dir", str(tmp_path / "run"),
             "--profile-out", str(path)]
        ) == 0
        capsys.readouterr()
        return json.loads(path.read_text())

    def test_serialize_nests_under_its_group(self, profile):
        parents: dict[str, set] = {}

        def walk(span, parent):
            parents.setdefault(span["name"], set()).add(parent)
            for child in span["children"]:
                walk(child, span["name"])

        for span in profile["spans"]:
            walk(span, None)
        assert parents["group.serialize"] == {"runner.group"}

    def test_each_cold_cell_is_looked_up_once(self, profile):
        counters = profile["metrics"]["counters"]
        assert counters["chain.batch.queries"] > 0
        assert counters["results.memo.miss"] == counters[
            "chain.batch.queries"
        ]


class TestPooledSweepCompiles:
    """The pooled n = 9 exact-sweep grid (both models, three port kinds,
    as the benchmark runs it) compiles each chain in one worker only."""

    def _compile_misses(self, tmp_path, capsys, name, engine):
        path = tmp_path / f"{name}.json"
        clear_memo()  # forked workers inherit the parent's memo
        reset_telemetry()
        assert main(
            ["sweep", "--n", "9", "--models", "blackboard", "clique",
             "--ports", "adversarial", "round-robin", "random",
             *engine, "--master-seed", "1",
             "--run-dir", str(tmp_path / f"{name}-run"),
             "--warehouse", str(tmp_path / f"{name}-warehouse"),
             "--profile-out", str(path)]
        ) == 0
        capsys.readouterr()
        counters = json.loads(path.read_text())["metrics"]["counters"]
        return counters["chain.compile.miss"]

    def test_two_workers_compile_what_a_serial_run_does(
        self, tmp_path, capsys
    ):
        serial = self._compile_misses(
            tmp_path, capsys, "serial", ["--engine", "serial"]
        )
        pooled = self._compile_misses(
            tmp_path, capsys, "pooled",
            ["--engine", "process", "--workers", "2"],
        )
        assert serial == pooled == 92


class TestProfileOut:
    def test_a_profile_counts_only_its_own_command(self, tmp_path, capsys):
        pooled = ["sweep", "--n", "5", "--engine", "process",
                  "--workers", "2"]

        def misses(argv, name):
            # Each command starts from an empty chain memo, so it
            # compiles the same chains alone or after another command.
            clear_memo()
            path = tmp_path / name
            assert main([*argv, "--profile-out", str(path)]) == 0
            capsys.readouterr()
            counters = json.loads(path.read_text())["metrics"]["counters"]
            return counters["chain.compile.miss"]

        alone = misses(pooled, "alone.json")
        assert alone > 0
        misses(["sweep", "--n", "5"], "serial.json")
        assert misses(pooled, "after.json") == alone

    def test_sweep_profile_validates(self, tmp_path, capsys):
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

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_sweep_warehouse_holds_records_and_memo_only(
        self, traced, tmp_path, capsys
    ):
        run = tmp_path / "run"
        profile = ["--profile-out", str(tmp_path / "p.json")]
        assert main(
            ["sweep", "--n", "4", "--run-dir", str(run),
             *(profile if traced else [])]
        ) == 0
        capsys.readouterr()
        warehouse = run / "warehouse"
        assert sorted(path.name for path in warehouse.iterdir()) == [
            "memo", "segments",
        ]
        segments = list((warehouse / "segments").iterdir())
        assert segments
        assert all(path.name.startswith("records-") for path in segments)
        assert ResultsStore(warehouse).tables() == ["records"]

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

    def test_obs_reads_the_profile_only(self):
        obs = _subparsers(build_parser())["obs"]
        action = next(
            action for action in obs._actions if action.dest == "action"
        )
        assert set(action.choices) == {"explain"}

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
