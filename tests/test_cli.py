"""Unit tests for the command-line interface."""

import pytest

from repro.cli import _make_task, _parse_sizes, main
from repro.context import current_context


class TestParsing:
    def test_parse_sizes(self):
        assert _parse_sizes("2,3") == (2, 3)
        assert _parse_sizes("1") == (1,)

    def test_parse_sizes_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_sizes("two,three")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_sizes("0,2")

    def test_make_task_variants(self):
        assert _make_task("leader", 4).n == 4
        assert _make_task("k-leader:2", 4).count_multisets() == ((2, 2),)
        assert _make_task("weak-sb", 3).n == 3
        assert _make_task("unique-ids", 3).count_multisets() == ((1, 1, 1),)
        assert _make_task("deputy", 4).count_multisets() == ((1, 1, 2),)
        assert _make_task("threshold:1,2", 4).n == 4
        assert _make_task("teams:2,2", 4).n == 4

    def test_make_task_unknown(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _make_task("bogus", 3)


class TestCommands:
    def test_solve_blackboard(self, capsys):
        assert main(["solve", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "eventually solvable: YES" in out

    def test_solve_clique_unsolvable(self, capsys):
        assert main(["solve", "2,2", "--model", "clique"]) == 0
        out = capsys.readouterr().out
        assert "eventually solvable: NO" in out

    @pytest.mark.parametrize(
        "sizes,verdict", [("1,2", "YES"), ("2,2", "NO")]
    )
    def test_solve_float_backend_gives_the_exact_verdict(
        self, capsys, sizes, verdict
    ):
        for backend in ("exact", "float"):
            assert main(["solve", sizes, "--backend", backend]) == 0
            out = capsys.readouterr().out
            assert f"eventually solvable: {verdict}" in out

    def test_series(self, capsys):
        assert main(["series", "1,1", "--t-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "1/2" in out and "7/8" in out

    def test_expected_time(self, capsys):
        assert main(["expected-time", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "expected rounds" in out
        assert "2" in out

    def test_expected_time_infinite(self, capsys):
        assert main(["expected-time", "3"]) == 0
        assert "infinite" in capsys.readouterr().out

    def test_phase_diagram(self, capsys):
        assert main(["phase-diagram", "3"]) == 0
        out = capsys.readouterr().out
        assert "(1, 2)" in out
        assert "(3,)" in out

    def test_protocol_success(self, capsys):
        assert main(
            ["protocol", "2,3", "--model", "clique", "--seed", "1"]
        ) == 0
        assert "elected" in capsys.readouterr().out

    def test_protocol_failure_exit_code(self, capsys):
        assert main(
            ["protocol", "2,2", "--model", "clique", "--max-rounds", "12"]
        ) == 1
        assert "no election" in capsys.readouterr().out

    def test_protocol_two_leaders(self, capsys):
        assert main(
            ["protocol", "2,4", "--model", "clique", "--k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "k=2" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "O_LE" in out and "P(0)" in out

    def test_experiments_selected(self, capsys):
        assert main(["experiments", "figure-3"]) == 0
        out = capsys.readouterr().out
        assert "figure-3" in out
        assert "theorem-4.1" not in out

    def test_tasks_through_solve(self, capsys):
        assert main(
            ["solve", "2,4", "--model", "clique", "--task", "k-leader:2"]
        ) == 0
        assert "YES" in capsys.readouterr().out

    def test_graphs_ring(self, capsys):
        assert main(["graphs", "ring:4"]) == 0
        out = capsys.readouterr().out
        assert "NO" in out

    def test_graphs_bipartite(self, capsys):
        assert main(["graphs", "bipartite:2,3"]) == 0
        assert "YES" in capsys.readouterr().out

    def test_graphs_star_and_path(self, capsys):
        assert main(["graphs", "star:4"]) == 0
        assert "YES" in capsys.readouterr().out
        assert main(["graphs", "path:4"]) == 0
        assert "NO" in capsys.readouterr().out

    def test_graphs_labeling_limit(self, capsys):
        assert main(["graphs", "clique:6", "--labeling-limit", "10"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_graphs_unknown(self):
        with pytest.raises(SystemExit):
            main(["graphs", "torus:4"])

    def test_mermaid(self, capsys):
        assert main(["mermaid", "1,2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("stateDiagram-v2")
        assert "[solves]" in out

    def test_mermaid_max_states(self):
        with pytest.raises(ValueError):
            main(["mermaid", "1,1,1,1", "--max-states", "2"])

    def test_quotient_flag_leaves_answers_unchanged(self, capsys):
        assert main(["solve", "1,1,1", "--no-quotient"]) == 0
        full = capsys.readouterr().out
        assert main(["solve", "1,1,1", "--quotient"]) == 0
        assert capsys.readouterr().out == full
        assert main(["series", "2,3", "--t-max", "4", "--no-quotient"]) == 0
        series_full = capsys.readouterr().out
        assert main(["series", "2,3", "--t-max", "4", "--quotient"]) == 0
        assert capsys.readouterr().out == series_full

    def test_quotient_flag_sets_the_commands_mode(self, monkeypatch, capsys):
        import repro.cli as cli

        seen = []
        solve = cli.cmd_solve

        def spy(args):
            seen.append(current_context().quotient)
            return solve(args)

        monkeypatch.setattr(cli, "cmd_solve", spy)
        assert main(["solve", "1,1", "--quotient"]) == 0
        assert main(["solve", "1,1", "--no-quotient"]) == 0
        # Flag absent on a quotient-aware command: auto.
        assert main(["solve", "1,1"]) == 0
        assert seen == ["on", "off", "auto"]
        capsys.readouterr()


class TestContextIsRestored:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "2,3", "--warehouse", "{tmp}/w"],
            ["estimate", "2,3", "--samples", "1000", "--warehouse", "{tmp}/w"],
            ["sweep", "--n", "3", "--run-dir", "{tmp}/run"],
            ["experiments", "figure-3"],
        ],
        ids=["run", "estimate", "sweep", "experiments"],
    )
    def test_main_leaves_the_context_as_it_found_it(
        self, argv, tmp_path, capsys
    ):
        from repro.results.memo import query_memo

        before = current_context()
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
        assert current_context() is before
        assert query_memo() is None
        capsys.readouterr()

    def test_report(self, tmp_path, capsys):
        # Running all experiments is slow-ish; limit via direct call is
        # covered elsewhere -- here just verify the wiring end to end.
        assert main(["report", str(tmp_path)]) == 0
        assert (tmp_path / "experiments.json").exists()
        assert "experiments pass" in capsys.readouterr().out


#: Minimal valid argv for every command that used to take the retired
#: execution-strategy options (parsing fails before any command runs).
RETIRED_OPTION_COMMANDS = {
    "solve": ["solve", "1,2"],
    "series": ["series", "1,2"],
    "expected-time": ["expected-time", "1,2"],
    "phase-diagram": ["phase-diagram", "3"],
    "experiments": ["experiments"],
    "run": ["run", "1,2"],
    "sweep": ["sweep", "--n", "3"],
    "report": ["report", "OUT"],
}

#: One planner path remains, so none of these spellings parse any more.
RETIRED_OPTIONS = {
    "policy": [["--policy", "static"], ["--policy", "measured"]],
    "batch": [["--batch"], ["--no-batch"]],
    "group-chains": [["--group-chains"], ["--no-group-chains"]],
}


class TestRetiredOptions:
    @pytest.mark.parametrize("option", sorted(RETIRED_OPTIONS))
    @pytest.mark.parametrize("command", sorted(RETIRED_OPTION_COMMANDS))
    def test_retired_option_is_rejected(self, command, option, capsys):
        for spelling in RETIRED_OPTIONS[option]:
            with pytest.raises(SystemExit) as excinfo:
                main(RETIRED_OPTION_COMMANDS[command] + spelling)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_chains_calibrate_action_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chains", "calibrate", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["list", "inspect", "prune"])
    def test_chains_command_is_gone(self, action, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chains", action, str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice: 'chains'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["obs", "history", "DIR"],
            ["obs", "diff", "DIR"],
            ["obs", "tiers", "DIR"],
            ["report", "OUT", "--warehouse", "W"],
            ["report", "OUT", "--no-warehouse"],
            ["results", "query", "DIR", "--table", "groups"],
        ],
        ids=["obs-history", "obs-diff", "obs-tiers", "report-warehouse",
             "report-no-warehouse", "results-table"],
    )
    def test_persisted_telemetry_spellings_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_estimate_chain_method_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "1,2", "--method", "chain"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'chain'" in capsys.readouterr().err
