"""Folding, rendering, rows, and the profile schema validator."""

import json
import os
import subprocess
import sys

from repro.obs import (
    MetricsRegistry,
    OBS,
    Span,
    build_profile,
    configure_tracing,
    drain_telemetry,
    merge_telemetry,
    render_span_tree,
    span_aggregates,
    telemetry_rows,
    trace,
)
from repro.obs.schema import main as schema_main
from repro.obs.schema import validate, validate_profile
from repro.obs.trace import TRACER


def _span(name, duration, children=(), attrs=None):
    span = Span(name, attrs)
    span.duration = duration
    span.children = list(children)
    return span


class TestAggregates:
    def test_self_time_subtracts_children(self):
        tree = _span("outer", 1.0, [_span("inner", 0.25)])
        totals = span_aggregates([tree])
        assert totals["outer"] == {
            "calls": 1, "total": 1.0, "self": 0.75,
        }
        assert totals["inner"] == {
            "calls": 1, "total": 0.25, "self": 0.25,
        }

    def test_repeated_names_accumulate(self):
        spans = [_span("job", 0.5), _span("job", 1.5)]
        totals = span_aggregates(spans)
        assert totals["job"] == {"calls": 2, "total": 2.0, "self": 2.0}


class TestRenderSpanTree:
    def test_empty_forest_message(self):
        assert render_span_tree([]) == (
            "no spans recorded (tracing off or nothing traced)"
        )

    def test_golden_tree(self):
        forest = [
            _span(
                "repro.sweep", 2.0,
                [
                    _span("runner.job", 0.5, [_span("job.evolve", 0.25)]),
                    _span("runner.job", 0.5, [_span("job.evolve", 0.25)]),
                ],
            )
        ]
        assert render_span_tree(forest).splitlines() == [
            "span                                          "
            "calls        total         self",
            "repro.sweep                                   "
            "    1   2000.000ms   1000.000ms",
            "  runner.job                                  "
            "    2   1000.000ms    500.000ms",
            "    job.evolve                                "
            "    2    500.000ms    500.000ms",
        ]


class TestTelemetryRows:
    def test_row_kinds_and_values(self):
        registry = MetricsRegistry()
        registry.inc("jobs", 3)
        registry.gauge("entries", 7)
        registry.observe("lat", 2.0)
        registry.observe("lat", 4.0)
        spans = [_span("phase", 1.5)]
        rows = telemetry_rows(registry, spans)
        by_key = {(r["kind"], r["name"]): r for r in rows}
        assert by_key[("counter", "jobs")]["value"] == 3.0
        assert by_key[("counter", "jobs")]["count"] == 3
        assert by_key[("gauge", "entries")] == {
            "kind": "gauge", "name": "entries", "value": 7.0, "count": 1,
        }
        assert by_key[("hist", "lat")]["value"] == 6.0
        assert by_key[("hist", "lat")]["count"] == 2
        assert by_key[("span", "phase")]["value"] == 1.5
        assert by_key[("span.self", "phase")]["value"] == 1.5


class TestDrainMerge:
    def test_round_trip_preserves_totals(self):
        configure_tracing(True)
        OBS.metrics.inc("jobs", 5)
        with trace("phase"):
            pass
        before = OBS.metrics.snapshot()
        payload = drain_telemetry()
        assert OBS.metrics.snapshot()["counters"] == {}
        assert TRACER.finished() == []
        merge_telemetry(payload)
        assert OBS.metrics.snapshot() == before
        assert [s.name for s in TRACER.finished()] == ["phase"]

    def test_merged_spans_nest_under_open_span(self):
        configure_tracing(True)
        with trace("worker"):
            pass
        payload = drain_telemetry()
        with trace("sweep.execute"):
            merge_telemetry(payload)
        root = TRACER.finished()[0]
        assert root.name == "sweep.execute"
        assert [c.name for c in root.children] == ["worker"]

    def test_tolerates_partial_payloads(self):
        merge_telemetry({})
        merge_telemetry({"metrics": None})
        merge_telemetry(None)  # type: ignore[arg-type]
        assert OBS.metrics.snapshot()["counters"] == {}


class TestProfileSchema:
    def test_live_profile_validates(self):
        configure_tracing(True)
        OBS.metrics.inc("chain.compile.miss")
        OBS.metrics.observe("chain.compile.states", 12.0)
        with trace("repro.sweep", jobs=4):
            with trace("runner.job"):
                pass
        document = build_profile(command="sweep", argv=("--n", "4"))
        assert validate_profile(document) == []

    def test_missing_required_key_is_reported(self):
        document = build_profile()
        del document["metrics"]
        errors = validate_profile(document)
        assert any("metrics" in error for error in errors)

    def test_wrong_type_is_reported(self):
        document = build_profile()
        document["meta"]["command"] = 42
        errors = validate_profile(document)
        assert any("meta.command" in error or "command" in error
                   for error in errors)

    def test_unknown_top_level_key_is_reported(self):
        document = build_profile()
        document["surprise"] = True
        errors = validate_profile(document)
        assert any("surprise" in error for error in errors)

    def test_validator_primitives(self):
        assert validate(3, {"type": "integer"}) == []
        assert validate(True, {"type": "integer"}) != []  # bool != int
        assert validate(3, {"type": "number"}) == []
        assert validate("x", {"type": "number"}) != []
        assert validate([1, 2], {"type": "array",
                                 "items": {"type": "integer"}}) == []
        assert validate([1, "x"], {"type": "array",
                                   "items": {"type": "integer"}}) != []


class TestProfileSchemaV2:
    def test_meta_carries_the_schema_version(self):
        from repro.obs import PROFILE_SCHEMA_VERSION

        document = build_profile()
        assert document["meta"]["schema_version"] == PROFILE_SCHEMA_VERSION

    def test_histograms_carry_percentiles(self):
        from repro.obs import histogram_percentiles

        OBS.metrics.observe("lat", 2.0)
        OBS.metrics.observe("lat", 8.0)
        document = build_profile()
        hist = document["metrics"]["histograms"]["lat"]
        assert hist["percentiles"] == histogram_percentiles(hist)
        assert set(hist["percentiles"]) == {"p50", "p90", "p99"}
        assert validate_profile(document) == []

    def test_wrong_schema_version_is_rejected(self):
        document = build_profile()
        document["meta"]["schema_version"] = 1
        errors = validate_profile(document)
        assert any("schema_version" in error for error in errors)

    def test_missing_percentiles_are_rejected(self):
        OBS.metrics.observe("lat", 2.0)
        document = build_profile()
        del document["metrics"]["histograms"]["lat"]["percentiles"]
        errors = validate_profile(document)
        assert any("percentiles" in error for error in errors)

    def test_validator_enum_keyword(self):
        assert validate(2, {"type": "integer", "enum": [2]}) == []
        assert validate(3, {"type": "integer", "enum": [2]}) != []


class TestSchemaModuleCLI:
    """``python -m repro.obs.schema FILE...``: profiles only."""

    @staticmethod
    def _write(path, document):
        path.write_text(json.dumps(document))
        return str(path)

    def test_no_arguments_prints_usage(self, capsys):
        assert schema_main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_a_valid_profile_passes(self, tmp_path, capsys):
        name = self._write(tmp_path / "p.json", build_profile())
        assert schema_main([name]) == 0
        assert capsys.readouterr().out == f"{name}: valid\n"

    def test_a_missing_file_is_unreadable(self, tmp_path, capsys):
        name = str(tmp_path / "nope.json")
        assert schema_main([name]) == 1
        assert capsys.readouterr().out.startswith(f"{name}: unreadable")

    def test_malformed_json_is_unreadable(self, tmp_path, capsys):
        path = tmp_path / "torn.json"
        path.write_text('{"meta": ')
        assert schema_main([str(path)]) == 1
        assert capsys.readouterr().out.startswith(f"{path}: unreadable")

    def test_each_violation_is_one_line_named_by_file(self, tmp_path,
                                                      capsys):
        document = build_profile()
        del document["metrics"]
        document["surprise"] = True
        name = self._write(tmp_path / "bad.json", document)
        assert schema_main([name]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"{name}: {error}" for error in validate_profile(document)
        ]
        assert len(lines) == 2

    def test_one_bad_file_fails_the_batch(self, tmp_path, capsys):
        good = self._write(tmp_path / "good.json", build_profile())
        bad = self._write(tmp_path / "bad.json", {"meta": {}})
        assert schema_main([good, bad]) == 1
        out = capsys.readouterr().out
        assert f"{good}: valid" in out
        assert f"{bad}: " in out.replace(f"{good}: valid", "")

    def test_runs_as_a_module(self, tmp_path):
        import repro

        name = self._write(tmp_path / "p.json", build_profile())
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs.schema", name],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout == f"{name}: valid\n"
