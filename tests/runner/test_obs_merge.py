"""Cross-process telemetry: pool merges match serial, records stay clean."""

import json

import pytest

from repro.chain import clear_memo
from repro.context import ExecutionContext
from repro.obs import (
    OBS,
    TRACER,
    configure_tracing,
    reset_telemetry,
)
from repro.runner import ProcessPoolEngine, SerialEngine, SweepSpec, run_sweep


@pytest.fixture(autouse=True)
def clean_obs():
    configure_tracing(False)
    reset_telemetry()
    yield
    configure_tracing(False)
    reset_telemetry()


@pytest.fixture
def sweep():
    return SweepSpec(
        shapes=((2, 3), (1, 2, 2), (1, 4)),
        models=("blackboard", "clique"),
        tasks=("leader", "k-leader:2"),
    )


def stripped(path):
    return [
        {k: v for k, v in json.loads(line).items() if k != "elapsed"}
        for line in path.read_text().splitlines()
    ]


def _engine_invariant(snapshot):
    """The counter slice that must not depend on the engine.

    ``runner.jobs`` counts executed jobs; the ``chain.compile.*`` family
    counts compile calls by outcome, and its *sum* equals the number of
    compile requests regardless of how jobs were binned into workers.
    (Per-kind splits like memo hits against misses, and
    ``runner.groups``, legitimately differ between serial and pooled
    runs, so they stay out of this slice.)
    """
    counters = snapshot["counters"]
    return {
        "runner.jobs": counters.get("runner.jobs", 0),
        "chain.compile.total": sum(
            value for name, value in counters.items()
            if name.startswith("chain.compile.")
        ),
    }


class TestPoolMergeDeterminism:
    def test_pool_matches_serial_on_engine_invariant_counters(
        self, tmp_path, sweep
    ):
        configure_tracing(True)

        clear_memo()
        run_sweep(sweep, engine=SerialEngine(), run_dir=tmp_path / "serial")
        serial = _engine_invariant(OBS.metrics.snapshot())

        reset_telemetry()
        configure_tracing(True)
        clear_memo()
        run_sweep(
            sweep,
            engine=ProcessPoolEngine(workers=2, chunksize=1),
            run_dir=tmp_path / "pool",
        )
        pooled = _engine_invariant(OBS.metrics.snapshot())

        assert serial == pooled
        assert serial["runner.jobs"] == 12  # 3 shapes x 2 models x 2 tasks
        assert serial["chain.compile.total"] > 0

    def test_pool_spans_are_adopted_into_the_parent(self, tmp_path, sweep):
        configure_tracing(True)
        clear_memo()
        run_sweep(
            sweep,
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "run",
        )

        def names(spans):
            for span in spans:
                yield span.name
                yield from names(span.children)

        seen = set(names(TRACER.finished()))
        # Worker-side spans crossed the process boundary and nested
        # under the sweep's execute phase.
        assert "sweep.execute" in seen
        assert "runner.group" in seen
        assert "group.evolve" in seen


class TestRecordHygiene:
    def test_records_identical_with_tracing_on_and_off(
        self, tmp_path, sweep
    ):
        clear_memo()
        run_sweep(
            sweep,
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "off",
            warehouse=False,
        )

        configure_tracing(True)
        clear_memo()
        run_sweep(
            sweep,
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "on",
            warehouse=False,
        )

        assert stripped(tmp_path / "off" / "records.jsonl") == stripped(
            tmp_path / "on" / "records.jsonl"
        )

    def test_no_telemetry_keys_leak_into_records(self, tmp_path, sweep):
        configure_tracing(True)
        clear_memo()
        outcome = run_sweep(sweep, run_dir=tmp_path / "run")
        for record in outcome.records:
            assert "_telemetry" not in record
            assert "telemetry" not in record
        for line in (tmp_path / "run" / "records.jsonl").read_text(
        ).splitlines():
            assert "_telemetry" not in json.loads(line)


class _InlineEngine:
    """A non-serial engine that maps in-process: exercises the pool code
    path (payload context, telemetry attach/fold) without pool cost."""

    name = "inline"

    def map(self, fn, payloads):
        for payload in payloads:
            yield fn(payload)


class TestExperimentPathTelemetry:
    def test_execute_experiment_ships_telemetry_when_traced(self):
        from repro.runner.worker import execute_experiment

        record = execute_experiment(
            {"index": 0, "context": ExecutionContext(trace=True)}
        )
        assert record["telemetry"]["metrics"]["counters"][
            "runner.experiments"
        ] == 1
        spans = record["telemetry"]["spans"]
        assert any(s["name"] == "runner.experiment" for s in spans)

    def test_execute_experiment_stays_clean_untraced(self):
        from repro.runner.worker import execute_experiment

        record = execute_experiment({"index": 0})
        assert "telemetry" not in record

    def test_engine_path_folds_worker_telemetry_into_parent(
        self, monkeypatch
    ):
        import repro.analysis as analysis

        monkeypatch.setattr(
            analysis, "ALL_EXPERIMENTS", analysis.ALL_EXPERIMENTS[:1]
        )
        configure_tracing(True)
        results = list(
            analysis.iter_all_experiments(engine=_InlineEngine())
        )
        assert len(results) == 1
        # The worker-side drain crossed the engine boundary and folded
        # back: the counter and the worker's span are visible here.
        assert OBS.metrics.counter("runner.experiments") == 1

        def names(spans):
            for span in spans:
                yield span.name
                yield from names(span.children)

        assert "runner.experiment" in set(names(TRACER.finished()))
