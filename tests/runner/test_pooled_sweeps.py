"""Process-pool sweeps (workers=2) against the serial engine.

The acceptance contract: a pooled sweep produces byte-identical run
directories (modulo per-record wall-clock timing) and byte-identical
aggregates to a serial run, whether dispatched per job or as grouped
payloads.
"""

import json

import pytest

from repro.context import ExecutionContext, current_context, use_context
from repro.runner import (
    ProcessPoolEngine,
    SerialEngine,
    SweepSpec,
    run_sweep,
)


def _strip_timing(records):
    return [
        {key: value for key, value in record.items() if key != "elapsed"}
        for record in records
    ]


def _sweep():
    return SweepSpec.for_total_size(
        4, models=("blackboard", "clique"), ports=("adversarial",)
    )


class TestPooledSweeps:
    def test_pool_matches_serial(self, tmp_path):
        serial = run_sweep(_sweep(), engine=SerialEngine(),
                           run_dir=tmp_path / "serial")
        pooled = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "pooled",
        )
        assert _strip_timing(serial.records) == _strip_timing(pooled.records)
        assert serial.result().render() == pooled.result().render()
        # The persisted JSONL agrees too (same stripped records on disk).
        for run in ("serial", "pooled"):
            lines = (tmp_path / run / "records.jsonl").read_text()
            loaded = [json.loads(line) for line in lines.splitlines()]
            assert _strip_timing(loaded) == _strip_timing(serial.records)

    def test_grouped_pooled_sweep_byte_identical_to_serial(self, tmp_path):
        """The grouped-dispatch contract: a 2-worker sweep dispatched as
        group payloads (one grouped pass per payload) writes a run
        directory byte-identical to a serial one, and both match per-job
        records from :func:`~repro.runner.worker.execute_run`, which
        never enters the grouped pass."""
        from repro.runner.worker import execute_run, execute_run_group

        captured = []

        class SpyPool(ProcessPoolEngine):
            def map(self, fn, payloads):
                captured.append((fn, list(payloads)))
                return super().map(fn, captured[-1][1])

        serial = run_sweep(_sweep(), engine=SerialEngine(),
                           run_dir=tmp_path / "serial")
        pooled = run_sweep(
            _sweep(),
            engine=SpyPool(workers=2),
            run_dir=tmp_path / "pooled",
        )
        sweep = _sweep()
        per_job = [
            execute_run(
                {"spec": spec.to_dict(), "master_seed": sweep.master_seed,
                 "index": i}
            )
            for i, spec in enumerate(sweep.expand())
        ]
        # The pool really ran group payloads, several jobs per payload.
        fn, payloads = captured[0]
        assert fn is execute_run_group
        assert all("jobs" in payload for payload in payloads)
        assert len(payloads) < serial.total
        assert sum(len(p["jobs"]) for p in payloads) == serial.total
        assert _strip_timing(serial.records) == _strip_timing(pooled.records)
        assert _strip_timing(serial.records) == _strip_timing(per_job)
        for run in ("serial", "pooled"):
            lines = (tmp_path / run / "records.jsonl").read_text()
            loaded = [json.loads(line) for line in lines.splitlines()]
            assert _strip_timing(loaded) == _strip_timing(serial.records)

    def test_run_dirless_pool_matches_serial(self):
        serial = run_sweep(_sweep(), engine=SerialEngine())
        pooled = run_sweep(_sweep(), engine=ProcessPoolEngine(workers=2))
        assert _strip_timing(serial.records) == _strip_timing(
            pooled.records
        )
        assert serial.result().render() == pooled.result().render()

    def test_cold_run_dir_sweep_leaves_compilation_to_workers(
        self, tmp_path
    ):
        from repro.chain import clear_memo, memo_size

        clear_memo()
        outcome = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "run",
            warehouse=False,
        )
        assert outcome.executed == outcome.total
        # No parent-side compilation: the workers compiled every chain.
        assert memo_size() == 0

    @pytest.mark.parametrize("engine", ["serial", "process"])
    def test_run_dir_sweep_leaves_no_chains_entry(self, tmp_path, engine):
        # Compiled chains live in each process's memo only; the run
        # directory holds records, the manifest and the warehouse.
        run_sweep(
            _sweep(),
            engine=(
                SerialEngine() if engine == "serial"
                else ProcessPoolEngine(workers=2)
            ),
            run_dir=tmp_path / "run",
        )
        entries = {path.name for path in (tmp_path / "run").iterdir()}
        assert "chains" not in entries
        assert entries == {"manifest.json", "records.jsonl", "warehouse"}

    @pytest.mark.parametrize("engine", ["serial", "process"])
    def test_warm_warehouse_serves_a_fresh_run_dir_without_compiling(
        self, tmp_path, engine
    ):
        # A fresh run directory over a warehouse another run filled:
        # every job is a memo hit and no chain compiles anywhere.
        from repro.chain import clear_memo
        from repro.obs import OBS, configure_tracing, reset_telemetry

        def make_engine():
            if engine == "serial":
                return SerialEngine()
            return ProcessPoolEngine(workers=2)

        cold = run_sweep(
            _sweep(), engine=make_engine(), run_dir=tmp_path / "cold",
            warehouse=tmp_path / "warehouse",
        )
        clear_memo()
        configure_tracing(True)
        reset_telemetry()
        try:
            warm = run_sweep(
                _sweep(), engine=make_engine(), run_dir=tmp_path / "warm",
                warehouse=tmp_path / "warehouse",
            )
            counters = OBS.metrics.snapshot()["counters"]
        finally:
            configure_tracing(False)
            reset_telemetry()
        assert warm.executed == warm.total
        assert counters["results.memo.hit"] == warm.total
        assert counters.get("chain.compile.miss", 0) == 0
        assert _strip_timing(warm.records) == _strip_timing(cold.records)

    def test_resumed_sweep_serves_lost_records_from_the_memo(
        self, tmp_path
    ):
        # Records lost after their jobs ran (a crash before the append)
        # come back from the warehouse memo on resume: nothing compiles.
        from repro.chain import clear_memo
        from repro.obs import OBS, configure_tracing, reset_telemetry

        first = run_sweep(
            _sweep(), engine=SerialEngine(), run_dir=tmp_path / "run"
        )
        records = tmp_path / "run" / "records.jsonl"
        lines = records.read_text().splitlines(keepends=True)
        records.write_text("".join(lines[:3]))
        clear_memo()
        configure_tracing(True)
        reset_telemetry()
        try:
            again = run_sweep(
                _sweep(), engine=SerialEngine(), run_dir=tmp_path / "run"
            )
            counters = OBS.metrics.snapshot()["counters"]
        finally:
            configure_tracing(False)
            reset_telemetry()
        assert (again.resumed, again.executed) == (3, first.total - 3)
        assert counters.get("chain.compile.miss", 0) == 0
        assert _strip_timing(again.records) == _strip_timing(first.records)

    def test_resumed_pooled_sweep_executes_nothing(self, tmp_path):
        first = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "run",
        )
        again = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "run",
        )
        assert first.total == again.total == again.resumed
        assert again.executed == 0
        assert _strip_timing(first.records) == _strip_timing(again.records)


class TestProcessContext:
    def test_callers_memo_serves_a_run_dirless_pool_sweep(self, tmp_path):
        from repro.results.memo import query_memo

        mine = ExecutionContext(results_memo=tmp_path / "memo")
        sweep = _sweep()
        with use_context(mine):
            run_sweep(sweep, engine=ProcessPoolEngine(workers=2))
            assert current_context() is mine
            # The workers ran under the caller's context too: every job
            # recorded its answer in the caller's memo.
            assert len(query_memo()) == len(sweep.expand())

    def test_pooled_experiment_payloads_carry_only_the_context(self):
        from repro.analysis import ALL_EXPERIMENTS, iter_all_experiments
        from repro.runner.worker import payload_context

        captured = []

        class SpyEngine:
            name = "spy"

            def map(self, fn, payloads):
                captured.extend(payloads)
                return iter(())

        list(iter_all_experiments(engine=SpyEngine()))
        assert [payload["index"] for payload in captured] == list(
            range(len(ALL_EXPERIMENTS))
        )
        for payload in captured:
            assert set(payload) == {"index", "context"}
            assert payload["context"] == payload_context()

    @pytest.mark.parametrize("mode", ["off", "auto", "on"])
    def test_quotient_mode_travels_in_every_pool_payload(self, mode):
        captured = []

        class SpyPool(ProcessPoolEngine):
            def map(self, fn, payloads):
                payloads = list(payloads)
                captured.extend(payloads)
                return super().map(fn, payloads)

        with use_context(ExecutionContext(quotient=mode)):
            run_sweep(_sweep(), engine=SpyPool(workers=2))
        assert captured
        for payload in captured:
            assert payload["context"] == ExecutionContext(quotient=mode)
            for job in payload.get("jobs", [payload]):
                assert job["context"] == payload["context"]
                for key in ("batch", "group_chains", "policy"):
                    assert key not in job

    @pytest.mark.parametrize("warehouse", ["default", "none"])
    def test_a_run_dir_adds_only_the_warehouse_memo(
        self, tmp_path, warehouse
    ):
        # The run directory contributes the warehouse's memo and
        # nothing else to the context the workers run under.
        captured = []

        class SpyPool(ProcessPoolEngine):
            def map(self, fn, payloads):
                payloads = list(payloads)
                captured.extend(payloads)
                return super().map(fn, payloads)

        run_sweep(
            _sweep(),
            engine=SpyPool(workers=2),
            run_dir=tmp_path / "run",
            warehouse=None if warehouse == "default" else False,
        )
        expected = ExecutionContext(
            results_memo=(
                tmp_path / "run" / "warehouse" / "memo"
                if warehouse == "default"
                else None
            )
        )
        assert captured
        for payload in captured:
            assert payload["context"] == expected
