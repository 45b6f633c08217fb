"""In-flight telemetry: heartbeats, progress events, the stall watchdog."""

import json
import pathlib
import time

import pytest

from repro.chain import clear_memo
from repro.context import ExecutionContext, use_context
from repro.obs import OBS, clock, configure_tracing
from repro.obs.live import (
    LIVE,
    HeartbeatEmitter,
    LiveConfig,
    SweepMonitor,
    format_progress_event,
    monitored_map,
    read_heartbeats,
    read_progress,
    worker_status,
)
from repro.obs.schema import validate_progress


class TestLiveConfig:
    def test_defaults(self):
        config = LiveConfig()
        assert config.interval == 1.0
        assert config.deadline == 30.0
        assert config.action == "warn"

    def test_from_payload_accepts_none_dict_and_config(self):
        assert LiveConfig.from_payload(None) == LiveConfig()
        built = LiveConfig.from_payload({"deadline": 5.0, "action": "cancel"})
        assert built.deadline == 5.0
        assert built.action == "cancel"
        assert built.interval == 1.0  # untouched fields keep defaults
        config = LiveConfig(poll=0.25)
        assert LiveConfig.from_payload(config) is config

    def test_from_payload_ignores_unknown_keys(self):
        assert LiveConfig.from_payload({"dir": "/x", "interval": 2.0}) == (
            LiveConfig(interval=2.0)
        )


class TestHeartbeatEmitter:
    def test_constructor_announces_liveness(self, tmp_path):
        emitter = HeartbeatEmitter(tmp_path, interval=60.0)
        folded = read_heartbeats(tmp_path)
        assert set(folded) == {emitter.worker}
        state = folded[emitter.worker]
        assert state["seq"] == 1
        assert state["phase"] == "idle"
        assert state["jobs_started"] == 0
        assert "rss_peak" in state["resources"]

    def test_beats_are_throttled_but_forceable(self, tmp_path):
        emitter = HeartbeatEmitter(tmp_path, interval=60.0)
        assert not emitter.beat()  # inside the interval
        assert emitter.beat(force=True)
        emitter.interval = 0.0
        assert emitter.beat()

    def test_job_finish_always_beats(self, tmp_path):
        emitter = HeartbeatEmitter(tmp_path, interval=60.0)
        emitter.job_started("job:exact")  # throttled away
        emitter.job_finished()
        state = read_heartbeats(tmp_path)[emitter.worker]
        assert state["jobs_started"] == 1
        assert state["jobs_finished"] == 1
        assert state["phase"] == "idle"

    def test_counter_deltas_fold_to_totals(self, tmp_path):
        configure_tracing(True)
        emitter = HeartbeatEmitter(tmp_path, interval=0.0)
        OBS.metrics.inc("live.test.counter", 3)
        emitter.beat()
        OBS.metrics.inc("live.test.counter", 4)
        emitter.beat()
        state = read_heartbeats(tmp_path)[emitter.worker]
        assert state["counters"]["live.test.counter"] == 7

    def test_counter_deltas_survive_a_drain_reset(self, tmp_path):
        from repro.obs import drain_telemetry

        configure_tracing(True)
        emitter = HeartbeatEmitter(tmp_path, interval=0.0)
        OBS.metrics.inc("live.test.counter", 5)
        emitter.beat()
        drain_telemetry()  # the record-path fold resets the registry
        OBS.metrics.inc("live.test.counter", 2)
        emitter.beat()
        state = read_heartbeats(tmp_path)[emitter.worker]
        # 5 before the drain plus 2 after: the fold still sums exactly.
        assert state["counters"]["live.test.counter"] == 7

    def test_deltas_never_touch_the_process_registry(self, tmp_path):
        configure_tracing(True)
        emitter = HeartbeatEmitter(tmp_path, interval=0.0)
        OBS.metrics.inc("live.test.counter", 3)
        before = OBS.metrics.snapshot()["counters"]
        emitter.beat()
        emitter.beat()
        assert OBS.metrics.snapshot()["counters"] == before

    def test_untraced_beats_carry_no_counters(self, tmp_path):
        emitter = HeartbeatEmitter(tmp_path, interval=0.0)
        emitter.beat()
        assert read_heartbeats(tmp_path)[emitter.worker]["counters"] == {}


class TestContextEmitter:
    def test_emitter_follows_the_context(self, tmp_path):
        assert LIVE.emitter is None
        with use_context(ExecutionContext(heartbeat=(tmp_path, 2.0))):
            emitter = LIVE.emitter
            assert emitter is not None
            assert emitter.interval == 2.0
        assert LIVE.emitter is None
        # Same directory again: the emitter (and its counters) is kept.
        with use_context(ExecutionContext(heartbeat=(tmp_path, 0.5))):
            assert LIVE.emitter is emitter
            assert emitter.interval == 0.5
        # A different sweep's directory builds a new one.
        other = tmp_path / "other"
        other.mkdir()
        with use_context(ExecutionContext(heartbeat=(other, 1.0))):
            assert LIVE.emitter is not emitter

    def test_a_forked_child_builds_its_own_emitter(
        self, tmp_path, monkeypatch
    ):
        with use_context(ExecutionContext(heartbeat=(tmp_path, 1.0))):
            emitter = LIVE.emitter
            monkeypatch.setattr("os.getpid", lambda: emitter.pid + 1)
            assert LIVE.emitter is not emitter


class TestWorkerStatus:
    def test_age_and_in_flight_under_frozen_clock(self, tmp_path):
        with clock.frozen(100.0):
            emitter = HeartbeatEmitter(tmp_path, interval=0.0)
            emitter.job_started("job:exact")
        rows = worker_status(tmp_path, now=103.5)
        assert len(rows) == 1
        assert rows[0]["age"] == pytest.approx(3.5)
        assert rows[0]["in_flight"] == 1

    def test_missing_directory_is_empty(self, tmp_path):
        assert worker_status(tmp_path / "nope") == []
        assert read_heartbeats(tmp_path / "nope") == {}


class TestProgressLog:
    def test_read_progress_skips_torn_tail(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        path.write_bytes(
            json.dumps({"event": "start"}).encode() + b"\n"
            + b'{"event": "progr'  # a writer mid-append
        )
        events, offset = read_progress(path)
        assert [e["event"] for e in events] == ["start"]
        # Completing the line makes it visible from the saved offset.
        with path.open("ab") as handle:
            handle.write(b'ess"}\n')
        events, _ = read_progress(path, offset)
        assert [e["event"] for e in events] == ["progress"]

    def test_format_progress_event_renders_every_kind(self):
        assert format_progress_event(
            {"event": "start", "completed": 2, "total": 8, "resumed": 2}
        ) == "[start] 2/8 jobs (2 resumed)"
        line = format_progress_event(
            {
                "event": "progress", "completed": 4, "total": 8,
                "throughput": 2.0, "eta": 2.0,
                "workers": [{"worker": "a"}, {"worker": "b"}],
            }
        )
        assert line == "[progress] 4/8 jobs  2.00/s  eta 2.0s  workers 2"
        assert "stalled" not in format_progress_event(
            {"event": "stall", "worker": "w", "age": 3.0, "deadline": 1.0,
             "action": "warn", "completed": 0, "total": 8}
        )
        assert format_progress_event(
            {"event": "end", "completed": 8, "total": 8, "elapsed": 1.25}
        ) == "[end] 8/8 jobs in 1.25s"


class TestProgressSchemaValidation:
    def test_rejects_unknown_event_kinds_and_extra_fields(self):
        base = {"event": "start", "stamp": 1.0, "completed": 0, "total": 4}
        assert validate_progress(base) == []
        assert validate_progress({**base, "event": "oops"})
        assert validate_progress({**base, "mystery": 1})
        assert validate_progress({"event": "progress"})  # missing required

    def test_event_log_errors_are_line_numbered(self, tmp_path):
        from repro.obs.schema import _validate_event_log, main

        path = tmp_path / "progress.jsonl"
        path.write_text(
            json.dumps(
                {"event": "start", "stamp": 1.0, "completed": 0, "total": 2}
            )
            + "\n"
            + "not json\n"
            + json.dumps({"event": "bogus", "stamp": 2.0, "completed": 1,
                          "total": 2})
            + "\n"
        )
        errors = _validate_event_log(path)
        assert any(error.startswith("line 2:") for error in errors)
        assert any(error.startswith("line 3:") for error in errors)
        assert main([str(path)]) == 1

    def test_valid_log_passes_the_module_cli(self, tmp_path, capsys):
        from repro.obs.schema import main

        path = tmp_path / "progress.jsonl"
        path.write_text(
            json.dumps(
                {"event": "start", "stamp": 1.0, "completed": 0, "total": 2}
            )
            + "\n"
        )
        assert main([str(path)]) == 0
        assert "valid" in capsys.readouterr().out


class TestSweepMonitor:
    def test_lifecycle_events_validate_against_the_schema(self, tmp_path):
        monitor = SweepMonitor(tmp_path, total=4, resumed=1)
        monitor.heartbeat_dir.mkdir()
        with clock.frozen(10.0):
            HeartbeatEmitter(monitor.heartbeat_dir, interval=0.0)
        monitor.start()
        monitor.note_record({"key": "a"})
        monitor.tick(now=11.0)
        monitor.stop()
        events, _ = read_progress(monitor.progress_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "end"
        assert "progress" in kinds
        for event in events:
            assert validate_progress(event) == [], event
        start = events[0]
        assert (start["completed"], start["total"], start["resumed"]) == (
            1, 4, 1
        )
        assert events[-1]["completed"] == 2  # resumed + one record

    def test_tick_reports_throughput_and_eta_for_fresh_work_only(
        self, tmp_path
    ):
        monitor = SweepMonitor(tmp_path, total=10, resumed=4)
        event = monitor.tick(now=50.0)
        # Nothing fresh yet: no throughput/eta keys at all (the schema
        # has no union types, so unknown means absent, not null).
        assert "throughput" not in event
        assert "eta" not in event
        monitor.note_record({"key": "a"})
        monitor.note_record({"key": "b"})
        event = monitor.tick(now=51.0)
        assert event["throughput"] > 0
        assert event["eta"] > 0
        assert event["completed"] == 6

    def test_worker_rows_hoist_resources(self, tmp_path):
        monitor = SweepMonitor(tmp_path, total=1)
        monitor.heartbeat_dir.mkdir()
        HeartbeatEmitter(monitor.heartbeat_dir, interval=0.0)
        event = monitor.tick()
        (row,) = event["workers"]
        assert row["rss_peak"] > 0
        assert "resources" not in row
        assert validate_progress(event) == []

    def test_worker_gauges_are_labeled_when_traced(self, tmp_path):
        configure_tracing(True)
        monitor = SweepMonitor(tmp_path, total=1)
        monitor.heartbeat_dir.mkdir()
        emitter = HeartbeatEmitter(monitor.heartbeat_dir, interval=0.0)
        monitor.tick()
        labeled = OBS.metrics.labeled_gauges("worker.rss_peak")
        assert labeled[emitter.worker] > 0


class TestStallWatchdog:
    def _stale_in_flight_worker(self, directory):
        """One heartbeat at t=100 with a job in flight, then silence."""
        with clock.frozen(100.0):
            emitter = HeartbeatEmitter(directory, interval=0.0)
            emitter.job_started("job:exact")
        return emitter

    def test_detects_a_hung_worker_within_one_deadline(
        self, tmp_path, capsys
    ):
        config = LiveConfig(deadline=0.5)
        monitor = SweepMonitor(tmp_path, total=2, config=config)
        monitor.heartbeat_dir.mkdir()
        emitter = self._stale_in_flight_worker(monitor.heartbeat_dir)
        monitor.tick(now=100.4)  # age 0.4 <= deadline: healthy
        events, _ = read_progress(monitor.progress_path)
        assert all(e["event"] != "stall" for e in events)
        # One deadline interval later the very next tick flags it.
        monitor.tick(now=100.4 + config.deadline + 0.2)
        events, _ = read_progress(monitor.progress_path)
        stall = next(e for e in events if e["event"] == "stall")
        assert validate_progress(stall) == []
        assert stall["worker"] == emitter.worker
        assert stall["age"] > config.deadline
        assert stall["action"] == "warn"
        assert OBS.metrics.counter("obs.stall.detected") == 1
        assert "stalled" in capsys.readouterr().err

    def test_each_stalled_beat_is_flagged_once(self, tmp_path):
        monitor = SweepMonitor(
            tmp_path, total=2, config=LiveConfig(deadline=0.5)
        )
        monitor.heartbeat_dir.mkdir()
        self._stale_in_flight_worker(monitor.heartbeat_dir)
        monitor.tick(now=105.0)
        monitor.tick(now=106.0)  # same seq: not re-flagged
        events, _ = read_progress(monitor.progress_path)
        assert sum(e["event"] == "stall" for e in events) == 1
        assert OBS.metrics.counter("obs.stall.detected") == 1

    def test_idle_silence_is_not_a_stall(self, tmp_path):
        monitor = SweepMonitor(
            tmp_path, total=2, config=LiveConfig(deadline=0.5)
        )
        monitor.heartbeat_dir.mkdir()
        with clock.frozen(100.0):
            emitter = HeartbeatEmitter(monitor.heartbeat_dir, interval=0.0)
            emitter.job_started()
            emitter.job_finished()  # in_flight back to 0
        monitor.tick(now=1000.0)
        events, _ = read_progress(monitor.progress_path)
        assert all(e["event"] != "stall" for e in events)
        assert OBS.metrics.counter("obs.stall.detected") == 0

    def test_cancel_action_reaps_through_the_engine(self, tmp_path, capsys):
        class FakeEngine:
            calls = 0

            def terminate(self):
                self.calls += 1
                return True

        engine = FakeEngine()
        monitor = SweepMonitor(
            tmp_path,
            total=2,
            config=LiveConfig(deadline=0.5, action="cancel", max_reaps=1),
            engine=engine,
        )
        monitor.heartbeat_dir.mkdir()
        self._stale_in_flight_worker(monitor.heartbeat_dir)
        monitor.tick(now=105.0)
        assert engine.calls == 1
        assert monitor.consume_reap()
        assert not monitor.consume_reap()  # one-shot
        assert OBS.metrics.counter("obs.stall.reaped") == 1


class TestMonitoredMap:
    class _Reaper:
        """Monitor stub: approve exactly ``reaps`` broken-pool retries."""

        def __init__(self, reaps):
            self.reaps = reaps

        def consume_reap(self):
            if self.reaps > 0:
                self.reaps -= 1
                return True
            return False

    class _BreakOnceEngine:
        """Breaks mid-map once, like a reaped pool, then runs clean."""

        def __init__(self, break_after):
            self.break_after = break_after
            self.attempts = 0

        def map(self, fn, payloads):
            from concurrent.futures.process import BrokenProcessPool

            first = self.attempts == 0
            self.attempts += 1
            for index, payload in enumerate(payloads):
                if first and index == self.break_after:
                    raise BrokenProcessPool("reaped")
                yield fn(payload)

    def test_resubmits_the_unyielded_suffix_exactly_once(self):
        engine = self._BreakOnceEngine(break_after=2)
        results = list(
            monitored_map(
                engine, lambda p: p * 10, [1, 2, 3, 4], self._Reaper(1)
            )
        )
        assert results == [10, 20, 30, 40]
        assert engine.attempts == 2

    def test_genuine_pool_breakage_reraises(self):
        from concurrent.futures.process import BrokenProcessPool

        engine = self._BreakOnceEngine(break_after=0)
        with pytest.raises(BrokenProcessPool):
            list(
                monitored_map(
                    engine, lambda p: p, [1, 2], self._Reaper(0)
                )
            )


def _hang_until_reaped(payload):
    """Pool worker fn: hang (with one in-flight heartbeat) on the first
    attempt, then return normally on resubmission."""
    marker = pathlib.Path(payload["marker"])
    if not marker.exists():
        marker.touch()
        emitter = HeartbeatEmitter(payload["heartbeats"], interval=0.0)
        emitter.job_started("job:hang")
        time.sleep(120)  # reaped long before this expires
    return {"key": payload["key"], "value": payload["key"] * 2}


class TestReapAndResubmitEndToEnd:
    def test_watchdog_cancels_a_hung_pool_and_the_sweep_completes(
        self, tmp_path, capsys
    ):
        from repro.runner.engines import ProcessPoolEngine

        engine = ProcessPoolEngine(workers=2, chunksize=1)
        config = LiveConfig(
            poll=0.05, deadline=0.4, action="cancel", max_reaps=1
        )
        monitor = SweepMonitor(tmp_path, total=3, config=config, engine=engine)
        payloads = [
            {
                "key": key,
                "marker": str(tmp_path / "hang-attempted"),
                "heartbeats": str(tmp_path / "heartbeats"),
            }
            for key in (1, 2, 3)
        ]
        monitor.start()
        try:
            results = list(
                monitored_map(engine, _hang_until_reaped, payloads, monitor)
            )
        finally:
            monitor.stop()
        assert sorted(r["key"] for r in results) == [1, 2, 3]
        assert all(r["value"] == r["key"] * 2 for r in results)
        assert monitor.reaped == 1
        events, _ = read_progress(monitor.progress_path)
        stall = next(e for e in events if e["event"] == "stall")
        assert stall["action"] == "cancel"
        assert "stalled" in capsys.readouterr().err


class TestRunSweepLiveIntegration:
    @pytest.fixture
    def sweep(self):
        from repro.runner import SweepSpec

        return SweepSpec(shapes=((3,), (4,)), models=("blackboard",))

    def _stripped(self, path):
        return [
            {k: v for k, v in json.loads(line).items() if k != "elapsed"}
            for line in path.read_text().splitlines()
        ]

    def test_records_byte_identical_with_live_on_and_off(
        self, tmp_path, sweep
    ):
        from repro.runner import run_sweep

        clear_memo()
        run_sweep(
            sweep,
            run_dir=tmp_path / "off",
            warehouse=False,
        )
        clear_memo()
        run_sweep(
            sweep,
            run_dir=tmp_path / "on",
            warehouse=False,
            live={"interval": 0.0, "poll": 0.05},
        )
        assert self._stripped(
            tmp_path / "off" / "records.jsonl"
        ) == self._stripped(tmp_path / "on" / "records.jsonl")
        assert not (tmp_path / "off" / "progress.jsonl").exists()
        events, _ = read_progress(tmp_path / "on" / "progress.jsonl")
        assert events[0]["event"] == "start"
        assert events[-1]["event"] == "end"
        assert events[-1]["completed"] == events[-1]["total"]
        for event in events:
            assert validate_progress(event) == [], event
        # The serial engine's in-process jobs left no emitter behind.
        assert LIVE.emitter is None

    def test_engine_invariant_counters_unchanged_by_live(
        self, tmp_path, sweep
    ):
        from repro.obs import reset_telemetry
        from repro.runner import run_sweep

        def invariant():
            counters = OBS.metrics.snapshot()["counters"]
            return {
                "runner.jobs": counters.get("runner.jobs", 0),
                "chain.compile.total": sum(
                    value for name, value in counters.items()
                    if name.startswith("chain.compile.")
                ),
            }

        configure_tracing(True)
        clear_memo()
        run_sweep(sweep, run_dir=tmp_path / "off", warehouse=False)
        plain = invariant()

        reset_telemetry()
        configure_tracing(True)
        clear_memo()
        run_sweep(
            sweep,
            run_dir=tmp_path / "on",
            warehouse=False,
            live={"interval": 0.0, "poll": 0.05},
        )
        live = invariant()
        assert plain == live
        assert live["runner.jobs"] == 2

    def test_live_without_run_dir_is_a_no_op(self, sweep):
        from repro.runner import run_sweep

        clear_memo()
        outcome = run_sweep(sweep, live=True)
        assert outcome.executed == 2

    def test_resumed_live_sweep_reports_resumed_jobs(self, tmp_path, sweep):
        from repro.runner import run_sweep

        clear_memo()
        run_sweep(sweep, run_dir=tmp_path / "run", warehouse=False)
        clear_memo()
        run_sweep(
            sweep,
            run_dir=tmp_path / "run",
            warehouse=False,
            live={"interval": 0.0, "poll": 0.05},
        )
        events, _ = read_progress(tmp_path / "run" / "progress.jsonl")
        assert events[0]["resumed"] == 2
        assert events[-1]["completed"] == 2
