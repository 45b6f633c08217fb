"""AppendLog: exact counts under concurrent writers, compaction safety."""

import json
import multiprocessing
import os
import select

import pytest

from repro.results import AppendLog
from repro.results import log as log_module


def fold_counts(state, events):
    counts = dict(state or {})
    for event in events:
        key = event["k"]
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestAppend:
    def test_append_and_load(self, tmp_path):
        log = AppendLog(tmp_path, "events")
        for key in ["a", "b", "a"]:
            assert log.append([{"k": key}])
        assert log.load(fold_counts) == {"a": 2, "b": 1}

    def test_interleaved_writers_never_lose_events(self, tmp_path):
        # Two independent handles (two processes in real life) append
        # turn by turn; the old read-modify-write sidecar lost one
        # writer's increment in exactly this pattern.
        first = AppendLog(tmp_path, "events")
        second = AppendLog(tmp_path, "events")
        for _ in range(25):
            first.append([{"k": "x"}])
            second.append([{"k": "x"}])
        assert first.load(fold_counts) == {"x": 50}
        assert second.load(fold_counts) == {"x": 50}

    def test_interleaved_batched_writers_in_two_processes_never_lose_events(
        self, tmp_path
    ):
        # Each batch spans more than one PIPE_BUF-sized write, and the
        # two writers race; every line on disk must still be whole, and
        # none blank (neither writer may take the other's write in
        # progress for a torn line).
        context = multiprocessing.get_context("spawn")
        start = context.Barrier(2)
        writers = [
            context.Process(
                target=_append_batches, args=(tmp_path, name, start)
            )
            for name in ("x", "y")
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        log = AppendLog(tmp_path, "events")
        total = BATCHES * BATCH_EVENTS
        assert log.load(fold_counts) == {"x": total, "y": total}
        lines = log.log_path.read_text().splitlines()
        assert len(lines) == 2 * total
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        log = AppendLog(tmp_path, "events")
        log.append([{"k": "a"}])
        with log.log_path.open("a") as handle:
            handle.write('{"k": "tor')  # killed writer
        assert log.load(fold_counts) == {"a": 1}

    def test_torn_last_line_of_a_batch_loses_only_that_line(
        self, tmp_path, monkeypatch
    ):
        log = AppendLog(tmp_path, "events")
        assert log.append([{"k": "a"}])
        write = os.write

        def killed_mid_line(fd, data):
            # A writer killed three bytes before the end of its batch.
            write(fd, data[:-3])
            raise OSError("killed")

        monkeypatch.setattr(log_module.os, "write", killed_mid_line)
        assert not log.append([{"k": "b"}, {"k": "c"}, {"k": "d"}])
        assert log.load(fold_counts) == {"a": 1, "b": 1, "c": 1}
        monkeypatch.setattr(log_module.os, "write", write)
        assert log.append([{"k": "e"}])
        assert log.load(fold_counts) == {"a": 1, "b": 1, "c": 1, "e": 1}

    def test_append_after_a_torn_fragment_loses_only_the_fragment(
        self, tmp_path
    ):
        log = AppendLog(tmp_path, "events")
        log.append([{"k": "a"}])
        with log.log_path.open("a") as handle:
            handle.write('{"k": "tor')  # killed writer
        assert log.append([{"k": "b"}, {"k": "c"}])
        assert log.load(fold_counts) == {"a": 1, "b": 1, "c": 1}
        assert log.log_path.read_text().splitlines()[1] == '{"k": "tor'


class TestTornFragments:
    def test_healthy_log_gets_no_extra_bytes(self, tmp_path, writes):
        log = AppendLog(tmp_path, "events")
        assert log.append([{"k": "a"}])
        assert log.append([{"k": "b"}, {"k": "c"}])
        assert writes == [b'{"k": "a"}\n', b'{"k": "b"}\n{"k": "c"}\n']
        assert log.log_path.read_bytes() == b"".join(writes)

    def test_the_ending_newline_rides_the_first_write(self, tmp_path, writes):
        log = AppendLog(tmp_path, "events")
        log.log_path.write_bytes(b'{"k": "tor')
        assert log.append([{"k": "b"}])
        assert writes == [b'\n{"k": "b"}\n']

    def test_a_full_first_write_sends_the_newline_alone(self, tmp_path, writes):
        log = AppendLog(tmp_path, "events")
        log.log_path.write_bytes(b'{"k": "tor')
        big = {"k": "big", "pad": "x" * select.PIPE_BUF}
        assert log.append([big])
        assert writes[0] == b"\n" and len(writes) == 2
        assert log.load(fold_counts) == {"big": 1}


@pytest.fixture
def writes(monkeypatch):
    """The bytes of every ``os.write`` the log makes, in order."""
    seen = []
    write = os.write

    def recording(fd, data):
        seen.append(bytes(data))
        return write(fd, data)

    monkeypatch.setattr(log_module.os, "write", recording)
    return seen


class TestBatchedWrites:
    def test_large_batch_splits_into_whole_line_writes(self, tmp_path, writes):
        log = AppendLog(tmp_path, "events")
        events = [{"k": f"key-{i:04d}", "pad": "x" * 40} for i in range(300)]
        assert log.append(events)
        assert len(writes) > 1
        assert sum(map(len, writes)) > select.PIPE_BUF
        for data in writes:
            assert len(data) <= select.PIPE_BUF
            assert data.endswith(b"\n")
        lines = b"".join(writes).decode().splitlines()
        assert [json.loads(line) for line in lines] == events
        assert log.log_path.read_bytes() == b"".join(writes)

    def test_batch_fills_each_write(self, tmp_path, writes):
        # As few writes as the bound allows: a write and the next line
        # together would pass PIPE_BUF.
        events = [{"k": f"key-{i:04d}"} for i in range(1000)]
        assert AppendLog(tmp_path, "events").append(events)
        line = len(json.dumps(events[0], sort_keys=True)) + 1
        for data in writes[:-1]:
            assert len(data) + line > select.PIPE_BUF

    def test_oversized_line_goes_down_alone(self, tmp_path, writes):
        log = AppendLog(tmp_path, "events")
        big = {"k": "big", "pad": "x" * select.PIPE_BUF}
        assert log.append([{"k": "a"}, big, {"k": "b"}])
        assert len(writes) == 3 and len(writes[1]) > select.PIPE_BUF
        assert log.load(fold_counts) == {"a": 1, "big": 1, "b": 1}

    def test_empty_batch_writes_nothing(self, tmp_path):
        log = AppendLog(tmp_path, "events")
        assert log.append([])
        assert not log.log_path.exists()


#: Batches per writer process, and events per batch (4.4 KB of lines,
#: so each batch takes two writes).
BATCHES = 50
BATCH_EVENTS = 400


def _append_batches(directory, name, start):
    log = AppendLog(directory, "events")
    start.wait(timeout=60)
    for _ in range(BATCHES):
        assert log.append([{"k": name}] * BATCH_EVENTS)


class TestCompaction:
    def test_compact_preserves_counts(self, tmp_path):
        log = AppendLog(tmp_path, "events")
        for key in ["a", "a", "b"]:
            log.append([{"k": key}])
        assert log.compact(fold_counts) == {"a": 2, "b": 1}
        assert not log.log_path.exists()  # rotated away
        assert log.load(fold_counts) == {"a": 2, "b": 1}

    def test_compact_is_idempotent(self, tmp_path):
        log = AppendLog(tmp_path, "events")
        for _ in range(3):
            log.append([{"k": "a"}])
        assert log.compact(fold_counts) == {"a": 3}
        assert log.compact(fold_counts) == {"a": 3}
        assert log.compact(fold_counts) == {"a": 3}
        # Segments folded in one cycle are deleted the next.
        assert log.segment_paths() == []

    def test_appends_between_compactions_accumulate(self, tmp_path):
        log = AppendLog(tmp_path, "events")
        log.append([{"k": "a"}])
        log.compact(fold_counts)
        log.append([{"k": "a"}])
        assert log.load(fold_counts) == {"a": 2}
        assert log.compact(fold_counts) == {"a": 2}

    def test_crash_before_snapshot_refolds_cleanly(self, tmp_path):
        # A compaction that rotated the log but died before writing the
        # snapshot leaves an unfolded segment; the next compaction folds
        # it exactly once (the snapshot is the sole commit point).
        log = AppendLog(tmp_path, "events")
        log.append([{"k": "a"}])
        (tmp_path / "events-000-crash.seg").write_text('{"k": "a"}\n')
        assert log.load(fold_counts) == {"a": 2}
        assert log.compact(fold_counts) == {"a": 2}
        assert log.compact(fold_counts) == {"a": 2}

    def test_legacy_flat_snapshot_migrates(self, tmp_path):
        # An old-format sidecar (the whole document is the state) reads
        # as the initial state and upgrades on the next compaction.
        (tmp_path / "events.json").write_text(json.dumps({"a": 7}))
        log = AppendLog(tmp_path, "events")
        log.append([{"k": "a"}])
        assert log.load(fold_counts) == {"a": 8}
        assert log.compact(fold_counts) == {"a": 8}
        raw = json.loads((tmp_path / "events.json").read_text())
        assert set(raw) == {"state", "folded"}

    def test_folded_segment_still_on_disk_is_never_recounted(self, tmp_path):
        # A segment the snapshot already folded (deletion pending or
        # failed) must not contribute again -- not to reads, not to the
        # next compaction.
        log = AppendLog(tmp_path, "events")
        log.append([{"k": "a"}])
        log.compact(fold_counts)
        folded = json.loads((tmp_path / "events.json").read_text())["folded"]
        assert len(folded) == 1
        # Resurrect the folded segment as if its unlink had failed.
        (tmp_path / folded[0]).write_text('{"k": "a"}\n')
        assert log.load(fold_counts) == {"a": 1}
        assert log.compact(fold_counts) == {"a": 1}

    def test_clear_removes_everything(self, tmp_path):
        log = AppendLog(tmp_path, "events")
        log.append([{"k": "a"}])
        log.compact(fold_counts)
        log.append([{"k": "b"}])
        log.clear()
        assert log.load(fold_counts) == {}
