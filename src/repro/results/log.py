"""Append-only JSON event logs with fold-on-compact snapshots.

The cross-run query memo (:mod:`repro.results.memo`) is "many
concurrent writers, occasional reader" state.  A read-modify-write
sidecar file cannot keep it exact: two workers racing on the rewrite
silently drop one worker's update.

:class:`AppendLog` keeps it exact with one primitive:

* **append** -- a batch of events is written as whole JSON lines, one
  per event, in as few ``os.write`` calls to an ``O_APPEND`` descriptor
  as keep each write at most ``select.PIPE_BUF`` bytes.  POSIX
  guarantees the offset update and each write are atomic, so concurrent
  writers interleave whole lines and no event is ever lost or torn
  (events here are far below that bound; a single line above it goes
  down alone).  A writer killed mid-batch loses only the lines it had
  not written yet; a torn last line is skipped on read, and the next
  append ends it with a newline before writing (appenders hold an
  exclusive ``flock`` while they check the tail and write, so a live
  writer's line is never mistaken for a torn one).  Callers batch
  what one call produces: ``sample_range`` records its fresh blocks in
  one append at the end, so a killed call records none of them -- the
  memo is a cache, and the records it feeds are unaffected.
* **replay** -- readers fold the snapshot state plus every event not yet
  folded into it; the answer is exact whatever writers are doing.
* **compact** -- the live log rotates to an immutable segment file, all
  unfolded segments fold into a new snapshot (written atomically via
  temp file + ``os.replace``), and segments already recorded as folded
  are deleted.  Folding and deletion happen in *separate* compactions,
  so a writer that raced the rotation gets a full compaction cycle of
  grace; a crash between fold and snapshot write simply refolds the same
  events next time (the snapshot is the sole commit point, so nothing is
  double-counted).
"""

from __future__ import annotations

import fcntl
import json
import os
import pathlib
import select
import tempfile
import time


class AppendLog:
    """An append-only event log named ``<name>.log`` in a directory.

    Compaction maintains ``<name>.json`` -- ``{"state": <folded>,
    "folded": [segment names]}`` -- plus zero or more immutable
    ``<name>-*.seg`` rotation segments awaiting deletion.  A legacy
    snapshot that is *not* shaped like ``{"state": ..., "folded": ...}``
    is treated as the initial folded state with nothing folded, which
    migrates old sidecar formats in place on the next compaction.
    """

    def __init__(self, directory: "str | os.PathLike[str]", name: str):
        self.directory = pathlib.Path(directory)
        self.name = name

    @property
    def log_path(self) -> pathlib.Path:
        """The live append target."""
        return self.directory / f"{self.name}.log"

    @property
    def snapshot_path(self) -> pathlib.Path:
        """The folded-state snapshot."""
        return self.directory / f"{self.name}.json"

    def segment_paths(self) -> list[pathlib.Path]:
        """Rotated segments on disk, in rotation order."""
        return sorted(self.directory.glob(f"{self.name}-*.seg"))

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, events: "list[dict]") -> bool:
        """Durably append a batch of events; ``False`` if a write failed.

        The lines go down whole, packed into as few ``os.write`` calls
        as keep each write at most ``PIPE_BUF`` bytes, on one
        ``O_APPEND`` descriptor opened per call, so concurrent appenders
        -- including ones racing a compaction's rotation -- never lose
        or tear an event.  A file that ends mid-line (a writer died
        there) gets a newline before the batch, so only the fragment is
        lost; a healthy log's bytes are untouched.  The descriptor holds
        an exclusive ``flock`` for the call, so appenders write their
        batches one at a time and that tail check never sees another
        writer's write in progress.  Best-effort like
        every sidecar here: a full disk or a vanished directory degrades
        to ``False``, never an exception.
        """
        writes: list[bytes] = []
        pending = b""
        for event in events:
            line = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
            if pending and len(pending) + len(line) > select.PIPE_BUF:
                writes.append(pending)
                pending = b""
            pending += line
        if pending:
            writes.append(pending)
        if not writes:
            return True
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                self.log_path,
                os.O_RDWR | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        except OSError:
            return False
        try:
            # A writer that died mid-line left a fragment: end it first,
            # or the batch's first line would be glued onto it and lost.
            # Appenders take turns, so the last byte read here is never
            # inside a line another writer is still copying in (a
            # file's size grows page by page during one write).
            fcntl.flock(fd, fcntl.LOCK_EX)
            end = os.fstat(fd).st_size
            if end and os.pread(fd, 1, end - 1) != b"\n":
                if len(writes[0]) < select.PIPE_BUF:
                    writes[0] = b"\n" + writes[0]
                else:
                    writes.insert(0, b"\n")
            for chunk in writes:
                os.write(fd, chunk)
        except OSError:
            return False
        finally:
            os.close(fd)
        return True

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read_snapshot(self) -> tuple[object, list[str]]:
        """``(state, folded segment names)``; ``(None, [])`` when absent."""
        try:
            raw = json.loads(self.snapshot_path.read_text())
        except (OSError, ValueError):
            return None, []
        if (
            isinstance(raw, dict)
            and set(raw.keys()) == {"state", "folded"}
            and isinstance(raw["folded"], list)
        ):
            return raw["state"], [str(name) for name in raw["folded"]]
        # Legacy sidecar format: the whole document is the state.
        return raw, []

    @staticmethod
    def _read_events(path: pathlib.Path) -> list[dict]:
        """Events in one log/segment file; torn or junk lines skipped."""
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return []
        events = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                events.append(event)
        return events

    def pending_events(self) -> list[dict]:
        """Every event not yet folded into the snapshot."""
        _, folded = self._read_snapshot()
        events: list[dict] = []
        for path in self.segment_paths():
            if path.name not in folded:
                events.extend(self._read_events(path))
        events.extend(self._read_events(self.log_path))
        return events

    def load(self, fold) -> object:
        """The exact current state: snapshot plus unfolded events.

        ``fold(state, events)`` folds a batch of events into a state
        (``state`` may be ``None`` for "empty", ``events`` empty); it
        must treat event order across files as insignificant, which
        every user here does (counters and last-writer-wins maps of
        deterministic values).
        """
        state, _ = self._read_snapshot()
        return fold(state, self.pending_events())

    def tail_bytes(self) -> int:
        """Size of the live log (compaction-pressure heuristic)."""
        try:
            return self.log_path.stat().st_size
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, fold) -> object:
        """Fold pending events into a fresh snapshot; returns the state.

        Crash-safe and idempotent: segments fold exactly once (the
        snapshot's ``folded`` list is the ledger), the snapshot replace
        is atomic, and a compaction that dies anywhere re-runs cleanly.
        """
        state, folded = self._read_snapshot()
        # Phase 1: segments folded by a *previous* compaction have had
        # their grace cycle; delete them now.  One whose unlink fails
        # stays in the folded ledger so it is never counted twice.
        still_folded = []
        for path in self.segment_paths():
            if path.name in folded:
                try:
                    path.unlink()
                except OSError:
                    still_folded.append(path.name)
        # Phase 2: rotate the live log out from under new appends.
        if self.tail_bytes():
            rotated = self.directory / (
                f"{self.name}-{time.time_ns():020d}-{os.getpid()}.seg"
            )
            try:
                os.rename(self.log_path, rotated)
            except OSError:
                pass  # a concurrent compaction rotated first
        # Phase 3: fold everything not yet in the snapshot.
        newly_folded = []
        events: list[dict] = []
        for path in self.segment_paths():
            if path.name in folded:
                continue
            events.extend(self._read_events(path))
            newly_folded.append(path.name)
        state = fold(state, events)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=f"{self.name}.json", suffix=".tmp"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(
                    {"state": state, "folded": still_folded + newly_folded},
                    handle,
                    sort_keys=True,
                )
            os.replace(tmp, self.snapshot_path)
        except OSError:
            try:
                os.unlink(tmp)
            except (OSError, UnboundLocalError):
                pass
        return state

    def clear(self) -> None:
        """Remove the log, snapshot, and every segment (best-effort)."""
        for path in (
            [self.log_path, self.snapshot_path] + self.segment_paths()
        ):
            try:
                path.unlink()
            except OSError:
                pass


__all__ = ["AppendLog"]
