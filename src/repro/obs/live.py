"""In-flight telemetry: worker heartbeats, progress events, stall watchdog.

The collection substrate (:mod:`repro.obs.metrics`, the cross-process
fold in :mod:`repro.obs.profile`) answers "what happened" *after* a
sweep drains.  This module answers "what is happening" while it runs,
without touching a single record byte:

* **Heartbeats** -- each worker appends small JSON events to its own
  ``heartbeats/<worker>.log`` in the run directory, through the same
  atomic :class:`~repro.results.log.AppendLog` primitive the query memo
  uses (one event = one ``O_APPEND`` write; concurrent writers never
  tear).  A beat carries a freezable wall stamp, a monotonic stamp,
  the worker's phase, jobs started/finished, a **counter delta** since
  its previous beat (folding deltas sums to the worker's counters --
  the counter merge law), and a resource reading
  (:mod:`repro.obs.resources`).  Beats are emitted at job boundaries,
  throttled to one per ``interval`` seconds -- a worker hung inside a
  job stops beating, which is exactly the signal the watchdog needs.
  Job *finish* beats are always written so the completed-work ledger
  is exact.
* **Progress** -- the sweep parent runs a :class:`SweepMonitor` (a
  daemon thread plus a synchronous :meth:`~SweepMonitor.tick` for
  deterministic tests) that folds the heartbeat logs into
  ``progress.jsonl``: schema-validated events (see
  ``progress.schema.json`` and :func:`repro.obs.schema.validate_progress`)
  with completed/total counts, throughput, ETA, and per-worker rows.
* **Stall watchdog** -- a worker whose newest heartbeat is older than
  the configured deadline *while it has a job in flight* is flagged:
  a ``stall`` event, a stderr warning, and the ``obs.stall.detected``
  counter.  With ``action="cancel"`` the monitor asks the engine to
  reap its pool; :func:`monitored_map` then resubmits every job not
  yet yielded -- deterministic, because job seeds derive from payload
  keys, never from which worker or attempt ran them.

The invariants inherited from the PR-6 substrate hold throughout:
heartbeat counter deltas are **never** merged into the process
registry (the record-path ``drain_telemetry`` fold remains the sole
source of engine-invariant counters, so the heartbeat fold nets to a
no-op against the end-of-run fold), and nothing here writes into
``records.jsonl`` -- records stay byte-identical with progress on or
off.

Like every ``repro.obs`` module this one imports nothing from the rest
of ``repro`` at module level but the stdlib-only :mod:`repro.context`
(the :class:`~repro.results.log.AppendLog` import is deferred), so any
tier can use it without cycles.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
import time
from dataclasses import dataclass

from ..context import current_context
from . import resources
from .clock import now as _wall_now

#: Run-directory file/dir names the live layer owns.  Both are run-dir
#: *metadata*: the warehouse never ingests them and ``repro results
#: vacuum`` does not require them to be covered (see STORE.md).
PROGRESS_NAME = "progress.jsonl"
HEARTBEAT_DIR = "heartbeats"

#: Event types a progress log may contain, in lifecycle order.
PROGRESS_EVENTS = ("start", "progress", "stall", "end")


@dataclass(frozen=True)
class LiveConfig:
    """Knobs for the heartbeat/monitor/watchdog loop.

    ``interval`` throttles worker beats; ``poll`` paces the monitor
    thread; ``deadline`` is the heartbeat age past which an in-flight
    worker counts as stalled; ``action`` is ``"warn"`` (flag only) or
    ``"cancel"`` (reap the pool and resubmit unfinished jobs, at most
    ``max_reaps`` times).  ``poll`` should not exceed ``deadline`` --
    the monitor then observes every stall within one deadline interval.
    """

    interval: float = 1.0
    poll: float = 1.0
    deadline: float = 30.0
    action: str = "warn"
    max_reaps: int = 1

    @classmethod
    def from_payload(cls, payload) -> "LiveConfig":
        """Build from a ``LiveConfig``, a plain dict, or ``None``."""
        if payload is None:
            return cls()
        if isinstance(payload, LiveConfig):
            return payload
        known = {
            key: payload[key]
            for key in (
                "interval", "poll", "deadline", "action", "max_reaps"
            )
            if key in payload
        }
        return cls(**known)


# ----------------------------------------------------------------------
# Worker side: the heartbeat emitter
# ----------------------------------------------------------------------
class HeartbeatEmitter:
    """Appends this process's heartbeat events to its own log file.

    One emitter per (worker process, heartbeat directory); the log file
    is ``<directory>/worker-<pid>.log`` so pool workers never share a
    file (and the atomic append makes even that safe).  All emission is
    throttled through :meth:`beat` except job-finish beats, which are
    forced: the jobs-finished ledger must be exact for progress counts
    and so an idle worker is never mistaken for a stalled one.
    """

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        interval: float = 1.0,
        worker: "str | None" = None,
    ):
        from ..results.log import AppendLog

        self.directory = str(directory)
        self.interval = float(interval)
        self.pid = os.getpid()
        self.worker = worker or f"worker-{self.pid}"
        self.log = AppendLog(directory, self.worker)
        self.seq = 0
        self.phase = "idle"
        self.jobs_started = 0
        self.jobs_finished = 0
        self._last_beat = -float("inf")
        self._last_counters: dict[str, int] = {}
        # Announce liveness immediately: the monitor sees every worker
        # from its first payload, not its first finished job.
        self.beat(force=True)

    # -- emission ------------------------------------------------------
    def beat(self, force: bool = False) -> bool:
        """Maybe append one heartbeat event; ``True`` if written.

        Throttled to one event per ``interval`` seconds unless
        ``force``.  The counter payload is the *delta* since this
        emitter's previous beat (a drained/reset registry restarts the
        baseline), so summing a worker's deltas reproduces its counter
        totals -- same merge law as everything else.  The deltas are a
        live view only; they are never folded back into the process
        registry, which keeps the end-of-run telemetry fold untouched.
        """
        mono = time.monotonic()
        if not force and mono - self._last_beat < self.interval:
            return False
        self._last_beat = mono
        self.seq += 1
        event = {
            "worker": self.worker,
            "pid": self.pid,
            "seq": self.seq,
            "stamp": _wall_now(),
            "monotonic": mono,
            "phase": self.phase,
            "jobs_started": self.jobs_started,
            "jobs_finished": self.jobs_finished,
            "counters": self._counter_delta(),
            "resources": resources.sample(),
        }
        return self.log.append(event)

    def _counter_delta(self) -> dict:
        """Counter movement since the previous beat (always >= 0)."""
        from . import OBS

        current = (
            OBS.metrics.snapshot()["counters"] if OBS.enabled else {}
        )
        delta = {}
        for name, value in current.items():
            previous = self._last_counters.get(name, 0)
            # A drain (the record-path fold) resets the registry mid-
            # stream; the whole new accumulation is then the delta.
            moved = value - previous if value >= previous else value
            if moved:
                delta[name] = moved
        self._last_counters = current
        return delta

    # -- job lifecycle hooks (called by the runner's worker functions) --
    def job_started(self, phase: str = "job", count: int = 1) -> None:
        """Record ``count`` jobs entering execution; maybe beat."""
        self.jobs_started += count
        self.phase = phase
        self.beat()

    def job_finished(self, count: int = 1) -> None:
        """Record ``count`` jobs completed; always beats."""
        self.jobs_finished += count
        self.phase = "idle"
        self.beat(force=True)

    def pulse(self, phase: "str | None" = None) -> None:
        """Cheap mid-job liveness: update the phase, maybe beat."""
        if phase is not None:
            self.phase = phase
        self.beat()


class _LiveFacade:
    """The heartbeat emitter of the current context (``None`` = off).

    ``LIVE.emitter`` reads the current
    :class:`~repro.context.ExecutionContext`'s ``heartbeat`` field.  The
    emitter built for a directory is kept while contexts keep naming
    it, so its seq/job counters span a whole sweep, not one payload; a
    forked child (new pid) builds its own.
    """

    __slots__ = ("_emitter",)

    def __init__(self) -> None:
        self._emitter: "HeartbeatEmitter | None" = None

    @property
    def emitter(self) -> "HeartbeatEmitter | None":
        heartbeat = current_context().heartbeat
        if heartbeat is None:
            return None
        directory, interval = heartbeat
        emitter = self._emitter
        if (
            emitter is None
            or emitter.directory != directory
            or emitter.pid != os.getpid()
        ):
            emitter = self._emitter = HeartbeatEmitter(
                directory, interval=interval
            )
        emitter.interval = interval
        return emitter

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LIVE(heartbeat={current_context().heartbeat})"


#: The live-telemetry facade the worker functions check.
LIVE = _LiveFacade()


# ----------------------------------------------------------------------
# Read-back: folding heartbeat logs into per-worker state
# ----------------------------------------------------------------------
def read_heartbeats(directory: "str | os.PathLike[str]") -> dict:
    """Fold every worker's heartbeat log into its latest state.

    Returns ``{worker: state}`` where ``state`` is the newest event's
    scalar fields plus ``counters`` summed over *all* of that worker's
    deltas (the fold half of the delta law).  Unreadable or torn lines
    are skipped, exactly like every append-log reader.
    """
    from ..results.log import AppendLog

    root = pathlib.Path(directory)
    if not root.is_dir():
        return {}
    folded: dict[str, dict] = {}
    for path in sorted(root.glob("*.log")):
        events = AppendLog._read_events(path)
        if not events:
            continue
        latest: "dict | None" = None
        totals: dict[str, int] = {}
        for event in events:
            for name, value in (event.get("counters") or {}).items():
                totals[name] = totals.get(name, 0) + int(value)
            if latest is None or event.get("seq", 0) >= latest.get(
                "seq", 0
            ):
                latest = event
        if latest is None:
            continue
        worker = str(latest.get("worker", path.stem))
        folded[worker] = {**latest, "counters": totals}
    return folded


def worker_status(
    directory: "str | os.PathLike[str]", now: "float | None" = None
) -> "list[dict]":
    """Per-worker live status rows, sorted by worker name.

    Each row is the folded heartbeat state plus ``age`` (seconds since
    the worker's newest beat, by the freezable wall clock) and
    ``in_flight`` (jobs started minus finished as of that beat).
    """
    now = _wall_now() if now is None else float(now)
    rows = []
    folded = read_heartbeats(directory)
    for worker in sorted(folded):
        state = folded[worker]
        rows.append(
            {
                **state,
                "age": max(0.0, now - float(state.get("stamp", now))),
                "in_flight": int(state.get("jobs_started", 0))
                - int(state.get("jobs_finished", 0)),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Progress log
# ----------------------------------------------------------------------
def append_progress(
    path: "str | os.PathLike[str]", event: dict
) -> bool:
    """Append one progress event: a single ``O_APPEND`` write.

    Same atomicity contract as :class:`~repro.results.log.AppendLog`
    (whole lines, never torn), without the fold/compact machinery a
    single-writer event stream does not need.  Best-effort: a full
    disk degrades to ``False``, never an exception.
    """
    line = json.dumps(event, sort_keys=True) + "\n"
    try:
        fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
    except OSError:
        return False
    try:
        os.write(fd, line.encode("utf-8"))
    except OSError:
        return False
    finally:
        os.close(fd)
    return True


def read_progress(
    path: "str | os.PathLike[str]", offset: int = 0
) -> "tuple[list[dict], int]":
    """Parsed events from byte ``offset`` on, plus the new offset.

    Only complete lines are consumed -- a torn tail (a writer mid-
    append) stays unread until its newline lands, so followers
    (``repro obs tail --follow``) can poll with the returned offset
    and never see a half event.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except OSError:
        return [], offset
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    events = []
    for raw in data[: end + 1].splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except ValueError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events, offset + end + 1


def format_progress_event(event: dict) -> str:
    """One human line per progress event (``repro obs tail``)."""
    kind = str(event.get("event", "?"))
    completed = event.get("completed", 0)
    total = event.get("total", 0)
    if kind == "start":
        resumed = event.get("resumed", 0)
        note = f" ({resumed} resumed)" if resumed else ""
        return f"[start] {completed}/{total} jobs{note}"
    if kind == "stall":
        return (
            f"[stall] {event.get('worker', '?')}: heartbeat age "
            f"{float(event.get('age', 0.0)):.1f}s > deadline "
            f"{float(event.get('deadline', 0.0)):.1f}s "
            f"({event.get('action', 'warn')})"
        )
    if kind == "end":
        return (
            f"[end] {completed}/{total} jobs in "
            f"{float(event.get('elapsed', 0.0)):.2f}s"
        )
    parts = [f"[progress] {completed}/{total} jobs"]
    if "throughput" in event:
        parts.append(f"{float(event['throughput']):.2f}/s")
    if "eta" in event:
        parts.append(f"eta {float(event['eta']):.1f}s")
    workers = event.get("workers")
    if workers:
        parts.append(f"workers {len(workers)}")
    return "  ".join(parts)


# ----------------------------------------------------------------------
# Parent side: the sweep monitor and stall watchdog
# ----------------------------------------------------------------------
#: Heartbeat fields a progress event's per-worker rows carry (the
#: progress schema's ``worker`` shape; resource fields are hoisted out
#: of the nested reading).
_WORKER_ROW_FIELDS = (
    "worker", "phase", "jobs_started", "jobs_finished", "seq"
)


class SweepMonitor:
    """Folds heartbeats into progress events and watches for stalls.

    The sweep parent constructs one per live run, calls :meth:`start`
    (which writes the ``start`` event and launches a daemon thread
    ticking every ``config.poll`` seconds), feeds it each fresh record
    via :meth:`note_record`, and calls :meth:`stop` in its ``finally``
    (final tick + ``end`` event).  :meth:`tick` is public and
    synchronous so tests can drive the monitor deterministically under
    a frozen clock, without the thread.

    The watchdog flags a worker when its newest heartbeat is older
    than ``config.deadline`` *and* that beat shows a job in flight --
    an idle worker's silence is not a stall.  Each stalled beat is
    flagged once (keyed by its seq); with ``action="cancel"`` the
    monitor also calls ``engine.terminate()`` (at most
    ``config.max_reaps`` times) and :func:`monitored_map` resubmits.
    """

    def __init__(
        self,
        run_dir: "str | os.PathLike[str]",
        total: int,
        config: "LiveConfig | None" = None,
        engine=None,
        resumed: int = 0,
    ):
        root = pathlib.Path(run_dir)
        self.progress_path = root / PROGRESS_NAME
        self.heartbeat_dir = root / HEARTBEAT_DIR
        self.total = int(total)
        self.config = config or LiveConfig()
        self.engine = engine
        self.resumed = int(resumed)
        self.reaped = 0
        self._completed = int(resumed)
        self._lock = threading.Lock()
        self._flagged: dict[str, int] = {}
        self._reap_requested = False
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._started_mono = time.monotonic()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Write the ``start`` event and launch the poll thread."""
        self.heartbeat_dir.mkdir(parents=True, exist_ok=True)
        append_progress(
            self.progress_path,
            {
                "event": "start",
                "stamp": _wall_now(),
                "completed": self._completed,
                "total": self.total,
                "resumed": self.resumed,
            },
        )
        self._thread = threading.Thread(
            target=self._run, name="sweep-monitor", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.config.poll):
            try:
                self.tick()
            except Exception:  # pragma: no cover - monitor never kills
                pass  # a sweep; next tick retries

    def stop(self) -> None:
        """Final tick, ``end`` event, and thread join."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(1.0, self.config.poll * 2))
            self._thread = None
        try:
            self.tick()
        except Exception:  # pragma: no cover - same contract as _run
            pass
        append_progress(
            self.progress_path,
            {
                "event": "end",
                "stamp": _wall_now(),
                "completed": self._completed,
                "total": self.total,
                "elapsed": time.monotonic() - self._started_mono,
            },
        )

    # -- record accounting --------------------------------------------
    def note_record(self, record: dict) -> None:
        """Count one persisted record toward completed/total."""
        with self._lock:
            self._completed += 1

    @property
    def completed(self) -> int:
        with self._lock:
            return self._completed

    def consume_reap(self) -> bool:
        """Whether the watchdog just reaped the pool (clears the flag)."""
        with self._lock:
            requested = self._reap_requested
            self._reap_requested = False
        return requested

    # -- the monitor pass ---------------------------------------------
    def tick(self, now: "float | None" = None) -> dict:
        """One monitor pass: fold, watchdog, append; returns the event."""
        now = _wall_now() if now is None else float(now)
        statuses = worker_status(self.heartbeat_dir, now=now)
        self._watchdog(statuses, now)
        completed = self.completed
        event: dict = {
            "event": "progress",
            "stamp": now,
            "completed": completed,
            "total": self.total,
            "elapsed": time.monotonic() - self._started_mono,
            "workers": [self._worker_row(s) for s in statuses],
        }
        done_here = completed - self.resumed
        if done_here > 0 and event["elapsed"] > 0.0:
            throughput = done_here / event["elapsed"]
            event["throughput"] = throughput
            if completed < self.total and throughput > 0.0:
                event["eta"] = (self.total - completed) / throughput
        append_progress(self.progress_path, event)
        self._publish_worker_gauges(statuses)
        return event

    @staticmethod
    def _worker_row(status: dict) -> dict:
        row = {
            key: status[key]
            for key in _WORKER_ROW_FIELDS
            if key in status
        }
        row["age"] = float(status.get("age", 0.0))
        reading = status.get("resources") or {}
        for key in ("rss_peak", "cpu_seconds", "gc_collections"):
            if key in reading:
                row[key] = reading[key]
        return row

    def _publish_worker_gauges(self, statuses: "list[dict]") -> None:
        """Per-worker labeled resource gauges for the telemetry fold."""
        from . import OBS

        if not OBS.enabled:
            return
        for status in statuses:
            reading = status.get("resources") or {}
            source = str(status.get("worker", "?"))
            for key in ("rss_peak", "cpu_seconds"):
                if key in reading:
                    OBS.metrics.gauge(
                        f"worker.{key}", reading[key], source=source
                    )

    def _watchdog(self, statuses: "list[dict]", now: float) -> None:
        from . import OBS

        for status in statuses:
            age = float(status.get("age", 0.0))
            seq = int(status.get("seq", 0))
            worker = str(status.get("worker", "?"))
            if (
                age <= self.config.deadline
                or status.get("in_flight", 0) <= 0
                or self._flagged.get(worker) == seq
            ):
                continue
            self._flagged[worker] = seq
            OBS.metrics.inc("obs.stall.detected")
            append_progress(
                self.progress_path,
                {
                    "event": "stall",
                    "stamp": now,
                    "completed": self.completed,
                    "total": self.total,
                    "worker": worker,
                    "age": age,
                    "deadline": self.config.deadline,
                    "action": self.config.action,
                },
            )
            print(
                f"sweep: worker {worker} stalled (heartbeat age "
                f"{age:.1f}s > deadline {self.config.deadline:.1f}s; "
                f"{self.config.action})",
                file=sys.stderr,
            )
            if (
                self.config.action == "cancel"
                and self.reaped < self.config.max_reaps
                and callable(getattr(self.engine, "terminate", None))
            ):
                if self.engine.terminate():
                    self.reaped += 1
                    OBS.metrics.inc("obs.stall.reaped")
                    with self._lock:
                        self._reap_requested = True


def monitored_map(engine, fn, payloads: "list[dict]", monitor):
    """``engine.map`` with deterministic reap-and-resubmit on stalls.

    Engines yield results in payload order, so the yielded count is
    exactly the prefix of ``payloads`` that is done; when the watchdog
    reaps a stalled pool (``action="cancel"``), the broken-pool error
    surfaces here and every payload not yet yielded is resubmitted on
    a fresh pool.  Results are identical to an unreaped run because
    every job's seed derives from ``(master_seed, job_key)`` -- never
    from which worker, pool, or attempt executed it.  A pool that
    breaks for any *other* reason (a worker segfault, say) re-raises
    unchanged.
    """
    from concurrent.futures.process import BrokenProcessPool

    done = 0
    while True:
        try:
            for result in engine.map(fn, payloads[done:]):
                done += 1
                yield result
            return
        except BrokenProcessPool:
            if monitor is None or not monitor.consume_reap():
                raise
            # Reaped by the watchdog: everything yielded is persisted;
            # resubmit the rest (including the hung job) deterministically.


__all__ = [
    "HEARTBEAT_DIR",
    "HeartbeatEmitter",
    "LIVE",
    "LiveConfig",
    "PROGRESS_EVENTS",
    "PROGRESS_NAME",
    "SweepMonitor",
    "append_progress",
    "format_progress_event",
    "monitored_map",
    "read_heartbeats",
    "read_progress",
    "worker_status",
]
