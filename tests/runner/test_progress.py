"""``run_sweep``'s progress callback.

``progress(record, completed, total)`` is called once per fresh record,
in the order records land in ``records.jsonl``; ``completed`` counts the
resumed jobs too, so a finished sweep's last call has
``completed == total`` on every dispatch path (per job or grouped,
serial or pooled).  The callback never touches the record path.
"""

import json

import pytest

from repro.chain import clear_memo
from repro.runner import ProcessPoolEngine, SerialEngine, SweepSpec, run_sweep

SWEEPS = {
    # Ten exact jobs: dispatched as grouped payloads.
    "exact-grouped": lambda: SweepSpec.for_total_size(
        4, models=("blackboard", "clique")
    ),
    # One exact job: dispatched per job (nothing to group).
    "exact-single": lambda: SweepSpec(shapes=((1, 2),)),
    # Monte-Carlo jobs: always dispatched per job.
    "sample": lambda: SweepSpec.for_total_size(
        3, kind="sample", samples=200, t=3
    ),
}

ENGINES = {
    "serial": SerialEngine,
    "process": lambda: ProcessPoolEngine(workers=2),
}


class _Spy:
    """A progress callback that remembers every call."""

    def __init__(self):
        self.calls: list[tuple[dict, int, int]] = []

    def __call__(self, record, completed, total):
        self.calls.append((record, completed, total))

    @property
    def counts(self):
        return [(completed, total) for _, completed, total in self.calls]

    @property
    def keys(self):
        return [record["key"] for record, _, _ in self.calls]


def _strip_timing(records):
    return [
        {key: value for key, value in record.items() if key != "elapsed"}
        for record in records
    ]


def _logged(run_dir):
    return [
        json.loads(line)
        for line in (run_dir / "records.jsonl").read_text().splitlines()
    ]


@pytest.fixture(autouse=True)
def _cold_memo():
    # A warm compile memo changes nothing the callback sees, but keeping
    # every sweep cold makes each test independent of its neighbours.
    clear_memo()
    yield
    clear_memo()


class TestFreshSweeps:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_completed_runs_from_one_to_total(self, sweep, engine,
                                              tmp_path):
        spec = SWEEPS[sweep]()
        total = len(spec.expand())
        spy = _Spy()
        run_sweep(spec, engine=ENGINES[engine](), run_dir=tmp_path / "run",
                  progress=spy)
        assert spy.counts == [(k, total) for k in range(1, total + 1)]

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_each_fresh_record_is_reported_once(self, sweep, tmp_path):
        spy = _Spy()
        outcome = run_sweep(SWEEPS[sweep](), engine=SerialEngine(),
                            run_dir=tmp_path / "run", progress=spy)
        assert sorted(spy.keys) == sorted(r["key"] for r in outcome.records)
        assert len(set(spy.keys)) == len(spy.keys) == outcome.executed
        reported = sorted(
            (record for record, _, _ in spy.calls), key=lambda r: r["index"]
        )
        assert reported == outcome.records

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_calls_follow_the_records_log(self, sweep, tmp_path):
        run = tmp_path / "run"
        spy = _Spy()
        run_sweep(SWEEPS[sweep](), engine=SerialEngine(), run_dir=run,
                  progress=spy)
        assert spy.keys == [record["key"] for record in _logged(run)]

    def test_without_a_run_directory_every_job_is_counted(self):
        spec = SWEEPS["exact-grouped"]()
        spy = _Spy()
        outcome = run_sweep(spec, engine=SerialEngine(), progress=spy)
        total = len(spec.expand())
        assert outcome.resumed == 0
        assert spy.counts == [(k, total) for k in range(1, total + 1)]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_records_identical_with_and_without_a_callback(self, engine,
                                                           tmp_path):
        spec = SWEEPS["exact-grouped"]()
        run_sweep(spec, engine=ENGINES[engine](),
                  run_dir=tmp_path / "plain")
        clear_memo()
        run_sweep(spec, engine=ENGINES[engine](),
                  run_dir=tmp_path / "watched", progress=_Spy())
        assert _strip_timing(_logged(tmp_path / "plain")) == _strip_timing(
            _logged(tmp_path / "watched")
        )


class TestResumedSweeps:
    @staticmethod
    def _truncated_run(run, keep, warehouse):
        """A finished ten-job sweep whose log is cut to ``keep`` lines."""
        run_sweep(SWEEPS["exact-grouped"](), engine=SerialEngine(),
                  run_dir=run, warehouse=warehouse)
        records = run / "records.jsonl"
        lines = records.read_text().splitlines(keepends=True)
        assert len(lines) == 10
        records.write_text("".join(lines[:keep]))
        clear_memo()

    @pytest.mark.parametrize("warehouse", [None, False],
                             ids=["warehouse", "no-warehouse"])
    @pytest.mark.parametrize("keep", [0, 1, 6, 9])
    def test_completed_starts_after_the_resumed_jobs(self, keep, warehouse,
                                                     tmp_path):
        run = tmp_path / "run"
        self._truncated_run(run, keep, warehouse)
        spy = _Spy()
        outcome = run_sweep(SWEEPS["exact-grouped"](), engine=SerialEngine(),
                            run_dir=run, warehouse=warehouse, progress=spy)
        assert outcome.resumed == keep
        assert spy.counts == [(k, 10) for k in range(keep + 1, 11)]

    def test_a_fully_resumed_sweep_makes_no_calls(self, tmp_path):
        run = tmp_path / "run"
        self._truncated_run(run, 10, False)
        spy = _Spy()
        outcome = run_sweep(SWEEPS["exact-grouped"](), engine=SerialEngine(),
                            run_dir=run, warehouse=False, progress=spy)
        assert outcome.executed == 0
        assert spy.calls == []

    def test_a_record_under_another_seed_is_not_counted_as_resumed(
        self, tmp_path
    ):
        run = tmp_path / "run"
        self._truncated_run(run, 6, False)
        records = run / "records.jsonl"
        lines = records.read_text().splitlines()
        stale = json.loads(lines[0])
        stale["seed"] += 1
        lines[0] = json.dumps(stale)
        records.write_text("\n".join(lines) + "\n")
        spy = _Spy()
        outcome = run_sweep(SWEEPS["exact-grouped"](), engine=SerialEngine(),
                            run_dir=run, warehouse=False, progress=spy)
        # The stale record is rerun: five resumed, five fresh.
        assert outcome.resumed == 5
        assert spy.counts == [(k, 10) for k in range(6, 11)]
        assert stale["key"] in spy.keys
