"""Warehouse retention: vacuuming fully ingested run directories."""

import pytest

from repro.results import ResultsStore
from repro.runner import RunDirectory, SweepSpec, run_sweep


@pytest.fixture
def run_dir(tmp_path):
    path = tmp_path / "run"
    sweep = SweepSpec(shapes=((1, 2), (3,)), models=("blackboard",))
    run_sweep(sweep, run_dir=path, warehouse=False)
    return path


@pytest.fixture
def store(tmp_path):
    return ResultsStore(tmp_path / "wh")


class TestVacuum:
    def test_removes_a_fully_ingested_directory(self, store, run_dir):
        assert store.ingest_run_directory(run_dir) > 0
        assert store.vacuum_run_directory(run_dir) == "removed"
        assert not run_dir.exists()
        # The warehouse still serves the records it certified.
        assert len(store.table("records")) > 0

    def test_accepts_a_run_directory_object(self, store, run_dir):
        directory = RunDirectory(run_dir)
        store.ingest_run_directory(directory)
        assert store.vacuum_run_directory(directory) == "removed"
        assert not run_dir.exists()

    def test_refuses_uningested_records(self, store, run_dir):
        store.ingest_run_directory(run_dir)
        with (run_dir / "records.jsonl").open("a") as handle:
            handle.write('{"index": 99}\n')
        assert store.vacuum_run_directory(run_dir) == "not-covered"
        assert run_dir.exists()

    def test_refuses_a_torn_trailing_line(self, store, run_dir):
        # run_directory_records tolerates a torn tail; vacuum must not,
        # because deleting would destroy the only copy of those bytes.
        store.ingest_run_directory(run_dir)
        with (run_dir / "records.jsonl").open("a") as handle:
            handle.write('{"index": 99')  # no newline
        assert store.run_directory_records(run_dir) is not None
        assert store.vacuum_run_directory(run_dir) == "not-covered"
        assert run_dir.exists()

    def test_refuses_an_out_of_band_shrink(self, store, run_dir):
        store.ingest_run_directory(run_dir)
        records = run_dir / "records.jsonl"
        records.write_text(records.read_text()[:10])
        assert store.vacuum_run_directory(run_dir) == "not-covered"
        assert run_dir.exists()

    def test_missing_records_is_reported_not_deleted(self, store, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "keepsake.txt").write_text("not a run directory")
        assert store.vacuum_run_directory(bare) == "missing"
        assert (bare / "keepsake.txt").exists()

    def test_never_deletes_its_own_warehouse(self, run_dir):
        store = ResultsStore(run_dir / "warehouse")
        store.ingest_run_directory(run_dir)
        assert store.vacuum_run_directory(run_dir) == "contains-warehouse"
        assert run_dir.exists()
        assert store.vacuum_run_directory(run_dir / "warehouse") == (
            "contains-warehouse"
        )

    def test_untouched_directory_is_not_covered(self, store, run_dir):
        assert store.vacuum_run_directory(run_dir) == "not-covered"
        assert run_dir.exists()
