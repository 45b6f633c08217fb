"""Persistence: JSONL streaming, resume-from-partial, manifest guards."""

import json

import pytest

from repro.analysis.report import result_to_dict
from repro.runner import RunDirectory, SerialEngine, SweepSpec, run_sweep


def _sweep(master_seed: int = 0) -> SweepSpec:
    return SweepSpec.for_total_size(
        4, models=("blackboard", "clique"), master_seed=master_seed
    )


class TestRunDirectory:
    def test_append_and_load(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.append({"key": "a", "index": 0})
        rd.append({"key": "b", "index": 1})
        assert rd.completed_keys() == {"a", "b"}

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.append({"key": "a", "index": 0})
        with rd.records_path.open("a") as handle:
            handle.write('{"key": "b", "ind')  # killed mid-write
        assert rd.completed_keys() == {"a"}

    def test_append_after_a_torn_line_keeps_every_record(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.append({"key": "a", "index": 0})
        with rd.records_path.open("a") as handle:
            handle.write('{"key": "b", "ind')  # killed mid-write
        rd.append({"key": "b", "index": 1}, {"key": "c", "index": 2})
        assert rd.completed_keys() == {"a", "b", "c"}

    def test_manifest_mismatch_rejected(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.write_manifest({"sweep": 1})
        rd.write_manifest({"sweep": 1})  # idempotent
        with pytest.raises(ValueError):
            rd.write_manifest({"sweep": 2})

    def test_torn_manifest_is_rewritten(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.manifest_path.write_text('{"sweep": 1, "jo')  # killed mid-write
        rd.write_manifest({"sweep": 1})
        assert rd.read_manifest() == {"sweep": 1}


class TestResume:
    def test_fresh_run_records_every_job(self, tmp_path):
        outcome = run_sweep(_sweep(), run_dir=tmp_path / "run")
        rd = RunDirectory(tmp_path / "run")
        assert len(rd.load_records()) == outcome.total
        assert outcome.executed == outcome.total
        assert outcome.resumed == 0

    def test_rerun_executes_nothing(self, tmp_path):
        run_sweep(_sweep(), run_dir=tmp_path / "run")
        again = run_sweep(_sweep(), run_dir=tmp_path / "run")
        assert again.executed == 0
        assert again.resumed == again.total

    def test_interrupted_run_completes_only_missing_jobs(self, tmp_path):
        full = run_sweep(_sweep(), run_dir=tmp_path / "full")
        # Simulate an interruption: keep only the first 3 completed jobs.
        partial = RunDirectory(tmp_path / "partial")
        for record in full.records[:3]:
            partial.append(record)
        resumed = run_sweep(_sweep(), run_dir=tmp_path / "partial")
        assert resumed.resumed == 3
        assert resumed.executed == resumed.total - 3
        assert json.dumps(result_to_dict(resumed.result()), sort_keys=True) == (
            json.dumps(result_to_dict(full.result()), sort_keys=True)
        )

    def test_resume_after_torn_line(self, tmp_path):
        full = run_sweep(_sweep(), run_dir=tmp_path / "full")
        partial = RunDirectory(tmp_path / "partial")
        for record in full.records[:2]:
            partial.append(record)
        with partial.records_path.open("a") as handle:
            handle.write(json.dumps(full.records[2])[: 40])
        resumed = run_sweep(_sweep(), run_dir=tmp_path / "partial")
        assert resumed.resumed == 2
        assert json.dumps(result_to_dict(resumed.result()), sort_keys=True) == (
            json.dumps(result_to_dict(full.result()), sort_keys=True)
        )

    def test_different_sweep_in_same_directory_is_an_error(self, tmp_path):
        run_sweep(_sweep(master_seed=0), run_dir=tmp_path / "run")
        with pytest.raises(ValueError):
            run_sweep(_sweep(master_seed=1), run_dir=tmp_path / "run")

    def test_cross_seed_records_are_not_resumed(self, tmp_path):
        # A records.jsonl without its manifest (e.g. hand-copied) must
        # not satisfy a sweep with a different master seed: the per-job
        # seed check forces those jobs to re-run.
        run_sweep(_sweep(master_seed=0), run_dir=tmp_path / "a")
        stale = RunDirectory(tmp_path / "a").records_path.read_text()
        b = RunDirectory(tmp_path / "b")
        b.records_path.write_text(stale)
        outcome = run_sweep(_sweep(master_seed=1), run_dir=tmp_path / "b")
        assert outcome.resumed == 0
        assert outcome.executed == outcome.total

    def test_resumed_records_reindex_to_this_sweeps_order(self, tmp_path):
        # Records copied from a sweep that declared its shapes in a
        # different order must aggregate in THIS sweep's job order.
        a = SweepSpec(shapes=((1, 2), (2, 2)))
        b = SweepSpec(shapes=((2, 2), (1, 2)))
        run_sweep(a, run_dir=tmp_path / "a")
        rd_b = RunDirectory(tmp_path / "b")
        rd_b.records_path.write_text(
            RunDirectory(tmp_path / "a").records_path.read_text()
        )
        outcome = run_sweep(b, run_dir=tmp_path / "b")
        assert outcome.resumed == 2 and outcome.executed == 0
        assert [row[0] for row in outcome.result().rows] == [(2, 2), (1, 2)]

    def test_records_stream_as_jobs_complete(self, tmp_path):
        rd_path = tmp_path / "run"
        seen: list[int] = []
        counts: list[tuple[int, int]] = []

        def spy(record, completed, total):
            rd = RunDirectory(rd_path)
            seen.append(len(rd.load_records()))
            counts.append((completed, total))

        run_sweep(
            _sweep(), engine=SerialEngine(), run_dir=rd_path, progress=spy
        )
        # After the k-th completion the log already holds at least k
        # records (a grouped result lands all its records in one write).
        total = len(seen)
        assert all(on_disk >= k for k, on_disk in enumerate(seen, 1))
        assert seen[-1] == total
        assert counts == [(k, total) for k in range(1, total + 1)]
