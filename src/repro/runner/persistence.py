"""Resumable run directories: one JSONL record per completed job.

A run directory's record of truth is two files:

* ``manifest.json`` -- the sweep spec (including master seed) and the
  expanded job-key list, written once when the directory is first used;
* ``records.jsonl`` -- one JSON object per *completed* job, appended and
  flushed as each job (or each group of jobs) finishes.

Resume is a pure set difference: re-running a sweep against an existing
directory skips every job whose key already appears in the log.  A
half-written trailing line (the signature of a killed process) is
tolerated and simply re-run; a manifest from a *different* sweep is a
hard error, because silently mixing records from two sweeps would
corrupt the aggregate.
"""

from __future__ import annotations

import json
import os
import pathlib


class RunDirectory:
    """A directory of streamed job records with resume bookkeeping."""

    MANIFEST = "manifest.json"
    RECORDS = "records.jsonl"

    def __init__(self, path: "str | pathlib.Path"):
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    @property
    def manifest_path(self) -> pathlib.Path:
        """Path of ``manifest.json``."""
        return self.path / self.MANIFEST

    @property
    def records_path(self) -> pathlib.Path:
        """Path of ``records.jsonl``."""
        return self.path / self.RECORDS

    def write_manifest(self, manifest: dict) -> None:
        """Write the manifest, or verify it matches the existing one.

        A torn manifest (crash during the initial write) is treated like
        a missing one and rewritten -- same crash-tolerance contract as
        the record log.  The write itself goes through a temp file and
        ``os.replace`` so it is atomic on POSIX.
        """
        if self.manifest_path.exists():
            try:
                existing = json.loads(self.manifest_path.read_text())
            except json.JSONDecodeError:
                existing = None
            if existing is not None:
                if existing != manifest:
                    raise ValueError(
                        f"run directory {self.path} belongs to a different "
                        "sweep (manifest mismatch); use a fresh directory"
                    )
                return
        tmp_path = self.manifest_path.with_suffix(".json.tmp")
        tmp_path.write_text(json.dumps(manifest, indent=2))
        os.replace(tmp_path, self.manifest_path)

    def read_manifest(self) -> dict | None:
        """The stored manifest, or ``None`` before the first write."""
        if not self.manifest_path.exists():
            return None
        return json.loads(self.manifest_path.read_text())

    def load_records(self) -> list[dict]:
        """All completed-job records, skipping any torn trailing line."""
        if not self.records_path.exists():
            return []
        records: list[dict] = []
        with self.records_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    # A torn line can only be the tail of an interrupted
                    # append; the job re-runs on resume.
                    continue
        return records

    def completed_keys(self) -> set[str]:
        """Job keys already recorded, by key alone.

        Note: ``run_sweep`` does NOT resume from this set directly -- it
        additionally checks each record's derived seed against the
        sweep's master seed, so records copied from a different-seed run
        are re-executed.  Use this only where key identity suffices.
        """
        return {
            record["key"]
            for record in self.load_records()
            if "key" in record
        }

    def append(self, *records: dict) -> None:
        """Append records in one write and flush; appended records
        survive a crash (a torn last line is skipped on load)."""
        data = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ).encode("utf-8")
        with self.records_path.open("a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    # A killed writer's fragment: end it, so it is
                    # skipped alone instead of swallowing our first line.
                    data = b"\n" + data
            handle.write(data)
            handle.flush()


__all__ = ["RunDirectory"]
