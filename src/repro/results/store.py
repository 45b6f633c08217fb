"""Append-only columnar results warehouse.

A warehouse is a directory of immutable **segments**.  Each segment is
one ``.npz`` of typed numpy column pages (int64 / float64 / bool pages
stored directly; string pages dictionary-encoded as an ``int32`` code
page plus a unicode value page) committed by an atomically-replaced JSON
manifest -- a segment without its manifest does not exist, so a crash
mid-write leaves at worst an ignored temp file.

Ingestion is **watermarked**: run directories stream one JSON record per
completed job into ``records.jsonl`` (:mod:`repro.runner.persistence`),
and :meth:`ResultsStore.ingest_run_directory` reads only the bytes past
the highest offset any existing segment covers, so re-ingesting after a
kill -- even one that struck between the segment write and nothing else
(there is nothing else; the segment name *is* the watermark) -- is
idempotent.  Torn trailing lines stay un-ingested until their record is
re-run and re-appended, exactly mirroring the run directory's own
resume semantics.

Compaction merges a table's segments into one and deletes the parts.
The merged manifest lists the member segments it ``replaces``; readers
skip any live segment another live manifest replaces, so a crash between
the merge write and the member deletion never double-counts a row, and
re-running compaction converges to the same single segment.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..obs import OBS
from .query import Table

#: Column kinds a schema may declare.
KINDS = ("int", "float", "bool", "str")

_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_}

#: Fixed schema of the ``records`` table (flattened sweep job records).
RECORD_COLUMNS: dict[str, str] = {
    "key": "str",
    "index": "int",
    "sizes": "str",
    "model": "str",
    "ports": "str",
    "task": "str",
    "kind": "str",
    "t": "int",
    "samples": "int",
    "replicate": "int",
    "seed": "int",
    "gcd": "int",
    "limit": "str",
    "limit_float": "float",
    "solvable": "bool",
    "estimate": "float",
    "successes": "int",
    "elapsed": "float",
    #: Non-conforming records round-trip through this raw-JSON column.
    "extra": "str",
}

_DEFAULTS = {"int": 0, "float": float("nan"), "bool": False, "str": ""}

_SPEC_FIELDS = (
    "sizes", "model", "ports", "task", "kind", "t", "samples", "replicate",
)


def source_id(path: "str | os.PathLike[str]") -> str:
    """Stable identity of an ingestion source (its resolved path)."""
    resolved = str(pathlib.Path(path).resolve())
    return hashlib.sha256(resolved.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Record flattening (JSONL job records <-> columnar rows)
# ----------------------------------------------------------------------
def flatten_record(record: object) -> dict:
    """One job record as a ``records``-schema row.

    A record that matches the worker's exact shape flattens losslessly
    into typed columns; anything else (hand-edited logs, foreign tools)
    keeps its full JSON in the ``extra`` column so
    :func:`unflatten_row` still round-trips it byte-for-byte.
    """
    row = {
        name: _DEFAULTS[kind] for name, kind in RECORD_COLUMNS.items()
    }
    try:
        spec = record["spec"]
        value = record["value"]
        if set(record) != {
            "key", "index", "spec", "seed", "gcd", "value", "elapsed"
        } or set(spec) != set(_SPEC_FIELDS):
            raise KeyError("non-canonical record shape")
        row.update(
            key=str(record["key"]),
            index=int(record["index"]),
            sizes=",".join(str(int(s)) for s in spec["sizes"]),
            model=str(spec["model"]),
            ports=str(spec["ports"]),
            task=str(spec["task"]),
            kind=str(spec["kind"]),
            t=int(spec["t"]),
            samples=int(spec["samples"]),
            replicate=int(spec["replicate"]),
            seed=int(record["seed"]),
            gcd=int(record["gcd"]),
            elapsed=float(record["elapsed"]),
        )
        if spec["kind"] == "exact":
            if set(value) != {"limit", "limit_float", "solvable"}:
                raise KeyError("non-canonical exact value")
            row.update(
                limit=str(value["limit"]),
                limit_float=float(value["limit_float"]),
                solvable=bool(value["solvable"]),
            )
        else:
            if set(value) != {"estimate", "successes", "samples"} or int(
                value["samples"]
            ) != int(spec["samples"]):
                raise KeyError("non-canonical sample value")
            row.update(
                estimate=float(value["estimate"]),
                successes=int(value["successes"]),
            )
    except (KeyError, TypeError, ValueError, IndexError):
        row = {name: _DEFAULTS[kind] for name, kind in RECORD_COLUMNS.items()}
        row["extra"] = json.dumps(record, sort_keys=True)
        if isinstance(record, dict) and isinstance(record.get("key"), str):
            row["key"] = record["key"]
    return row


def unflatten_row(row: dict) -> object:
    """Inverse of :func:`flatten_record` (dict-equal to the original)."""
    if row.get("extra"):
        return json.loads(row["extra"])
    spec = {
        "sizes": [int(s) for s in str(row["sizes"]).split(",")],
        "model": str(row["model"]),
        "ports": str(row["ports"]),
        "task": str(row["task"]),
        "kind": str(row["kind"]),
        "t": int(row["t"]),
        "samples": int(row["samples"]),
        "replicate": int(row["replicate"]),
    }
    if spec["kind"] == "exact":
        value = {
            "limit": str(row["limit"]),
            "limit_float": float(row["limit_float"]),
            "solvable": bool(row["solvable"]),
        }
    else:
        value = {
            "estimate": float(row["estimate"]),
            "successes": int(row["successes"]),
            "samples": int(row["samples"]),
        }
    return {
        "key": str(row["key"]),
        "index": int(row["index"]),
        "spec": spec,
        "seed": int(row["seed"]),
        "gcd": int(row["gcd"]),
        "value": value,
        "elapsed": float(row["elapsed"]),
    }


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentInfo:
    """One committed segment, as described by its manifest."""

    name: str
    table: str
    rows: int
    columns: dict[str, str]
    #: Ingestion provenance: source identity and the byte range of the
    #: source file this segment covers ("" / 0 / 0 for direct appends).
    source: str = ""
    start: int = 0
    end: int = 0
    #: Segments this one supersedes (set by compaction).
    replaces: tuple[str, ...] = field(default_factory=tuple)

    def to_manifest(self) -> dict:
        return {
            "name": self.name,
            "table": self.table,
            "rows": self.rows,
            "columns": dict(self.columns),
            "source": self.source,
            "start": self.start,
            "end": self.end,
            "replaces": list(self.replaces),
        }

    @classmethod
    def from_manifest(cls, payload: dict) -> "SegmentInfo":
        return cls(
            name=str(payload["name"]),
            table=str(payload["table"]),
            rows=int(payload["rows"]),
            columns={
                str(k): str(v) for k, v in payload["columns"].items()
            },
            source=str(payload.get("source", "")),
            start=int(payload.get("start", 0)),
            end=int(payload.get("end", 0)),
            replaces=tuple(payload.get("replaces", ())),
        )


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultsStore:
    """A warehouse directory: ``segments/*.npz`` + ``*.json`` manifests,
    plus the cross-run query memo under ``memo/``.

    All mutation is append-only (new segments) or supersede-then-delete
    (compaction); readers always see a consistent snapshot because a
    segment becomes visible only when its manifest lands via
    ``os.replace``.
    """

    def __init__(self, root: "str | os.PathLike[str]"):
        self.root = pathlib.Path(root)
        self.segment_dir.mkdir(parents=True, exist_ok=True)

    @property
    def segment_dir(self) -> pathlib.Path:
        return self.root / "segments"

    @property
    def memo_dir(self) -> pathlib.Path:
        """Where :class:`~repro.results.memo.QueryMemo` lives."""
        return self.root / "memo"

    # ------------------------------------------------------------------
    # Segment plumbing
    # ------------------------------------------------------------------
    def _manifests(self) -> list[SegmentInfo]:
        found = []
        for path in sorted(self.segment_dir.glob("*.json")):
            try:
                found.append(
                    SegmentInfo.from_manifest(json.loads(path.read_text()))
                )
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return found

    def segments(self, table: "str | None" = None) -> list[SegmentInfo]:
        """Live segments (superseded ones filtered out), in read order.

        Read order is ``(source, start byte, name)`` so concatenating
        segment pages reproduces source-file row order exactly.
        """
        manifests = [
            info
            for info in self._manifests()
            if table is None or info.table == table
        ]
        replaced = {
            name for info in manifests for name in info.replaces
        }
        live = [info for info in manifests if info.name not in replaced]
        live.sort(key=lambda info: (info.table, info.source, info.start,
                                    info.name))
        return live

    def tables(self) -> list[str]:
        """Table names with at least one live segment."""
        return sorted({info.table for info in self.segments()})

    def total_rows(self, table: str) -> int:
        return sum(info.rows for info in self.segments(table))

    def watermark(self, source: str, table: str = "records") -> int:
        """Highest source byte offset any segment (live or not) covers."""
        return max(
            (
                info.end
                for info in self._manifests()
                if info.table == table and info.source == source
            ),
            default=0,
        )

    def _paths_for(self, name: str) -> tuple[pathlib.Path, pathlib.Path]:
        return (
            self.segment_dir / f"{name}.npz",
            self.segment_dir / f"{name}.json",
        )

    def write_segment(
        self,
        name: str,
        table: str,
        rows: list[dict],
        schema: dict[str, str],
        *,
        source: str = "",
        start: int = 0,
        end: int = 0,
        replaces: Iterable[str] = (),
    ) -> "SegmentInfo | None":
        """Commit one segment; ``None`` when ``name`` already exists.

        Column pages write to a temp ``.npz`` first; the manifest's
        ``os.replace`` is the commit point, so readers never observe a
        partial segment and re-running an interrupted ingest (same
        deterministic name) is a no-op or a clean overwrite.
        """
        npz_path, manifest_path = self._paths_for(name)
        if manifest_path.exists():
            return None
        arrays: dict[str, np.ndarray] = {}
        for column, kind in schema.items():
            if kind not in KINDS:
                raise ValueError(f"unknown column kind {kind!r}")
            values = [row.get(column, _DEFAULTS[kind]) for row in rows]
            if kind == "str":
                decoded = np.asarray(values, dtype=np.str_)
                uniques, codes = (
                    np.unique(decoded, return_inverse=True)
                    if len(decoded)
                    else (np.asarray([], dtype=np.str_),
                          np.asarray([], dtype=np.int32))
                )
                arrays[f"{column}__codes"] = codes.astype(np.int32)
                arrays[f"{column}__values"] = uniques
            else:
                arrays[column] = np.asarray(values, dtype=_DTYPES[kind])
        self.segment_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.segment_dir, prefix=f"{name}.npz", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp, npz_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        info = SegmentInfo(
            name=name,
            table=table,
            rows=len(rows),
            columns=dict(schema),
            source=source,
            start=start,
            end=end,
            replaces=tuple(replaces),
        )
        _atomic_write_text(
            manifest_path, json.dumps(info.to_manifest(), indent=2)
        )
        if OBS.enabled:
            OBS.metrics.inc("results.store.segments")
            OBS.metrics.inc("results.store.rows", len(rows))
        return info

    def read_segment(self, info: SegmentInfo) -> dict[str, np.ndarray]:
        """The segment's column pages, strings decoded to unicode arrays."""
        npz_path, _ = self._paths_for(info.name)
        columns: dict[str, np.ndarray] = {}
        with np.load(npz_path, allow_pickle=False) as pages:
            for column, kind in info.columns.items():
                if kind == "str":
                    values = pages[f"{column}__values"]
                    codes = pages[f"{column}__codes"]
                    columns[column] = (
                        values[codes]
                        if len(codes)
                        else np.asarray([], dtype=np.str_)
                    )
                else:
                    columns[column] = pages[column]
        return columns

    def delete_segment(self, name: str) -> None:
        for path in self._paths_for(name):
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Writing rows
    # ------------------------------------------------------------------
    def append_rows(
        self,
        table: str,
        rows: list[dict],
        schema: dict[str, str],
        *,
        name: "str | None" = None,
    ) -> "SegmentInfo | None":
        """Append free-standing rows (no source watermark) as one segment."""
        if not rows:
            return None
        if name is None:
            name = f"{table}--{time.time_ns():020d}-{os.getpid()}"
        return self.write_segment(name, table, rows, schema)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_run_directory(self, run_dir) -> int:
        """Ingest a run directory's new job records; returns rows added.

        ``run_dir`` is a path or a
        :class:`~repro.runner.persistence.RunDirectory`.  Only bytes
        past the existing watermark are read, and only complete lines
        are ingested -- a torn trailing line (killed writer) waits for
        the job's re-run, byte-compatible with the run directory's own
        resume contract.
        """
        path = getattr(run_dir, "records_path", None)
        if path is None:
            path = pathlib.Path(run_dir) / "records.jsonl"
        return self.ingest_jsonl("records", path, flatten_record,
                                 RECORD_COLUMNS)

    def ingest_jsonl(
        self,
        table: str,
        path: "str | os.PathLike[str]",
        flatten: Callable[[object], dict],
        schema: dict[str, str],
    ) -> int:
        """Watermarked ingestion of one JSONL file into ``table``."""
        path = pathlib.Path(path)
        source = source_id(path)
        start = self.watermark(source, table)
        try:
            with path.open("rb") as handle:
                handle.seek(start)
                data = handle.read()
        except OSError:
            return 0
        cut = data.rfind(b"\n")
        if cut < 0:
            return 0
        chunk = data[: cut + 1]
        rows = []
        for line in chunk.split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8", errors="replace"))
            except ValueError:
                # A torn or corrupt interior line; the run directory's
                # own reader skips it identically.
                continue
            rows.append(flatten(record))
        end = start + len(chunk)
        name = f"{table}-{source}-{start:012d}-{end:012d}"
        self.write_segment(
            name, table, rows, schema, source=source, start=start, end=end
        )
        if OBS.enabled:
            OBS.metrics.inc("results.store.rows_ingested", len(rows))
        return len(rows)

    def run_directory_records(self, run_dir) -> "list[dict] | None":
        """Job records rebuilt from column pages, or ``None``.

        Returns ``None`` unless the warehouse fully covers the run
        directory's ``records.jsonl`` (every complete line ingested), in
        which case the reconstruction is dict-equal to
        :meth:`~repro.runner.persistence.RunDirectory.load_records` --
        the resume path reads column pages instead of re-parsing JSONL.
        """
        path = getattr(run_dir, "records_path", None)
        if path is None:
            path = pathlib.Path(run_dir) / "records.jsonl"
        try:
            size = path.stat().st_size
        except OSError:
            return None
        covered = self.watermark(source_id(path))
        if covered > size:
            # The file shrank below the watermark: somebody edited the
            # append-only log out of band.  The JSONL is the source of
            # truth; never serve stale column pages over it.
            return None
        if covered < size:
            # Tolerate exactly one torn trailing line (no newline yet):
            # those bytes can never become ingested rows until rewritten.
            try:
                with path.open("rb") as handle:
                    handle.seek(covered)
                    tail = handle.read()
            except OSError:
                return None
            if b"\n" in tail:
                return None
        source = source_id(path)
        records: list[dict] = []
        for info in self.segments("records"):
            if info.source != source:
                continue
            pages = self.read_segment(info)
            for i in range(info.rows):
                row = {
                    name: pages[name][i].item()
                    if name in pages
                    else _DEFAULTS[kind]
                    for name, kind in info.columns.items()
                }
                records.append(unflatten_row(row))
        return records

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def vacuum_run_directory(self, run_dir) -> str:
        """Delete a run directory the warehouse has fully ingested.

        Retention companion to :meth:`ingest_run_directory`: once every
        byte of a run directory's ``records.jsonl`` is below the records
        watermark, the directory is derived state the warehouse can
        serve by itself (:meth:`run_directory_records`), and the disk
        can be reclaimed.

        Deliberately stricter than :meth:`run_directory_records`: a torn
        trailing line is *not* tolerated here, because deleting the
        directory would destroy the only copy of those bytes.  Returns
        one of:

        * ``"removed"`` -- directory fully covered, deleted;
        * ``"missing"`` -- no readable ``records.jsonl`` (nothing to
          certify, directory left alone);
        * ``"not-covered"`` -- bytes beyond the watermark (or below it:
          an out-of-band edit), directory left alone;
        * ``"contains-warehouse"`` -- refused: this store's root lives
          inside the directory.
        """
        path = getattr(run_dir, "path", None)
        directory = pathlib.Path(path if path is not None else run_dir)
        directory = directory.resolve()
        root = self.root.resolve()
        if root == directory or directory in root.parents:
            return "contains-warehouse"
        records = directory / "records.jsonl"
        try:
            size = records.stat().st_size
        except OSError:
            return "missing"
        if self.watermark(source_id(records)) != size:
            return "not-covered"
        shutil.rmtree(directory)
        if OBS.enabled:
            OBS.metrics.inc("results.store.vacuum")
        return "removed"

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def table(self, table: str) -> Table:
        """Every live segment of ``table`` concatenated into one
        :class:`~repro.results.query.Table` (column pages, not JSONL)."""
        segments = self.segments(table)
        columns: dict[str, str] = {}
        for info in segments:
            columns.update(info.columns)
        parts: dict[str, list[np.ndarray]] = {name: [] for name in columns}
        for info in segments:
            pages = self.read_segment(info)
            for name, kind in columns.items():
                if name in pages:
                    parts[name].append(pages[name])
                else:  # schema drift across segments: fill defaults
                    fill = _DEFAULTS[kind]
                    dtype = np.str_ if kind == "str" else _DTYPES[kind]
                    parts[name].append(
                        np.full(info.rows, fill, dtype=dtype)
                    )
        data = {
            name: (
                np.concatenate(chunks)
                if chunks
                else np.asarray(
                    [],
                    dtype=np.str_ if columns[name] == "str"
                    else _DTYPES[columns[name]],
                )
            )
            for name, chunks in parts.items()
        }
        return Table(data)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, table: "str | None" = None) -> dict:
        """Merge each table's live segments into one; returns a summary.

        Crash-safe: the merged segment's manifest lists what it
        ``replaces`` before any member is deleted, so readers skip the
        members from the instant the merge commits, and a crash between
        commit and deletion only leaves garbage a re-run removes.
        Idempotent: a compacted table compacts to itself.
        """
        merged = 0
        removed = 0
        # Clean up members a crashed earlier compaction left behind.
        manifests = self._manifests()
        replaced = {
            name
            for info in manifests
            for name in info.replaces
        }
        for info in manifests:
            if info.name in replaced and (
                table is None or info.table == table
            ):
                self.delete_segment(info.name)
                removed += 1
        for current in self.tables():
            if table is not None and current != table:
                continue
            by_source: dict[str, list[SegmentInfo]] = {}
            for info in self.segments(current):
                by_source.setdefault(info.source, []).append(info)
            for source, members in by_source.items():
                if len(members) < 2:
                    continue
                schema: dict[str, str] = {}
                for info in members:
                    schema.update(info.columns)
                tables = [self.read_segment(info) for info in members]
                rows: list[dict] = []
                for info, pages in zip(members, tables):
                    for i in range(info.rows):
                        rows.append(
                            {
                                name: (
                                    pages[name][i].item()
                                    if name in pages
                                    else _DEFAULTS[schema[name]]
                                )
                                for name in schema
                            }
                        )
                if source:
                    start = min(info.start for info in members)
                    end = max(info.end for info in members)
                    name = f"{current}-{source}-{start:012d}-{end:012d}"
                else:
                    start = end = 0
                    tag = hashlib.sha256(
                        "|".join(info.name for info in members).encode()
                    ).hexdigest()[:12]
                    name = f"{current}--merged-{tag}"
                info = self.write_segment(
                    name,
                    current,
                    rows,
                    schema,
                    source=source,
                    start=start,
                    end=end,
                    replaces=[m.name for m in members if m.name != name],
                )
                merged += 1
                for member in members:
                    if member.name != name:
                        self.delete_segment(member.name)
                        removed += 1
        if OBS.enabled and merged:
            OBS.metrics.inc("results.store.compactions", merged)
        return {"merged": merged, "removed": removed}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Row/segment/byte counts per table plus memo accounting."""
        tables = {}
        for name in self.tables():
            segments = self.segments(name)
            size = 0
            for info in segments:
                for path in self._paths_for(info.name):
                    try:
                        size += path.stat().st_size
                    except OSError:
                        pass
            tables[name] = {
                "rows": sum(info.rows for info in segments),
                "segments": len(segments),
                "bytes": size,
            }
        from .memo import QueryMemo

        memo = QueryMemo(self.memo_dir)
        return {"root": str(self.root), "tables": tables,
                "memo": memo.stats()}


def _nan_safe(value: float) -> object:
    """JSON-safe scalar (NaN degrades to None for export paths)."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


__all__ = [
    "KINDS",
    "RECORD_COLUMNS",
    "ResultsStore",
    "SegmentInfo",
    "flatten_record",
    "source_id",
    "unflatten_row",
]
