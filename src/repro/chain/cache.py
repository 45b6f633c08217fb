"""Optional on-disk cache of compiled chains.

The process-wide memo in :mod:`repro.chain.engine` already guarantees
one compilation per chain per process; this module extends that across
*processes* (a pool of sweep workers) and across *runs* (a resumed run
directory).  Chains are pickled one file per structural key under a
cache directory; the file name is the SHA-256 of the key's canonical
repr, so the cache is safe to share between concurrent workers -- at
worst two workers compile the same chain once each and one write wins
(writes go through an atomic rename).

The cache is opt-in: ``compile_chain`` uses it while the current
:class:`~repro.context.ExecutionContext` names a ``chain_cache``
directory (the runner names ``<run_dir>/chains`` for sweeps given a
``--run-dir``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
import pickle
import tempfile

from ..context import current_context
from ..obs import OBS
from ..results.log import AppendLog
from .engine import ChainKey, CompiledChain

#: Compacted stats snapshot next to the cached chains (an
#: :class:`~repro.results.log.AppendLog` snapshot whose state is
#: ``{digest: load count}``; a legacy flat ``{digest: count}`` document
#: is read transparently and migrated on the next compaction).
STATS_FILE = "_stats.json"

#: The live append-only load-event log (one JSON line per cache hit,
#: written atomically via ``O_APPEND``): counts are exact under any
#: number of concurrent writers, unlike the old read-modify-write
#: sidecar which silently dropped racing increments.
STATS_LOG = "_stats.log"

#: Compact the stats log once it grows past this many bytes.
STATS_COMPACT_BYTES = 1 << 16


def _fold_load_counts(state, events) -> dict[str, int]:
    """AppendLog fold: sum load events into ``{digest: count}``."""
    counts = {
        str(digest): int(count)
        for digest, count in (state or {}).items()
        if isinstance(count, int)
    }
    for event in events:
        digest = event.get("d")
        if isinstance(digest, str):
            counts[digest] = counts.get(digest, 0) + 1
    return counts


def key_digest(key: ChainKey) -> str:
    """Stable content hash of a structural chain key."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One cached chain file, as the hygiene tooling sees it."""

    digest: str
    path: pathlib.Path
    size: int
    mtime: float
    #: How many times :meth:`ChainDiskCache.load` has hit this entry
    #: (from the sidecar stats file; 0 when untracked).
    loads: int = 0


class ChainDiskCache:
    """A directory of pickled :class:`CompiledChain` objects.

    ``max_bytes``/``max_entries`` cap the directory size: every store
    (and every explicit :meth:`evict`) drops least-recently-used entries
    until both caps hold.  Recency is file mtime -- loads touch their
    hit, so a chain a long-lived run directory keeps coming back to
    stays resident while one-off chains age out -- with the sidecar
    load count (:data:`STATS_FILE`) breaking mtime ties: between two
    equally-recent entries the rarely-hit one goes first.  ``None``
    (the default) leaves that dimension unbounded.
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        *,
        max_bytes: "int | None" = None,
        max_entries: "int | None" = None,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.root = pathlib.Path(root)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: ChainKey) -> pathlib.Path:
        return self.root / f"{key_digest(key)}.chain.pkl"

    # ------------------------------------------------------------------
    # Load statistics (append-only log + compacted snapshot)
    # ------------------------------------------------------------------
    def _stats_log(self) -> "AppendLog":
        return AppendLog(self.root, "_stats")

    def load_stats(self) -> dict[str, int]:
        """Exact per-digest load counts (snapshot plus unfolded events).

        Exact because every load *appends* one event atomically instead
        of rewriting a shared file: concurrent writers interleave, they
        never overwrite each other.  A corrupt snapshot or log degrades
        to whatever remains readable -- the stats stay advisory for
        eviction tie-breaks and the ``repro chains`` listing.
        """
        counts = self._stats_log().load(_fold_load_counts)
        return counts if isinstance(counts, dict) else {}

    def _record_load(self, digest: str) -> None:
        log = self._stats_log()
        log.append({"d": digest})
        if log.tail_bytes() > STATS_COMPACT_BYTES:
            self.compact_stats()

    def compact_stats(self) -> dict[str, int]:
        """Fold pending load events into the snapshot; returns counts.

        Counts for chains no longer in the cache directory are dropped
        during the fold, so eviction hygiene rides along for free.
        Safe to call concurrently (the fold is idempotent and the
        snapshot replace atomic); an event appended in the instant a
        rotation lands gets a full compaction cycle of grace before its
        segment is deleted.
        """

        def fold_and_prune(state, events):
            counts = _fold_load_counts(state, events)
            return {
                digest: count
                for digest, count in counts.items()
                if (self.root / f"{digest}.chain.pkl").exists()
            }

        counts = self._stats_log().compact(fold_and_prune)
        return counts if isinstance(counts, dict) else {}

    # ------------------------------------------------------------------
    # Hygiene: listing and LRU eviction
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        """Every cached chain file, first-to-evict first.

        Order is least-recently-used (file mtime), with the sidecar
        load count breaking ties -- an equally-stale entry that has
        served fewer loads evicts sooner.  Entries that vanish
        mid-listing (a concurrent prune) are simply skipped.
        """
        stats = self.load_stats()
        found = []
        for path in self.root.glob("*.chain.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            digest = path.name.removesuffix(".chain.pkl")
            found.append(
                CacheEntry(
                    digest=digest,
                    path=path,
                    size=stat.st_size,
                    mtime=stat.st_mtime,
                    loads=stats.get(digest, 0),
                )
            )
        found.sort(key=lambda entry: (entry.mtime, entry.loads, entry.digest))
        return found

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries())

    def evict(
        self,
        max_bytes: "int | None" = None,
        max_entries: "int | None" = None,
    ) -> list[CacheEntry]:
        """Drop LRU entries until the caps hold; returns what was removed.

        Caps default to the cache's own; passing explicit values prunes
        to those instead (the ``repro chains prune`` path).  Removal is
        best-effort: files that vanish concurrently count as evicted.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        max_entries = self.max_entries if max_entries is None else max_entries
        if max_bytes is None and max_entries is None:
            return []
        entries = self.entries()
        total = sum(entry.size for entry in entries)
        removed: list[CacheEntry] = []
        while entries and (
            (max_entries is not None and len(entries) > max_entries)
            or (max_bytes is not None and total > max_bytes)
        ):
            victim = entries.pop(0)
            try:
                victim.path.unlink()
            except FileNotFoundError:
                pass
            except OSError:
                break
            total -= victim.size
            removed.append(victim)
        if removed:
            if OBS.enabled:
                OBS.metrics.inc("chain.cache.evictions", len(removed))
            # Fold-and-prune drops the removed entries' counts (the
            # fold skips digests whose chain files are gone).
            self.compact_stats()
        return removed

    def clear(self) -> int:
        """Remove every cached chain; returns how many were dropped."""
        return len(self.evict(max_bytes=0, max_entries=0))

    def load(self, key: ChainKey) -> CompiledChain | None:
        """The cached chain for ``key``, or ``None``.

        A hit is validated against the full key (hash collisions and
        stale formats both surface as a miss, never as wrong results);
        unreadable files are treated as misses.
        """
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                chain = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            if OBS.enabled:
                OBS.metrics.inc("chain.cache.load.miss")
            return None
        if not isinstance(chain, CompiledChain) or chain.key != key:
            if OBS.enabled:
                OBS.metrics.inc("chain.cache.load.miss")
            return None
        try:
            os.utime(path)  # refresh LRU recency; best-effort
        except OSError:
            pass
        self._record_load(path.name.removesuffix(".chain.pkl"))
        if OBS.enabled:
            OBS.metrics.inc("chain.cache.load.hit")
        return chain

    def store(self, chain: CompiledChain) -> "pathlib.Path | None":
        """Persist a chain (atomic rename; concurrent writers are safe).

        Best-effort: a vanished cache directory, a full disk, or a
        permission change degrade to ``None`` (the chain is simply not
        persisted) rather than failing the computation that produced it.
        """
        path = self.path_for(chain.key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=path.name, suffix=".tmp"
            )
        except OSError:
            return None
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(chain, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if isinstance(exc, OSError):
                return None
            raise
        if OBS.enabled:
            OBS.metrics.inc("chain.cache.stores")
        self.evict()
        return path

    def __len__(self) -> int:
        return len(list(self.root.glob("*.chain.pkl")))


#: The cache built in this process for the last directory a context
#: named; pool workers reuse it across a sweep's payloads.
_DISK_CACHE: ChainDiskCache | None = None


def disk_cache() -> ChainDiskCache | None:
    """The cache ``compile_chain`` uses: the current context's
    ``chain_cache`` directory, or ``None`` when it names none."""
    global _DISK_CACHE
    root = current_context().chain_cache
    if root is None:
        return None
    if _DISK_CACHE is None or _DISK_CACHE.root != pathlib.Path(root):
        _DISK_CACHE = ChainDiskCache(root)
    return _DISK_CACHE


__all__ = [
    "CacheEntry",
    "ChainDiskCache",
    "STATS_FILE",
    "STATS_LOG",
    "disk_cache",
    "key_digest",
]
