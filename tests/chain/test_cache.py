"""Disk cache: cross-process chain persistence and corruption safety."""

import pickle

import pytest

from repro.chain import (
    ChainDiskCache,
    chain_key,
    clear_memo,
    compile_chain,
    disk_cache,
)
from repro.context import ExecutionContext, use_context
from repro.core import leader_election
from repro.models import adversarial_assignment
from repro.randomness import RandomnessConfiguration
from repro.runner import SerialEngine, SweepSpec, run_sweep


@pytest.fixture
def cache_dir(tmp_path):
    """A cache the test runs under, and only the test."""
    root = tmp_path / "chains"
    with use_context(ExecutionContext(chain_cache=root)):
        clear_memo()
        yield root
    clear_memo()


class TestDiskCache:
    def test_compile_stores_and_reloads(self, cache_dir):
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        ports = adversarial_assignment((2, 3))
        original = compile_chain(alpha, ports)
        assert len(disk_cache()) == 1
        clear_memo()  # force the next compile to go through the disk
        reloaded = compile_chain(alpha, ports)
        assert reloaded is not original
        assert reloaded.key == original.key
        assert reloaded.labels == original.labels
        task = leader_election(alpha.n)
        assert reloaded.limit_solving_probability(task) == (
            original.limit_solving_probability(task)
        )

    def test_pickle_round_trip_drops_caches(self, cache_dir):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        chain = compile_chain(alpha)
        task = leader_election(3)
        chain.solvable_mask(task)  # populate a per-process cache
        clone = pickle.loads(pickle.dumps(chain))
        assert clone.labels == chain.labels
        assert clone.solving_probability_series(task, 4) == (
            chain.solving_probability_series(task, 4)
        )

    def test_corrupt_file_is_a_miss(self, cache_dir):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        compile_chain(alpha)
        store = disk_cache()
        path = store.path_for(chain_key(alpha))
        path.write_bytes(b"not a pickle")
        clear_memo()
        chain = compile_chain(alpha)  # recompiles instead of raising
        assert chain.num_states >= 1

    def test_one_shot_compiles_bypass_the_disk_cache(self, cache_dir):
        # Exhaustive enumerations (use_memo=False) must not flood the
        # cache directory with single-use chains.
        alpha = RandomnessConfiguration.from_group_sizes((2, 2))
        compile_chain(alpha, adversarial_assignment((2, 2)), use_memo=False)
        assert len(disk_cache()) == 0

    def test_wrong_key_content_is_a_miss(self, cache_dir):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        other = RandomnessConfiguration.from_group_sizes((2, 2))
        chain = compile_chain(alpha)
        store = ChainDiskCache(cache_dir)
        # Plant the (1,2) chain under the (2,2) key file.
        store.path_for(chain_key(other)).write_bytes(pickle.dumps(chain))
        assert store.load(chain_key(other)) is None


class TestLRUEviction:
    def _fill(self, root, shapes):
        """Compile one chain per shape through a capless cache."""
        import time

        with use_context(ExecutionContext(chain_cache=root)):
            for shape in shapes:
                clear_memo()
                compile_chain(RandomnessConfiguration.from_group_sizes(shape))
                # mtimes are the LRU clock; space the stores out so
                # eviction order is deterministic even on coarse
                # filesystems.
                time.sleep(0.01)
        clear_memo()

    def test_entries_are_listed_lru_first(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2), (1, 1, 2)])
        entries = ChainDiskCache(root).entries()
        assert len(entries) == 3
        assert entries == sorted(
            entries, key=lambda e: (e.mtime, e.digest)
        )

    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2), (1, 1, 2)])
        cache = ChainDiskCache(root, max_entries=2)
        oldest = cache.entries()[0]
        removed = cache.evict()
        assert [entry.digest for entry in removed] == [oldest.digest]
        assert len(cache.entries()) == 2
        assert not oldest.path.exists()

    def test_max_bytes_cap_applies_on_store(self, tmp_path):
        root = tmp_path / "chains"
        cache = ChainDiskCache(root, max_bytes=1)  # nothing fits
        for shape in ((1, 2), (2, 2)):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            cache.store(compile_chain(alpha, use_memo=False))
        assert ChainDiskCache(root).entries() == []

    def test_load_refreshes_recency(self, tmp_path):
        import time

        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2)])
        cache = ChainDiskCache(root)
        oldest = cache.entries()[0]
        time.sleep(0.01)
        # Touch the cold entry by loading it; the other one now ages out.
        alpha_keys = [
            chain_key(RandomnessConfiguration.from_group_sizes(shape))
            for shape in [(1, 2), (2, 2)]
        ]
        cold_key = next(
            key for key in alpha_keys
            if cache.path_for(key).name.startswith(oldest.digest)
        )
        assert cache.load(cold_key) is not None
        removed = cache.evict(max_entries=1)
        assert len(removed) == 1
        assert [entry.digest for entry in cache.entries()] == [oldest.digest]

    def test_clear_removes_everything(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2)])
        cache = ChainDiskCache(root)
        assert cache.clear() == 2
        assert cache.entries() == []
        assert cache.total_bytes() == 0

    def test_unbounded_cache_never_evicts(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2)])
        cache = ChainDiskCache(root)
        assert cache.evict() == []
        assert len(cache.entries()) == 2

    def test_negative_caps_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ChainDiskCache(tmp_path / "chains", max_bytes=-1)
        with pytest.raises(ValueError):
            ChainDiskCache(tmp_path / "chains", max_entries=-1)

    def test_negative_explicit_evict_caps_rejected(self, tmp_path):
        # `repro chains prune --max-entries -1` must not silently wipe
        # the cache: explicit caps get the same validation the
        # constructor enforces.
        root = tmp_path / "chains"
        self._fill(root, [(1, 2)])
        cache = ChainDiskCache(root)
        with pytest.raises(ValueError):
            cache.evict(max_entries=-1)
        with pytest.raises(ValueError):
            cache.evict(max_bytes=-1)
        assert len(cache.entries()) == 1


class TestLoadStats:
    def _key(self, shape):
        return chain_key(RandomnessConfiguration.from_group_sizes(shape))

    def _fill(self, root, shapes):
        with use_context(ExecutionContext(chain_cache=root)):
            for shape in shapes:
                clear_memo()
                compile_chain(RandomnessConfiguration.from_group_sizes(shape))
        clear_memo()

    def test_loads_are_counted_in_the_sidecar(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2)])
        cache = ChainDiskCache(root)
        assert all(entry.loads == 0 for entry in cache.entries())
        key = self._key((1, 2))
        assert cache.load(key) is not None
        assert cache.load(key) is not None
        by_digest = {entry.digest: entry.loads for entry in cache.entries()}
        digest = cache.path_for(key).name.removesuffix(".chain.pkl")
        assert by_digest[digest] == 2
        assert sum(by_digest.values()) == 2  # the other entry stays at 0
        # Loads land in the append-only event log; compaction folds them
        # into the snapshot without changing the observable counts.
        assert (root / "_stats.log").exists()
        assert cache.compact_stats() == {digest: 2}
        assert (root / "_stats.json").exists()
        assert {e.digest: e.loads for e in cache.entries()} == by_digest

    def test_hit_count_breaks_lru_mtime_ties(self, tmp_path):
        import os

        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2), (1, 1, 2)])
        cache = ChainDiskCache(root)
        hot_key = self._key((2, 2))
        assert cache.load(hot_key) is not None
        # Force an mtime tie so only the load count can order eviction.
        for entry in cache.entries():
            os.utime(entry.path, (1000000000, 1000000000))
        ordered = cache.entries()
        assert [entry.loads for entry in ordered] == [0, 0, 1]
        removed = cache.evict(max_entries=1)
        hot_digest = cache.path_for(hot_key).name.removesuffix(".chain.pkl")
        assert hot_digest not in {entry.digest for entry in removed}
        assert [entry.digest for entry in cache.entries()] == [hot_digest]

    def test_eviction_drops_stats_of_removed_entries(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2), (2, 2)])
        cache = ChainDiskCache(root)
        for shape in [(1, 2), (2, 2)]:
            assert cache.load(self._key(shape)) is not None
        assert sum(cache.load_stats().values()) == 2
        cache.clear()
        assert cache.load_stats() == {}

    def test_corrupt_sidecar_degrades_to_empty_stats(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2)])
        (root / "_stats.json").write_text("not json {")
        cache = ChainDiskCache(root)
        assert cache.load_stats() == {}
        # ...and loading repairs it.
        assert cache.load(self._key((1, 2))) is not None
        assert sum(cache.load_stats().values()) == 1

    def test_stats_file_is_not_listed_as_a_chain(self, tmp_path):
        root = tmp_path / "chains"
        self._fill(root, [(1, 2)])
        cache = ChainDiskCache(root)
        assert cache.load(self._key((1, 2))) is not None
        assert len(cache.entries()) == 1
        assert len(cache) == 1


class TestRunnerPlumbing:
    def test_sweep_with_run_dir_persists_chains(self, tmp_path):
        clear_memo()
        sweep = SweepSpec.for_total_size(3, models=("blackboard", "clique"))
        run_dir = tmp_path / "run"
        outcome = run_sweep(sweep, engine=SerialEngine(), run_dir=run_dir)
        assert outcome.executed == outcome.total
        chains = list((run_dir / "chains").glob("*.chain.pkl"))
        assert chains  # every exact job's chain got persisted
        # A resumed sweep re-runs nothing and leaves the cache intact.
        resumed = run_sweep(sweep, engine=SerialEngine(), run_dir=run_dir)
        assert resumed.executed == 0
        assert resumed.resumed == resumed.total
        clear_memo()

    def test_sweep_without_run_dir_leaves_cache_unconfigured(self):
        sweep = SweepSpec.for_total_size(2, models=("blackboard",))
        run_sweep(sweep, engine=SerialEngine())
        assert disk_cache() is None

    def test_run_dir_sweep_detaches_its_cache_afterwards(self, tmp_path):
        # A run-dir sweep on the serial engine runs its jobs in THIS
        # process under its cache; later work must never write into a
        # finished run directory.
        clear_memo()
        sweep = SweepSpec.for_total_size(2, models=("blackboard",))
        run_sweep(sweep, engine=SerialEngine(), run_dir=tmp_path / "run")
        assert disk_cache() is None
        clear_memo()

    def test_a_payloads_cache_lasts_only_for_its_job(self, tmp_path):
        # Reused pool workers see payloads back to back: a job's cache
        # ends with the job, and a payload naming no context runs under
        # the library defaults, whatever the caller entered.
        from repro.runner.worker import execute_run

        clear_memo()
        spec = {
            "sizes": [1, 2], "model": "blackboard", "ports": "none",
            "task": "leader", "kind": "exact", "t": 4,
            "samples": 100, "replicate": 0,
        }
        execute_run({
            "spec": spec, "master_seed": 0, "index": 0,
            "context": ExecutionContext(chain_cache=tmp_path / "chains"),
        })
        assert len(ChainDiskCache(tmp_path / "chains")) == 1
        assert disk_cache() is None
        clear_memo()
        with use_context(ExecutionContext(chain_cache=tmp_path / "mine")):
            execute_run({"spec": spec, "master_seed": 0, "index": 0})
            assert len(disk_cache()) == 0
        clear_memo()

    def test_serial_sweep_without_run_dir_uses_the_callers_cache(
        self, tmp_path
    ):
        clear_memo()
        sweep = SweepSpec.for_total_size(3, models=("blackboard",))
        with use_context(ExecutionContext(chain_cache=tmp_path / "mine")):
            run_sweep(sweep, engine=SerialEngine())
            assert len(disk_cache()) == len(sweep.shapes)
        clear_memo()

    def test_store_survives_a_vanished_cache_directory(self, tmp_path):
        # Best-effort persistence: deleting the run directory must not
        # crash later compilations that still hold the cache handle.
        import shutil

        clear_memo()
        with use_context(ExecutionContext(chain_cache=tmp_path / "gone")):
            store = disk_cache()
            shutil.rmtree(tmp_path / "gone")
            alpha = RandomnessConfiguration.from_group_sizes((1, 2))
            chain = compile_chain(alpha)  # recreates the directory
            assert chain.num_states >= 1
            assert store.load(chain.key) is not None
        clear_memo()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
