"""Process-pool sweeps over shared-memory chains (workers=2).

The acceptance contract: a pooled sweep with a
:class:`~repro.chain.shm.SharedChainStore` produces byte-identical run
directories (modulo per-record wall-clock timing) and byte-identical
aggregates to a serial run -- and warm workers attach published chains
instead of loading the disk cache.
"""

import json

import pytest

from repro.chain import configure_disk_cache, configure_shared_chains
from repro.runner import (
    ProcessPoolEngine,
    SerialEngine,
    SweepSpec,
    run_sweep,
)


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    configure_shared_chains(None)
    configure_disk_cache(None)


def _strip_timing(records):
    return [
        {key: value for key, value in record.items() if key != "elapsed"}
        for record in records
    ]


def _sweep():
    return SweepSpec.for_total_size(
        4, models=("blackboard", "clique"), ports=("adversarial",)
    )


class TestPooledSharedMemorySweeps:
    def test_pool_with_shared_chains_matches_serial(self, tmp_path):
        serial = run_sweep(_sweep(), engine=SerialEngine(),
                           run_dir=tmp_path / "serial")
        pooled = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "pooled",
        )
        assert _strip_timing(serial.records) == _strip_timing(pooled.records)
        assert serial.result().render() == pooled.result().render()
        # The persisted JSONL agrees too (same stripped records on disk).
        for run in ("serial", "pooled"):
            lines = (tmp_path / run / "records.jsonl").read_text()
            loaded = [json.loads(line) for line in lines.splitlines()]
            assert _strip_timing(loaded) == _strip_timing(serial.records)

    def test_shared_chains_opt_out_still_matches(self, tmp_path):
        baseline = run_sweep(_sweep(), engine=SerialEngine())
        pooled = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2, shared_chains=False),
        )
        assert _strip_timing(baseline.records) == _strip_timing(
            pooled.records
        )

    def test_store_is_closed_after_the_sweep(self, tmp_path):
        from repro.chain.shm import SharedChainStore, attach_chain

        published = []
        original = SharedChainStore.publish_group

        def spying_publish_group(self, chains):
            name = original(self, chains)
            if name is not None:
                published.append(name)
            return name

        # Warm the parent memo first (a serial run executes in-process):
        # pooled run-dir sweeps only publish chains that are already
        # warm, leaving cold compilations to the workers.
        run_sweep(_sweep(), engine=SerialEngine())
        SharedChainStore.publish_group = spying_publish_group
        try:
            run_sweep(
                _sweep(),
                engine=ProcessPoolEngine(workers=2),
                run_dir=tmp_path / "run",
            )
        finally:
            SharedChainStore.publish_group = original
        assert published, "warm pooled sweep should publish shared chains"
        for name in published:
            with pytest.raises(OSError):
                attach_chain(name)

    def test_cold_run_dir_sweep_leaves_compilation_to_workers(
        self, tmp_path
    ):
        from repro.chain import clear_memo, compile_chain
        from repro.chain.shm import SharedChainStore

        published = []
        original = SharedChainStore.publish_group

        def spying_publish_group(self, chains):
            published.extend(chain.key for chain in chains)
            return original(self, chains)

        clear_memo()
        SharedChainStore.publish_group = spying_publish_group
        try:
            outcome = run_sweep(
                _sweep(),
                engine=ProcessPoolEngine(workers=2),
                run_dir=tmp_path / "run",
            )
        finally:
            SharedChainStore.publish_group = original
        # Cold parent + a disk cache for workers to share through: no
        # serial parent-side compilation stall, nothing published...
        assert published == []
        assert outcome.executed == outcome.total
        # ...but the workers still persisted every chain, so a resumed
        # (cache-warm) re-run publishes from the disk cache.
        (tmp_path / "run" / "records.jsonl").unlink()
        clear_memo()
        SharedChainStore.publish_group = spying_publish_group
        try:
            again = run_sweep(
                _sweep(),
                engine=ProcessPoolEngine(workers=2),
                run_dir=tmp_path / "run",
            )
        finally:
            SharedChainStore.publish_group = original
        assert published, "cache-warm re-run should publish shared chains"
        assert _strip_timing(again.records) == _strip_timing(outcome.records)

    def test_grouped_pooled_sweep_byte_identical_to_serial(self, tmp_path):
        """The grouped-dispatch contract: a 2-worker sweep dispatched as group
        payloads (one shm attach + one grouped pass per payload) writes
        a run directory byte-identical to a serial one, and both match
        per-job records from :func:`~repro.runner.worker.execute_run`,
        which never enters the grouped pass."""
        from repro.runner.worker import execute_run, execute_run_group

        captured = []

        class SpyPool(ProcessPoolEngine):
            def map(self, fn, payloads):
                captured.append((fn, list(payloads)))
                return super().map(fn, captured[-1][1])

        serial = run_sweep(_sweep(), engine=SerialEngine(),
                           run_dir=tmp_path / "serial")
        pooled = run_sweep(
            _sweep(),
            engine=SpyPool(workers=2),
            run_dir=tmp_path / "pooled",
        )
        sweep = _sweep()
        per_job = [
            execute_run(
                {"spec": spec.to_dict(), "master_seed": sweep.master_seed,
                 "index": i}
            )
            for i, spec in enumerate(sweep.expand())
        ]
        # The pool really ran group payloads, several jobs per payload.
        fn, payloads = captured[0]
        assert fn is execute_run_group
        assert all("jobs" in payload for payload in payloads)
        assert len(payloads) < serial.total
        assert sum(len(p["jobs"]) for p in payloads) == serial.total
        assert _strip_timing(serial.records) == _strip_timing(pooled.records)
        assert _strip_timing(serial.records) == _strip_timing(per_job)
        for run in ("serial", "pooled"):
            lines = (tmp_path / run / "records.jsonl").read_text()
            loaded = [json.loads(line) for line in lines.splitlines()]
            assert _strip_timing(loaded) == _strip_timing(serial.records)

    def test_group_segments_serve_every_chain_from_one_attach(
        self, tmp_path
    ):
        """A warm parent publishes the sweep's chains into one group
        segment; the manifest locators all name that segment."""
        from repro.chain.shm import SharedChainStore

        manifests = []
        original = SharedChainStore.manifest.fget

        def spying_manifest(self):
            manifest = original(self)
            manifests.append(manifest)
            return manifest

        run_sweep(_sweep(), engine=SerialEngine())  # warm the memo
        SharedChainStore.manifest = property(spying_manifest)
        try:
            run_sweep(
                _sweep(),
                engine=ProcessPoolEngine(workers=2),
                run_dir=tmp_path / "run",
            )
        finally:
            SharedChainStore.manifest = property(original)
        assert manifests and manifests[0]
        segments = {
            locator.partition("@")[0] for locator in manifests[0].values()
        }
        assert len(segments) == 1, "whole sweep should share one segment"
        assert all("@" in locator for locator in manifests[0].values())

    def test_resumed_pooled_sweep_executes_nothing(self, tmp_path):
        first = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "run",
        )
        again = run_sweep(
            _sweep(),
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "run",
        )
        assert first.total == again.total == again.resumed
        assert again.executed == 0
        assert _strip_timing(first.records) == _strip_timing(again.records)


class TestProcessContext:
    def test_callers_disk_cache_survives_a_run_dirless_pool_sweep(
        self, tmp_path
    ):
        from repro.chain import disk_cache

        installed = configure_disk_cache(tmp_path / "mine")
        run_sweep(_sweep(), engine=ProcessPoolEngine(workers=2))
        assert disk_cache() is installed

    def test_pooled_experiments_get_a_published_chain_manifest(self):
        from repro.analysis import iter_all_experiments

        captured = []

        class SpyEngine:
            name = "spy"
            supports_shared_chains = True

            def map(self, fn, payloads):
                captured.extend(payloads)
                return iter(())

        list(iter_all_experiments(engine=SpyEngine()))
        assert captured and all(
            payload.get("chain_shm") for payload in captured
        )

    @pytest.mark.parametrize("mode", ["off", "auto", "on"])
    def test_quotient_mode_travels_in_every_pool_payload(self, mode):
        from repro.chain import configure_quotient
        from repro.runner.worker import chain_context_payload

        captured = []

        class SpyPool(ProcessPoolEngine):
            def map(self, fn, payloads):
                payloads = list(payloads)
                captured.extend(payloads)
                return super().map(fn, payloads)

        configure_quotient(mode)
        assert chain_context_payload() == {"quotient": mode, "obs": False}
        run_sweep(_sweep(), engine=SpyPool(workers=2))
        assert captured
        for payload in captured:
            for job in payload.get("jobs", [payload]):
                assert job["quotient"] == mode
                for key in ("batch", "group_chains", "policy"):
                    assert key not in job


class TestWarmWorkersSkipDisk:
    def test_attach_beats_the_disk_cache_on_cache_warm_chains(
        self, tmp_path, monkeypatch
    ):
        """The worker-side lookup order is memo -> shared -> disk.

        Simulated in-process (the same code path ``execute_run`` takes in
        a pool worker): with a manifest installed, compiling a published
        chain must never call ``ChainDiskCache.load`` even though a warm
        disk cache is configured.
        """
        from repro.chain import clear_memo, compile_chain
        from repro.chain.cache import ChainDiskCache
        from repro.chain.shm import SharedChainStore
        from repro.randomness import RandomnessConfiguration

        alpha = RandomnessConfiguration.from_group_sizes((1, 1, 2))
        configure_disk_cache(tmp_path / "chains")
        chain = compile_chain(alpha)  # compiles and warms the disk cache
        with SharedChainStore() as store:
            store.publish(chain)
            configure_shared_chains(store.manifest)
            monkeypatch.setattr(
                ChainDiskCache,
                "load",
                lambda self, key: pytest.fail(
                    "cache-warm chain was loaded from disk despite "
                    "shared memory"
                ),
            )
            clear_memo()
            attached = compile_chain(alpha)
            assert attached.key == chain.key
            assert hasattr(attached, "_shm")
