"""How compiled chains reach pool workers: pickles, disk cache, lookup order.

A worker gets a chain one way only: the process memo, then the run
directory's disk cache (a pickle written by whichever process compiled
it first), then a fresh compile.  These tests pin down that every step
hands back the same chain, that the lookup order is memo -> disk ->
compile, and that grouped queries over transported chains answer
exactly like grouped queries over the originals.
"""

import pickle

import numpy as np
import pytest

from repro.chain import (
    ChainDiskCache,
    Query,
    chain_key,
    clear_memo,
    compile_chain,
    disk_cache,
    run_group_queries,
)
from repro.chain import engine as engine_module
from repro.context import ExecutionContext, use_context
from repro.core import leader_election
from repro.models import adversarial_assignment, round_robin_assignment
from repro.models.graph import GraphTopology
from repro.obs import OBS, configure_tracing, reset_telemetry
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.runner import spec as runner_spec


@pytest.fixture
def cache_dir(tmp_path):
    root = tmp_path / "chains"
    with use_context(ExecutionContext(chain_cache=root)):
        clear_memo()
        yield root
    clear_memo()


#: One blackboard chain and three message-passing chains (adversarial
#: ports, round-robin ports, a ring topology).
CASES = {
    "blackboard": lambda: ((1, 2, 2), None),
    "adversarial": lambda: ((2, 3), adversarial_assignment((2, 3))),
    "round-robin": lambda: ((1, 2, 2), round_robin_assignment(5)),
    "ring": lambda: ((1, 1, 1, 1), GraphTopology.ring(4)),
}


def _compile(case, **kwargs):
    shape, ports = CASES[case]()
    alpha = RandomnessConfiguration.from_group_sizes(shape)
    return compile_chain(alpha, ports, **kwargs)


def _round_trip(chain):
    return pickle.loads(pickle.dumps(chain, protocol=pickle.HIGHEST_PROTOCOL))


class TestPickleRoundTrip:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_round_trip_reproduces_the_chain(self, case):
        chain = _compile(case)
        clone = _round_trip(chain)
        assert clone is not chain
        assert clone.key == chain.key
        assert clone.labels == chain.labels
        assert clone.n == chain.n and clone.k == chain.k
        assert clone.denom == chain.denom
        assert clone.start == chain.start
        assert clone.num_states == chain.num_states
        assert clone.num_transitions == chain.num_transitions
        assert clone.out_table() == chain.out_table()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_round_tripped_queries_match_exactly(self, case):
        chain = _compile(case)
        clone = _round_trip(chain)
        task = leader_election(chain.n)
        assert clone.solving_probability_series(
            task, 6
        ) == chain.solving_probability_series(task, 6)
        assert clone.limit_solving_probability(
            task
        ) == chain.limit_solving_probability(task)
        for got, want in zip(clone.coo(), chain.coo()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["blackboard", "adversarial"])
    def test_csr_derives_from_the_out_table(self, case):
        chain = _compile(case)
        indptr, dst, cnt = chain.csr()
        assert indptr[0] == 0 and indptr[-1] == chain.num_transitions
        for sid in range(chain.num_states):
            lo, hi = int(indptr[sid]), int(indptr[sid + 1])
            assert tuple(
                zip(dst[lo:hi].tolist(), cnt[lo:hi].tolist())
            ) == chain.out_edges(sid)
        # A transported chain derives the very same arrays.
        for got, want in zip(_round_trip(chain).csr(), (indptr, dst, cnt)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_csr_is_derived_once_per_chain(self):
        chain = _compile("blackboard")
        first = chain.csr()
        assert chain.csr() is first

    def test_pickle_carries_only_the_out_table(self):
        chain = _compile("adversarial")
        chain.csr()
        chain.coo()
        chain.levels()
        state = chain.__getstate__()
        assert set(state) == {"key", "n", "k", "labels", "_out"}
        clone = _round_trip(chain)
        # Derived arrays are rebuilt lazily on the receiving side.
        assert clone._csr is None
        assert clone._coo is None
        assert clone._levels is None
        assert clone.levels() == chain.levels()


class TestLookupOrder:
    def test_memo_hit_never_touches_the_disk(self, cache_dir, monkeypatch):
        chain = _compile("blackboard")
        monkeypatch.setattr(
            ChainDiskCache,
            "load",
            lambda self, key: pytest.fail(
                "memo-warm chain was loaded from disk"
            ),
        )
        assert _compile("blackboard") is chain

    def test_disk_hit_skips_compilation(self, cache_dir, monkeypatch):
        chain = _compile("adversarial")
        clear_memo()
        monkeypatch.setattr(
            engine_module,
            "_build_chain",
            lambda key, alpha: pytest.fail(
                "disk-warm chain was compiled again"
            ),
        )
        loaded = _compile("adversarial")
        assert loaded is not chain
        assert loaded.key == chain.key
        assert loaded.out_table() == chain.out_table()
        # The disk hit now sits in the memo: no second load.
        assert _compile("adversarial") is loaded

    def test_cold_lookup_compiles_and_persists(self, cache_dir):
        assert len(disk_cache()) == 0
        chain = _compile("round-robin")
        assert len(disk_cache()) == 1
        assert disk_cache().path_for(chain.key).exists()
        assert _compile("round-robin") is chain

    def test_vanished_disk_entry_degrades_to_a_compile(self, cache_dir):
        chain = _compile("blackboard")
        disk_cache().path_for(chain.key).unlink()
        clear_memo()
        again = _compile("blackboard")
        assert again.out_table() == chain.out_table()
        # The recompile wrote the entry back for the next worker.
        assert disk_cache().path_for(chain.key).exists()

    def test_digest_collision_is_rejected_by_full_key(self, cache_dir):
        chain = _compile("blackboard")
        other = _compile("adversarial")
        # Plant the other chain's pickle under this chain's file name.
        path = disk_cache().path_for(chain.key)
        path.write_bytes(pickle.dumps(other))
        clear_memo()
        got = _compile("blackboard")
        assert got.key == chain.key
        assert got.out_table() == chain.out_table()
        # The bad entry was overwritten with the right chain.
        assert disk_cache().load(chain.key).key == chain.key

    def test_counters_follow_memo_disk_compile(self, cache_dir):
        configure_tracing(True)
        reset_telemetry()
        try:
            _compile("ring")  # miss: compiled and stored
            _compile("ring")  # memo
            clear_memo()
            _compile("ring")  # disk
            counters = OBS.metrics.snapshot()["counters"]
        finally:
            configure_tracing(False)
            reset_telemetry()
        assert counters["chain.compile.miss"] == 1
        assert counters["chain.compile.hit.memo"] == 1
        assert counters["chain.compile.hit.disk"] == 1
        assert counters["chain.cache.stores"] == 1

    def test_without_a_disk_cache_a_cleared_memo_recompiles(
        self, monkeypatch
    ):
        assert disk_cache() is None
        chain = _compile("blackboard")
        clear_memo()
        built = []
        original = engine_module._build_chain

        def counting_build(key, alpha):
            built.append(key)
            return original(key, alpha)

        monkeypatch.setattr(engine_module, "_build_chain", counting_build)
        again = _compile("blackboard")
        assert built == [chain.key]
        assert again.out_table() == chain.out_table()


class TestGroupsOfTransportedChains:
    def _chains(self):
        chains = []
        for shape in enumerate_size_shapes(4):
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            chains.append(compile_chain(alpha, use_memo=False))
            chains.append(compile_chain(
                alpha, adversarial_assignment(shape), use_memo=False
            ))
        return chains

    def test_group_of_round_tripped_chains_is_identical(self):
        chains = self._chains()
        rebuilt = [_round_trip(chain) for chain in chains]

        def items(group_chains):
            items = []
            for chain in group_chains:
                task = leader_election(chain.n)
                items.append((chain, [
                    Query.probability(task, 3),
                    Query.series(task, 5),
                    Query.limit(task),
                    Query.expected_time(task),
                    Query.solvable(task),
                ]))
            return items

        want = run_group_queries(items(chains), backend="float")
        got = run_group_queries(items(rebuilt), backend="float")
        # Same COO arrays and level schedule: bitwise-identical floats.
        assert got == want

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_group_queries_match_through_disk_loaded_chains(
        self, tmp_path, backend
    ):
        chains = self._chains()
        store = ChainDiskCache(tmp_path / "chains")
        for chain in chains:
            store.store(chain)
        loaded = [store.load(chain.key) for chain in chains]
        assert all(chain is not None for chain in loaded)

        def items(group_chains):
            return [
                (chain, [
                    Query.limit(runner_spec.make_task("leader", chain.n)),
                    Query.series(
                        runner_spec.make_task("leader", chain.n), 5
                    ),
                ])
                for chain in group_chains
            ]

        want = run_group_queries(items(chains), backend=backend)
        got = run_group_queries(items(loaded), backend=backend)
        # Same out tables, same passes: bitwise-identical answers.
        assert got == want

    def test_disk_entries_are_keyed_per_chain(self, tmp_path):
        chains = self._chains()
        store = ChainDiskCache(tmp_path / "chains")
        for chain in chains:
            store.store(chain)
        assert len(store) == len({chain.key for chain in chains})
        assert len({store.path_for(chain.key) for chain in chains}) == len(
            chains
        )
        assert chain_key(
            RandomnessConfiguration.from_group_sizes((4,))
        ) in {chain.key for chain in chains}
