"""Sweep <-> warehouse integration: memo-warm reruns, columnar resume,
state-budget bin packing, and group forensics."""

import json

import pytest

from repro.chain import clear_memo, compile_chain
from repro.context import ExecutionContext, use_context
from repro.models import adversarial_assignment
from repro.randomness import RandomnessConfiguration, enumerate_size_shapes
from repro.results import ResultsStore
from repro.runner import ProcessPoolEngine, SerialEngine, SweepSpec, run_sweep
from repro.runner.sweep import (
    MAX_GROUP_STATES,
    _bin_engine,
    _family_chain,
    _group_job_payloads,
)


@pytest.fixture
def sweep():
    return SweepSpec(
        shapes=((2, 3), (1, 2, 2), (5,), (1, 4)),
        models=("blackboard", "clique"),
        tasks=("leader", "k-leader:2"),
    )


def stripped(path):
    return [
        {k: v for k, v in json.loads(line).items() if k != "elapsed"}
        for line in path.read_text().splitlines()
    ]


class TestWarehouseWiring:
    def test_run_dir_gets_a_default_warehouse(self, tmp_path, sweep):
        outcome = run_sweep(sweep, run_dir=tmp_path / "run")
        store = ResultsStore(tmp_path / "run" / "warehouse")
        assert store.total_rows("records") == outcome.total

    def test_warehouse_false_opts_out(self, tmp_path, sweep):
        run_sweep(sweep, run_dir=tmp_path / "run", warehouse=False)
        assert not (tmp_path / "run" / "warehouse").exists()

    def test_resume_reads_column_pages(self, tmp_path, sweep):
        first = run_sweep(sweep, run_dir=tmp_path / "run")
        resumed = run_sweep(sweep, run_dir=tmp_path / "run")
        assert resumed.executed == 0
        assert resumed.resumed == first.total
        assert resumed.result().rows == first.result().rows

    def test_shared_warehouse_makes_overlapping_sweeps_warm(
        self, tmp_path, sweep
    ):
        warehouse = tmp_path / "shared"
        run_sweep(sweep, run_dir=tmp_path / "a", warehouse=warehouse)
        clear_memo()
        # A *different* sweep whose cells overlap: same shapes/tasks,
        # different axis packaging -- every cell hits the shared memo.
        overlap = SweepSpec(
            shapes=sweep.shapes[:2],
            models=("clique",),
            tasks=sweep.tasks,
        )
        outcome = run_sweep(
            overlap, run_dir=tmp_path / "b", warehouse=warehouse
        )
        assert sum(g["memo_hits"] for g in outcome.group_stats) == (
            outcome.total
        )

    def test_warm_records_match_cold_without_pool(self, tmp_path, sweep):
        warehouse = tmp_path / "shared"
        run_sweep(sweep, run_dir=tmp_path / "cold", warehouse=warehouse)
        clear_memo()
        run_sweep(sweep, run_dir=tmp_path / "warm", warehouse=warehouse)
        assert stripped(tmp_path / "cold" / "records.jsonl") == stripped(
            tmp_path / "warm" / "records.jsonl"
        )

    def test_pooled_sweep_matches_serial_with_warehouse(
        self, tmp_path, sweep
    ):
        run_sweep(sweep, run_dir=tmp_path / "serial")
        pooled = run_sweep(
            sweep,
            engine=ProcessPoolEngine(workers=2),
            run_dir=tmp_path / "pooled",
        )
        assert stripped(tmp_path / "serial" / "records.jsonl") == sorted(
            stripped(tmp_path / "pooled" / "records.jsonl"),
            key=lambda r: r["index"],
        )
        assert pooled.executed == pooled.total


class TestGroupForensics:
    def test_group_stats_cover_every_job(self, tmp_path, sweep):
        outcome = run_sweep(sweep, run_dir=tmp_path / "run")
        assert sum(g["jobs"] for g in outcome.group_stats) == outcome.total
        for stats in outcome.group_stats:
            assert stats["chains"] > 0
            assert stats["states"] > 0
            assert stats["transitions"] > 0

    def test_fully_memoized_groups_record_memo(self, tmp_path, sweep):
        warehouse = tmp_path / "shared"
        run_sweep(sweep, run_dir=tmp_path / "cold", warehouse=warehouse)
        clear_memo()
        warm = run_sweep(sweep, run_dir=tmp_path / "warm",
                         warehouse=warehouse)
        assert warm.group_stats
        for stats in warm.group_stats:
            assert stats["memo_hits"] == stats["jobs"]
            assert stats["chains"] == stats["states"] == 0

    def test_group_stats_stay_out_of_job_records(self, tmp_path, sweep):
        run_sweep(sweep, run_dir=tmp_path / "run")
        for record in stripped(tmp_path / "run" / "records.jsonl"):
            assert set(record) == {
                "key", "index", "spec", "seed", "gcd", "value",
            }


class TestStateBudgetPacking:
    def _payloads(self, sweep):
        jobs = sweep.expand()
        payloads = [
            {"spec": spec.to_dict(), "master_seed": 0, "index": i,
             "context": ExecutionContext()}
            for i, spec in enumerate(jobs)
        ]
        return jobs, payloads

    def test_bins_are_contiguous_index_ranges(self, sweep):
        jobs, payloads = self._payloads(sweep)
        groups = _group_job_payloads(
            jobs, payloads, ProcessPoolEngine(workers=2)
        )
        assert groups is not None
        flattened = [
            payload["index"] for group in groups for payload in group["jobs"]
        ]
        assert flattened == list(range(len(jobs)))

    def test_bins_respect_the_state_budget(self, sweep):
        jobs, payloads = self._payloads(sweep)
        groups = _group_job_payloads(
            jobs, payloads, ProcessPoolEngine(workers=2)
        )
        for group in groups:
            chains = {}
            for payload in group["jobs"]:
                spec = jobs[payload["index"]]
                key, weight = _family_chain(spec)
                family = (spec.sizes, spec.model, spec.ports, spec.replicate)
                chains.setdefault(key or family, weight)
            total = sum(chains.values())
            # Either the bin fits the budget or it is a single chain
            # too big to split.
            assert total <= MAX_GROUP_STATES or len(chains) == 1

    def test_exact_sweep_grid_bins_are_pinned(self):
        # The pooled n=9 benchmark grid (both models, three port kinds,
        # two workers, quotient "auto" as the CLI runs it) packs into 57
        # bins starting at these job indices; a drift in the state
        # budget, the weight estimate or the chain marks moves them.
        # Adversarial and round-robin ports (indices 4s + 1 and 4s + 2
        # of shape s) share a chain on all shapes but (3, 3, 3) and
        # (3, 6), so they share a bin everywhere else.
        sweep = SweepSpec(
            shapes=tuple(enumerate_size_shapes(9)),
            models=("blackboard", "clique"),
            ports=("adversarial", "round-robin", "random"),
        )
        jobs, payloads = self._payloads(sweep)
        clear_memo()
        with use_context(ExecutionContext(quotient="auto")):
            groups = _group_job_payloads(
                jobs, payloads, ProcessPoolEngine(workers=2)
            )
        assert len(jobs) == 120
        assert [group["jobs"][0]["index"] for group in groups] == [
            0, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35,
            37, 39, 41, 43, 45, 47, 49, 51, 53, 55, 57, 59, 61, 63, 65, 67,
            69, 71, 73, 75, 77, 79, 81, 83, 85, 87, 89, 91, 93, 95, 97, 99,
            101, 103, 107, 110, 111, 113, 115, 119,
        ]

    def test_families_sharing_a_chain_share_a_bin(self, monkeypatch):
        import repro.runner.sweep

        # A one-state cap leaves every run alone in its bin: each bin is
        # then exactly one chain (or one random-port family).
        monkeypatch.setattr(repro.runner.sweep, "MAX_GROUP_STATES", 1)
        sweep = SweepSpec(
            shapes=((1, 2), (2, 2), (1, 1, 2)),
            models=("clique",),
            ports=("adversarial", "round-robin", "random"),
            tasks=("leader", "k-leader:2"),
        )
        jobs, payloads = self._payloads(sweep)
        with use_context(ExecutionContext(quotient="auto")):
            groups = _group_job_payloads(
                jobs, payloads, ProcessPoolEngine(workers=2)
            )
        bins = [
            [(jobs[p["index"]].sizes, jobs[p["index"]].ports)
             for p in group["jobs"][::2]]
            for group in groups
        ]
        # (2, 2) is the one shape whose adversarial and round-robin
        # tables differ; the other two share a chain and so a bin.
        assert bins == [
            [((1, 2), "adversarial"), ((1, 2), "round-robin")],
            [((1, 2), "random")],
            [((2, 2), "adversarial")],
            [((2, 2), "round-robin")],
            [((2, 2), "random")],
            [((1, 1, 2), "adversarial"), ((1, 1, 2), "round-robin")],
            [((1, 1, 2), "random")],
        ]

    def test_weight_uses_compiled_states_when_available(self):
        shape = (2, 3)
        spec = SweepSpec(shapes=(shape,), models=("clique",)).expand()[0]
        _, estimated = _family_chain(spec)
        chain = compile_chain(
            RandomnessConfiguration.from_group_sizes(shape),
            adversarial_assignment(shape),
        )
        assert _family_chain(spec) == (chain.key, chain.num_states)
        assert estimated >= chain.num_states  # Bell bound from above

    def test_heavy_families_split_across_bins(self):
        # 2 x n=7 families next to many n=2 families: job-count binning
        # used to hand one worker both heavy chains; weight binning
        # separates them.
        sweep = SweepSpec(
            shapes=((1, 6), (2, 5), (2,), (1, 1)),
            models=("clique",),
            tasks=("leader", "k-leader:2", "weak-sb"),
        )
        jobs, payloads = self._payloads(sweep)
        groups = _group_job_payloads(
            jobs, payloads, ProcessPoolEngine(workers=2)
        )
        heavy_bins = []
        for position, group in enumerate(groups):
            shapes = {
                tuple(jobs[p["index"]].sizes) for p in group["jobs"]
            }
            if shapes & {(1, 6), (2, 5)}:
                heavy_bins.append(position)
        assert len(heavy_bins) >= 2  # the two heavy families split

    def test_bin_budget_is_capped_by_max_group_states(self, sweep,
                                                      monkeypatch):
        import repro.runner.sweep

        # A one-state cap leaves every chain family alone in its bin.
        monkeypatch.setattr(repro.runner.sweep, "MAX_GROUP_STATES", 1)
        jobs, payloads = self._payloads(sweep)
        groups = _group_job_payloads(
            jobs, payloads, ProcessPoolEngine(workers=1)
        )

        def family(spec):
            return (spec.sizes, spec.model, spec.ports, spec.replicate)

        per_group = [
            {family(jobs[p["index"]]) for p in group["jobs"]}
            for group in groups
        ]
        assert all(len(families) == 1 for families in per_group)
        assert len(groups) == len({family(spec) for spec in jobs})

    def test_pool_dispatches_one_bin_per_task(self, tmp_path, sweep):
        """Bins are already balanced per worker: the pool must not
        re-chunk adjacent (equally heavy) bins onto one worker.  The
        caller's engine is left as it was; an explicit chunksize wins."""
        from repro.runner.worker import execute_run_group

        seen = []

        class SpyPool(ProcessPoolEngine):
            def map(self, fn, payloads):
                seen.append((fn, self.chunksize))
                return super().map(fn, payloads)

        engine = SpyPool(workers=2)
        run_sweep(sweep, engine=engine, run_dir=tmp_path / "run")
        assert seen == [(execute_run_group, 1)]
        assert engine.chunksize is None
        explicit = ProcessPoolEngine(workers=2, chunksize=3)
        assert _bin_engine(explicit) is explicit
        serial = SerialEngine()
        assert _bin_engine(serial) is serial

    def test_sampling_sweeps_and_single_jobs_are_not_grouped(self, sweep):
        engine = ProcessPoolEngine(workers=2)
        sampling = SweepSpec(
            shapes=sweep.shapes, kind="sample", samples=64, t=2
        )
        assert _group_job_payloads(*self._payloads(sampling), engine) is None
        jobs, payloads = self._payloads(sweep)
        assert _group_job_payloads(jobs, payloads[:1], engine) is None

    def test_group_payloads_forward_only_the_context(self, sweep):
        jobs, payloads = self._payloads(sweep)
        context = ExecutionContext(
            quotient="on",
            results_memo="memo",
            trace=True,
        )
        # Fields older parents put in every payload; workers no longer
        # read them, so group payloads must not carry them.
        retired = {"batch": False, "group_chains": False, "policy": {}}
        for payload in payloads:
            payload.update(context=context, **retired)
        groups = _group_job_payloads(
            jobs, payloads, ProcessPoolEngine(workers=2)
        )
        for group in groups:
            assert set(group) == {"jobs", "context"}
            assert group["context"] is context


def _families(jobs) -> int:
    """Runs of adjacent jobs sharing ``(sizes, ports)``: one chain each."""
    return sum(
        1
        for i, spec in enumerate(jobs)
        if i == 0 or (spec.sizes, spec.ports) != (
            jobs[i - 1].sizes, jobs[i - 1].ports
        )
    )


class TestFamilyPreparation:
    def test_warm_sweep_prepares_each_family_once(
        self, tmp_path, sweep, monkeypatch
    ):
        import repro.chain.batch
        import repro.runner.worker

        warehouse = tmp_path / "shared"
        run_sweep(sweep, run_dir=tmp_path / "cold", warehouse=warehouse)
        clear_memo()
        calls = {"make_ports": 0, "key_digest": 0}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(repro.runner.worker, "make_ports")
        count(repro.chain.batch, "key_digest")
        warm = run_sweep(sweep, run_dir=tmp_path / "warm",
                         warehouse=warehouse)
        jobs = sweep.expand()
        families = _families(jobs)
        assert warm.group_stats and warm.executed == len(jobs) > families
        assert sum(g["memo_hits"] for g in warm.group_stats) == len(jobs)
        assert calls == {"make_ports": families, "key_digest": families}

    def test_a_quotient_mode_flip_misses_instead_of_serving_stale_hits(
        self, tmp_path
    ):
        from repro.chain import effective_chain_key
        from repro.runner import make_ports

        sweep = SweepSpec(
            shapes=((2, 2), (1, 1, 2), (1, 3), (1, 2)),
            models=("blackboard", "clique"),
            ports=("round-robin",),
            tasks=("leader", "k-leader:2"),
        )
        jobs = sweep.expand()
        # Jobs whose effective chain key is the same under both modes:
        # only those may be served from memo entries written under "off".
        unchanged = 0
        for spec in jobs:
            alpha = RandomnessConfiguration.from_group_sizes(spec.sizes)
            ports = make_ports(spec.ports, spec.sizes, 0)
            unchanged += effective_chain_key(
                alpha, ports, quotient="off"
            ) == effective_chain_key(alpha, ports, quotient="auto")
        assert 0 < unchanged < len(jobs)

        warehouse = tmp_path / "shared"
        modes = {"off": ExecutionContext(quotient="off"),
                 "auto": ExecutionContext(quotient="auto")}
        for mode, context in modes.items():
            clear_memo()
            with use_context(context):
                run_sweep(
                    sweep,
                    run_dir=tmp_path / f"cold-{mode}",
                    warehouse=warehouse if mode == "off"
                    else tmp_path / "cold-auto-warehouse",
                )
        clear_memo()
        hits = {}
        for mode, context in modes.items():
            with use_context(context):
                warm = run_sweep(sweep, run_dir=tmp_path / f"warm-{mode}",
                                 warehouse=warehouse)
            hits[mode] = sum(g["memo_hits"] for g in warm.group_stats)
            assert stripped(tmp_path / f"warm-{mode}" / "records.jsonl") == (
                stripped(tmp_path / f"cold-{mode}" / "records.jsonl")
            )
        assert hits == {"off": len(jobs), "auto": unchanged}
