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
    _family_state_weight,
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
            families = {}
            for payload in group["jobs"]:
                spec = jobs[payload["index"]]
                families.setdefault(
                    (spec.sizes, spec.model, spec.ports, spec.replicate),
                    _family_state_weight(spec),
                )
            total = sum(families.values())
            # Either the bin fits the budget or it is a single family
            # too big to split.
            assert total <= MAX_GROUP_STATES or len(families) == 1

    def test_exact_sweep_grid_bins_are_pinned(self):
        # The pooled n=9 benchmark grid (both models, three port kinds,
        # two workers, quotient "auto" as the CLI runs it) packs into 83
        # bins starting at these job indices; a drift in the state
        # budget or the weight estimate moves them.
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
            0, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 18, 19, 21, 22, 23, 25,
            26, 27, 29, 30, 31, 33, 34, 35, 37, 38, 39, 41, 42, 43, 45, 46,
            47, 49, 50, 51, 53, 54, 55, 57, 58, 59, 61, 62, 63, 65, 66, 67,
            69, 70, 71, 73, 74, 75, 77, 78, 79, 81, 82, 83, 85, 86, 87, 89,
            90, 91, 93, 94, 95, 97, 98, 99, 101, 102, 103, 107, 110, 111,
            113, 114, 115, 119,
        ]

    def test_weight_uses_compiled_states_when_available(self):
        shape = (2, 3)
        spec = SweepSpec(shapes=(shape,), models=("clique",)).expand()[0]
        estimated = _family_state_weight(spec)
        chain = compile_chain(
            RandomnessConfiguration.from_group_sizes(shape),
            adversarial_assignment(shape),
        )
        assert _family_state_weight(spec) == chain.num_states
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
