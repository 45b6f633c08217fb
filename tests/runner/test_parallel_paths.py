"""Runner-backed parallel paths in the analysis package."""

from repro.analysis import (
    estimate_solving_probability,
    parallel_estimate,
    run_all_experiments,
)
from repro.core import ConsistencyChain, leader_election
from repro.randomness import RandomnessConfiguration
from repro.runner import ProcessPoolEngine, SerialEngine
from repro.runner.worker import execute_experiment


class TestParallelEstimate:
    def test_engine_independent(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        serial = parallel_estimate(
            alpha, task, 3, samples=120, batches=6, seed=9
        )
        pooled = parallel_estimate(
            alpha, task, 3, samples=120, batches=6, seed=9,
            engine=ProcessPoolEngine(workers=3, chunksize=1),
        )
        assert serial == pooled

    def test_interval_brackets_exact_value(self):
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        task = leader_election(3)
        exact = float(ConsistencyChain(alpha).solving_probability(task, 3))
        estimate = parallel_estimate(alpha, task, 3, samples=4000, batches=8)
        assert abs(estimate.probability - exact) < 0.05

    def test_batching_changes_stream_but_stays_sane(self):
        # Different batch counts give different (seeded) streams; both
        # must remain valid estimates of the same probability.
        alpha = RandomnessConfiguration.from_group_sizes((1, 1))
        task = leader_election(2)
        one = parallel_estimate(alpha, task, 4, samples=300, batches=1)
        many = parallel_estimate(alpha, task, 4, samples=300, batches=10)
        assert one.samples == many.samples == 300
        assert abs(one.probability - many.probability) < 0.15


class TestExperimentFanOut:
    def test_worker_returns_the_result_with_native_cell_types(self):
        from repro.analysis import ALL_EXPERIMENTS

        record = execute_experiment({"index": 0})
        direct = ALL_EXPERIMENTS[0]()
        assert record["result"].experiment_id == direct.experiment_id
        assert record["result"].passed == direct.passed
        # The record carries the object itself (pickled across the pool
        # boundary), so cells keep their types: run_all_experiments is
        # engine-equivalent, not JSON-round-tripped.
        assert record["result"].rows == direct.rows

    def test_serial_engine_takes_the_legacy_path(self):
        from unittest import mock

        from repro.analysis import ALL_EXPERIMENTS

        # A serial engine must not round-trip results through JSON (cells
        # keep their original types), i.e. the worker is never consulted.
        with mock.patch(
            "repro.analysis.ALL_EXPERIMENTS", (ALL_EXPERIMENTS[0],)
        ), mock.patch(
            "repro.runner.worker.execute_experiment",
            side_effect=AssertionError("serial path must not use the worker"),
        ):
            results = run_all_experiments(engine=SerialEngine())
        assert len(results) == 1
        assert results[0].experiment_id == ALL_EXPERIMENTS[0]().experiment_id

    def test_pooled_experiments_match_serial(self):
        serial = run_all_experiments()
        pooled = run_all_experiments(ProcessPoolEngine(workers=2))
        assert [
            (result.experiment_id, result.passed, result.rows)
            for result in pooled
        ] == [
            (result.experiment_id, result.passed, result.rows)
            for result in serial
        ]
