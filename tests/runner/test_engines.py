"""Engines: ordering contract and worker-count-independent determinism."""

import json

import pytest

from repro.analysis.report import result_to_dict
from repro.runner import (
    ProcessPoolEngine,
    SerialEngine,
    SweepSpec,
    make_engine,
    run_sweep,
)
from repro.runner.worker import execute_run


def _aggregate_bytes(outcome) -> str:
    return json.dumps(result_to_dict(outcome.result()), sort_keys=True)


class TestEngineContract:
    def test_serial_preserves_order(self):
        engine = SerialEngine()
        out = list(engine.map(lambda p: p["i"] * 2, [{"i": i} for i in range(9)]))
        assert out == [i * 2 for i in range(9)]

    def test_process_preserves_order(self):
        engine = ProcessPoolEngine(workers=2, chunksize=2)
        payloads = [
            {"spec": {"sizes": [1, 1]}, "master_seed": 0, "index": i}
            for i in range(5)
        ]
        records = list(engine.map(execute_run, payloads))
        assert [r["index"] for r in records] == list(range(5))

    def test_process_empty_payloads(self):
        assert list(ProcessPoolEngine(workers=2).map(execute_run, [])) == []

    def test_process_streams_generator_payloads_in_order(self):
        # A generator of payloads is consumed in full, and the records
        # come back in payload order.
        engine = ProcessPoolEngine(workers=2)
        payloads = (
            {"spec": {"sizes": [1, 1]}, "master_seed": 0, "index": i}
            for i in range(10)
        )
        records = list(engine.map(execute_run, payloads))
        assert [r["index"] for r in records] == list(range(10))

    def test_make_engine(self):
        assert isinstance(make_engine("serial"), SerialEngine)
        engine = make_engine("process", workers=3)
        assert isinstance(engine, ProcessPoolEngine)
        assert engine.workers == 3
        with pytest.raises(ValueError):
            make_engine("threads")

    def test_bad_worker_counts(self):
        with pytest.raises(ValueError):
            ProcessPoolEngine(workers=0)
        with pytest.raises(ValueError):
            ProcessPoolEngine(chunksize=0)


class TestDeterminism:
    def test_exact_sweep_identical_serial_vs_process(self):
        sweep = SweepSpec.for_total_size(
            4, models=("blackboard", "clique"), master_seed=7
        )
        serial = run_sweep(sweep, engine=SerialEngine())
        pooled = run_sweep(sweep, engine=ProcessPoolEngine(workers=3))
        assert _aggregate_bytes(serial) == _aggregate_bytes(pooled)

    def test_sample_sweep_identical_for_one_vs_many_workers(self):
        # The sampling kind actually consumes the derived seeds, so this
        # is the sharp test: identical bytes for 1 vs N workers.
        sweep = SweepSpec(
            shapes=((1, 2), (2, 2)),
            models=("blackboard", "clique"),
            ports=("adversarial", "random"),
            kind="sample",
            t=3,
            samples=120,
            replicates=(0, 1),
            master_seed=42,
        )
        one = run_sweep(sweep, engine=ProcessPoolEngine(workers=1))
        many = run_sweep(sweep, engine=ProcessPoolEngine(workers=4, chunksize=1))
        serial = run_sweep(sweep, engine=SerialEngine())
        assert _aggregate_bytes(one) == _aggregate_bytes(many)
        assert _aggregate_bytes(one) == _aggregate_bytes(serial)

    def test_master_seed_changes_sampled_results(self):
        sweep = SweepSpec(
            shapes=((2, 3),),
            models=("clique",),
            kind="sample",
            t=2,
            samples=200,
            master_seed=0,
        )
        other = SweepSpec.from_dict({**sweep.to_dict(), "master_seed": 1})
        a = run_sweep(sweep).records[0]["value"]
        b = run_sweep(other).records[0]["value"]
        assert a != b  # 200 samples at t=2: collision is ~impossible
