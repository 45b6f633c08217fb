"""The execution context: scoped, carried in payloads, never leaked.

Every entry point that runs jobs -- ``run_sweep``, ``parallel_estimate``
and each ``execute_*`` worker function -- must leave
``current_context()`` exactly as it found it, and serial jobs must run
under the caller's context rather than silently dropping its memo.
"""

import dataclasses
import pickle

import pytest

from repro.analysis import parallel_estimate
from repro.chain import clear_memo
from repro.context import (
    QUOTIENT_MODES,
    ExecutionContext,
    current_context,
    use_context,
)
from repro.core import leader_election
from repro.obs import OBS, reset_telemetry
from repro.randomness import RandomnessConfiguration
from repro.results.memo import query_memo
from repro.runner import SerialEngine, SweepSpec, run_sweep
from repro.runner.worker import (
    execute_experiment,
    execute_run,
    execute_run_group,
    execute_sample_batch,
)


def _run_payload(**extra):
    spec = {
        "sizes": [1, 2], "model": "blackboard", "ports": "none",
        "task": "leader", "kind": "exact", "t": 4,
        "samples": 100, "replicate": 0,
    }
    return {"spec": spec, "master_seed": 0, "index": 0, **extra}


def _sample_payload(**extra):
    return {
        "alpha": RandomnessConfiguration.from_group_sizes((1, 2)),
        "task": leader_election(3),
        "ports": None,
        "t": 3,
        "start": 0,
        "stop": 1000,
        "seed": 5,
        **extra,
    }


class TestUseContext:
    def test_restores_the_previous_context_even_on_error(self, tmp_path):
        before = current_context()
        inner = ExecutionContext(results_memo=tmp_path)
        with pytest.raises(RuntimeError):
            with use_context(inner):
                assert current_context() is inner
                raise RuntimeError("job failed")
        assert current_context() is before

    def test_paths_are_stored_as_strings_and_pickle(self, tmp_path):
        context = ExecutionContext(results_memo=tmp_path / "memo")
        assert context.results_memo == str(tmp_path / "memo")
        assert context == ExecutionContext(results_memo=str(tmp_path / "memo"))
        assert pickle.loads(pickle.dumps(context)) == context


class TestTheValue:
    def test_three_fields_with_the_library_defaults(self):
        fields = {
            field.name: field.default
            for field in dataclasses.fields(ExecutionContext)
        }
        assert fields == {
            "quotient": "off",
            "results_memo": None,
            "trace": False,
        }

    @pytest.mark.parametrize("mode", QUOTIENT_MODES)
    def test_every_quotient_mode_is_accepted(self, mode):
        assert ExecutionContext(quotient=mode).quotient == mode

    def test_an_unknown_quotient_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown quotient mode"):
            ExecutionContext(quotient="sometimes")

    def test_the_value_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionContext().trace = True  # type: ignore[misc]

    def test_replace_normalises_paths_again(self, tmp_path):
        context = dataclasses.replace(
            ExecutionContext(), results_memo=tmp_path / "memo"
        )
        assert context.results_memo == str(tmp_path / "memo")

    def test_nested_blocks_unwind_in_order(self):
        outer = ExecutionContext(quotient="on")
        inner = ExecutionContext(trace=True)
        before = current_context()
        with use_context(outer):
            with use_context(inner):
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is before


class TestWorkersRestoreTheContext:
    @pytest.mark.parametrize(
        "execute, payload",
        [
            (execute_run, _run_payload),
            (execute_run_group, lambda **extra: {
                "jobs": [_run_payload()], **extra
            }),
            (execute_experiment, lambda **extra: {"index": 0, **extra}),
            (execute_sample_batch, _sample_payload),
        ],
        ids=["run", "run_group", "experiment", "sample_batch"],
    )
    def test_the_callers_context_and_tracing_survive_a_job(
        self, execute, payload, tmp_path
    ):
        caller = ExecutionContext(quotient="on")
        job = ExecutionContext(results_memo=tmp_path / "memo", trace=True)
        with use_context(caller):
            record = execute(payload(context=job))
            assert current_context() is caller
        assert not OBS.enabled
        assert record
        reset_telemetry()

    def test_a_failing_job_restores_context_and_tracing(self):
        before = current_context()
        with pytest.raises(KeyError):
            execute_run({"context": ExecutionContext(trace=True)})
        assert current_context() is before
        assert not OBS.enabled


class TestSerialPathsKeepTheCallersContext:
    def test_serial_sweep_without_run_dir_uses_the_callers_memo(
        self, tmp_path
    ):
        clear_memo()
        mine = ExecutionContext(results_memo=tmp_path / "memo")
        sweep = SweepSpec.for_total_size(3, models=("blackboard",))
        with use_context(mine):
            run_sweep(sweep, engine=SerialEngine())
            assert current_context() is mine
            # Every job recorded its answer in the caller's memo.
            assert len(query_memo()) == len(sweep.expand())
        clear_memo()

    def test_serial_parallel_estimate_uses_the_callers_memo(self, tmp_path):
        mine = ExecutionContext(results_memo=tmp_path / "memo")
        alpha = RandomnessConfiguration.from_group_sizes((1, 2))
        with use_context(mine):
            parallel_estimate(
                alpha, leader_election(3), 3, samples=2000, batches=2
            )
            assert current_context() is mine
            # Both 1000-trial batches are full blocks: both memoized.
            assert len(query_memo()) == 2
