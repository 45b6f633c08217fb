"""Job execution functions, safe to ship into worker processes.

Everything here is a module-level function taking one JSON-ish payload
dict and returning one JSON-ish record dict, so ``ProcessPoolExecutor``
can pickle the callable by reference and the arguments by value.  The
payload carries the sweep's master seed; the job's private seed is
re-derived *inside* the worker from ``(master_seed, job_key)``, so the
result cannot depend on which worker ran the job or in what order.

Imports of :mod:`repro.analysis` stay inside function bodies: the
analysis package grows runner-backed parallel paths of its own, and
module-level imports in either direction would be circular.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from fractions import Fraction

from ..chain import CompiledChain, Query, compile_chain, effective_chain_key
from ..chain.batch import memoized_answers
from ..chain.multi import answer_misses
from ..context import ExecutionContext, current_context, use_context
from ..obs import (
    OBS,
    configure_tracing,
    drain_telemetry,
    trace,
    tracing_enabled,
)
from ..randomness.configuration import RandomnessConfiguration
from ..sampling import sample_cell, sample_range
from .spec import RunSpec, derive_seed, make_ports, make_task


def payload_context(**changes) -> ExecutionContext:
    """The context a job payload carries: the caller's, with ``changes``.

    ``trace`` is set from this process's tracing switch, so a pool
    worker traces exactly when its parent does.
    """
    return replace(current_context(), trace=tracing_enabled(), **changes)


def _runs_in_payload_context(execute):
    """Run ``execute(payload)`` inside the context the payload carries.

    A payload's ``"context"`` is the caller's
    :class:`~repro.context.ExecutionContext` (a payload without one runs
    under the library defaults), so a job sees the same context in this
    process or in a pool worker.  The tracing switch follows the
    context's ``trace`` flag for the job.  Both are restored when the
    job returns or raises: nothing a job enters outlives it.
    """

    @functools.wraps(execute)
    def run(payload: dict):
        context = payload.get("context") or ExecutionContext()
        tracing = configure_tracing(context.trace)
        try:
            with use_context(context):
                return execute(payload)
        finally:
            configure_tracing(tracing)

    return run


def _exact_value(limit: Fraction) -> dict:
    """The value fields of an exact-job record (one shape, every path)."""
    return {
        "limit": str(limit),
        "limit_float": float(limit),
        "solvable": limit == 1,
    }


def _job_record(payload: dict, spec: RunSpec, key: str, seed: int,
                gcd: int, value: dict) -> dict:
    """One job record, ``elapsed`` left at 0.0 for the caller to fill
    in; exact and sampled jobs, grouped or not, share this shape."""
    return {
        "key": key,
        "index": int(payload.get("index", 0)),
        "spec": spec.to_dict(),
        "seed": seed,
        "gcd": gcd,
        "value": value,
        "elapsed": 0.0,
    }


def _exact_records(jobs: list[dict], specs: list[RunSpec]) -> tuple:
    """``(records, stats)`` of exact jobs: one record per job, in order.

    A *family* -- a run of adjacent jobs with equal ``(sizes, ports)``,
    or one random-port job -- shares one chain, so alpha, the port
    table and the effective chain key (computable without compiling)
    are built once per family, and its cells are looked up through the
    query front door's :func:`~repro.chain.batch.memoized_answers`.
    Only families with a miss compile; all misses are answered and
    recorded in one :func:`~repro.chain.multi.answer_misses` pass.
    """
    with trace("group.prepare"):
        keys = [spec.job_key for spec in specs]
        seeds = [
            derive_seed(int(job.get("master_seed", 0)), key)
            for job, key in zip(jobs, keys)
        ]
        runs: list[list[int]] = []
        previous = None
        for i, spec in enumerate(specs):
            family = (spec.sizes, spec.ports)
            if family != previous or spec.ports == "random":
                runs.append([])
            runs[-1].append(i)
            previous = family
        #: (job indices, gcd, limits) per family; misses filled below.
        families: list[tuple] = []
        #: id(chain) -> (chain, queries and memo tokens of the misses,
        #: (family limits, position) each answer goes to).
        items: dict[int, tuple[CompiledChain, list, list, list]] = {}
        memo_hits = 0
        for run in runs:
            head = specs[run[0]]
            alpha = RandomnessConfiguration.from_group_sizes(head.sizes)
            # Random ports get a stream split off the job seed, disjoint
            # from any other use of it.
            ports = make_ports(head.ports, head.sizes,
                               derive_seed(seeds[run[0]], "ports"))
            queries = [
                Query.limit(make_task(specs[i].task, alpha.n)) for i in run
            ]
            limits, tokens, misses = memoized_answers(
                effective_chain_key(alpha, ports), queries, "exact"
            )
            memo_hits += len(run) - len(misses)
            if misses:
                chain = compile_chain(alpha, ports)
                _, chain_queries, chain_tokens, slots = items.setdefault(
                    id(chain), (chain, [], [], [])
                )
                chain_queries += [queries[i] for i in misses]
                chain_tokens += [tokens[i] for i in misses]
                slots += [(limits, i) for i in misses]
            families.append((run, alpha.gcd, limits))
    with trace("group.evolve"):
        answered = answer_misses([item[:3] for item in items.values()])
        for (*_, slots), answers in zip(items.values(), answered):
            for (limits, i), limit in zip(slots, answers):
                limits[i] = limit
    with trace("group.serialize"):
        records = [
            _job_record(jobs[i], specs[i], keys[i], seeds[i], gcd,
                        _exact_value(limit))
            for run, gcd, limits in families
            for i, limit in zip(run, limits)
        ]
    chains = [chain for chain, *_ in items.values()]
    stats = {
        "jobs": len(jobs),
        "chains": len(chains),
        "states": sum(chain.num_states for chain in chains),
        "transitions": sum(chain.num_transitions for chain in chains),
        "memo_hits": memo_hits,
    }
    return records, stats


def _sample_record(payload: dict, spec: RunSpec) -> dict:
    """The record of one Monte-Carlo job.

    The substream is keyed by the spec's *stream key* -- the cell axes
    minus samples/task/t -- so a rerun at a larger budget extends (and
    memo-merges with) this run's blocks, and cells differing only in
    task or horizon share trials (common random numbers).  Random ports
    draw from the same stream-stable root for the same reason: the
    cell identity must not change when only the budget does.
    """
    master_seed = int(payload.get("master_seed", 0))
    key = spec.job_key
    alpha = RandomnessConfiguration.from_group_sizes(spec.sizes)
    stream = derive_seed(master_seed, "mc\x1f" + spec.stream_key)
    ports = make_ports(spec.ports, spec.sizes, derive_seed(stream, "ports"))
    with trace("job.sample", samples=spec.samples):
        estimate = sample_cell(
            alpha,
            make_task(spec.task, alpha.n),
            spec.t,
            ports,
            stream_seed=stream,
            samples=spec.samples,
        )
    value = {
        "estimate": estimate.probability,
        "successes": estimate.successes,
        "samples": estimate.samples,
    }
    return _job_record(payload, spec, key, derive_seed(master_seed, key),
                       alpha.gcd, value)


@_runs_in_payload_context
def execute_run(payload: dict) -> dict:
    """Execute one :class:`~repro.runner.spec.RunSpec` job.

    ``payload`` is ``{"spec": <RunSpec dict>, "master_seed": int,
    "index": int}`` plus an optional ``"context"``; the
    result record echoes the spec, its key and index (aggregation
    order), the derived seed, and the job's value fields.  An exact job
    is a group of one through the grouped path's preparation.
    """
    spec = RunSpec.from_dict(payload["spec"])
    with trace("runner.job", key=spec.job_key, kind=spec.kind) as timer:
        if spec.kind == "exact":
            (record,), _ = _exact_records([payload], [spec])
        else:
            record = _sample_record(payload, spec)
    record["elapsed"] = timer.duration
    if OBS.enabled:
        OBS.metrics.inc("runner.jobs")
        # Telemetry rides *next to* the record fields under a key the
        # sweep orchestrator pops before persistence -- record bytes
        # stay identical with tracing on or off.
        record["_telemetry"] = drain_telemetry()
    return record


@_runs_in_payload_context
def execute_run_group(payload: dict) -> dict:
    """Execute a whole group of exact jobs in one grouped query pass.

    ``payload`` is ``{"jobs": [<execute_run payloads>...]}`` plus the
    ``"context"`` the whole group runs in.  The
    sweep dispatcher packs contiguous chain families into these groups
    so a worker pays one payload round trip and one grouped query pass
    for a whole slice of the grid instead of one of each per grid point.
    The returned record carries the member job records, each
    field-identical to what :func:`execute_run` would have produced
    (``elapsed`` is the group's wall clock split evenly -- per-job
    timing has no meaning inside a shared pass).

    The result additionally carries a ``"group"`` diagnostics dict --
    chains compiled, their total size, and the memo hit count -- which
    the sweep orchestrator hands back in
    :attr:`~repro.runner.sweep.SweepOutcome.group_stats` (deliberately
    *outside* the job records, whose bytes stay engine- and
    warmth-independent).
    """
    jobs = payload["jobs"]
    with trace("runner.group", jobs=len(jobs)) as timer:
        records, group = _exact_records(
            jobs, [RunSpec.from_dict(job["spec"]) for job in jobs]
        )
    # ``elapsed`` is the group's wall clock, known only once its span
    # has closed.
    group["elapsed"] = timer.duration
    elapsed = timer.duration / max(1, len(records))
    for record in records:
        record["elapsed"] = elapsed
    result = {"records": records, "group": group}
    if OBS.enabled:
        OBS.metrics.inc("runner.groups")
        OBS.metrics.inc("runner.jobs", len(records))
        result["telemetry"] = drain_telemetry()
    return result


@_runs_in_payload_context
def execute_experiment(payload: dict) -> dict:
    """Run one registered experiment generator by registry index.

    ``payload`` is ``{"index": int}`` into ``ALL_EXPERIMENTS``; the record
    carries the :class:`~repro.analysis.result.ExperimentResult` *object*
    (pickled across the pool boundary), so row cells keep their native
    types -- ``run_all_experiments`` returns identical results whatever
    the engine.
    """
    from ..analysis import ALL_EXPERIMENTS

    index = int(payload["index"])
    with trace("runner.experiment", index=index) as timer:
        result = ALL_EXPERIMENTS[index]()
    record = {
        "index": index,
        "result": result,
        "elapsed": timer.duration,
    }
    if OBS.enabled:
        OBS.metrics.inc("runner.experiments")
        # Telemetry rides next to the live result object; the parent
        # (``iter_all_experiments``) pops and folds it, so experiment
        # results stay identical with tracing on or off.
        record["telemetry"] = drain_telemetry()
    return record


@_runs_in_payload_context
def execute_sample_batch(payload: dict) -> dict:
    """Monte-Carlo-sample one substream range for the parallel estimator.

    ``payload`` carries pickled ``alpha``/``task``/``ports`` objects plus
    ``t``, the stream ``seed``, and the batch's half-open sample range
    ``[start, stop)``.  Integer success counts over disjoint ranges of
    one stream sum exactly to the whole-range count (the kernel's merge
    law), so any partition of the budget across any engine reassembles
    the same estimate.
    """
    start = int(payload["start"])
    stop = int(payload["stop"])
    estimate = sample_range(
        payload["alpha"],
        payload["task"],
        int(payload["t"]),
        payload.get("ports"),
        stream_seed=int(payload["seed"]),
        start=start,
        stop=stop,
    )
    return {
        "successes": estimate.successes,
        "samples": estimate.samples,
    }


__all__ = [
    "execute_experiment",
    "execute_run",
    "execute_run_group",
    "execute_sample_batch",
    "payload_context",
]
