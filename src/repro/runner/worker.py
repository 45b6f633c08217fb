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

from ..chain import CompiledChain, Query, compile_chain
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


#: Structural chain digests by deterministic job family: the digest is
#: a pure function of ``(sizes, port kind)`` for non-random ports, and
#: hashing the structural key (neighbour tables) per job would otherwise
#: dominate a fully memo-served sweep.
_FAMILY_DIGESTS: dict[tuple, str] = {}


def _memo_lookup(spec: RunSpec, alpha, ports) -> tuple:
    """``(limit, token)``: the job's exact limit straight from the
    cross-run memo (``None`` on a miss) and its memo token (``None``
    without a memo).

    The memo key needs only the chain's *effective* key -- the
    structural key plus the quotient tag the context's quotient mode
    would compile under, computable from ``(alpha, ports)`` without
    compiling -- so a warm cell skips chain compilation entirely, not
    just the evolution pass.  The token is the very one
    :func:`repro.chain.run_queries` records under (``compile_chain``
    keys the chain by the same effective key), so a miss is computed
    and recorded through :func:`~repro.chain.multi.answer_misses`
    under it, without a second lookup.
    """
    from ..chain import effective_chain_key
    from ..chain.engine import key_digest
    from ..results.memo import MISS, query_memo, query_token

    memo = query_memo()
    if memo is None:
        return None, None
    if spec.ports == "random":
        digest = key_digest(effective_chain_key(alpha, ports))
    else:
        # Pool workers outlive sweeps: the quotient mode is part of the
        # family key so a mode flip never serves a stale digest.
        family = (spec.sizes, spec.ports, current_context().quotient)
        digest = _FAMILY_DIGESTS.get(family)
        if digest is None:
            digest = key_digest(effective_chain_key(alpha, ports))
            _FAMILY_DIGESTS[family] = digest
    task = make_task(spec.task, alpha.n)
    token = query_token(digest, "limit", task, None, "exact")
    hit = memo.lookup(token)
    return (None if hit is MISS else hit), token


def _exact_value(limit: Fraction) -> dict:
    """The value fields of an exact-job record (one shape, every path)."""
    return {
        "limit": str(limit),
        "limit_float": float(limit),
        "solvable": limit == 1,
    }


def _job_record(payload: dict, spec: RunSpec, seed: int, alpha,
                value: dict, elapsed: float) -> dict:
    """One job record; grouped and per-job execution share this shape,
    so the grouped dispatch can never silently drift from serial."""
    return {
        "key": spec.job_key,
        "index": int(payload.get("index", 0)),
        "spec": spec.to_dict(),
        "seed": seed,
        "gcd": alpha.gcd,
        "value": value,
        "elapsed": elapsed,
    }


@_runs_in_payload_context
def execute_run(payload: dict) -> dict:
    """Execute one :class:`~repro.runner.spec.RunSpec` job.

    ``payload`` is ``{"spec": <RunSpec dict>, "master_seed": int,
    "index": int}`` plus an optional ``"context"``; the
    result record echoes the spec, its key and index (aggregation
    order), the derived seed, and the job's value fields.
    """
    spec = RunSpec.from_dict(payload["spec"])
    master_seed = int(payload.get("master_seed", 0))
    seed = derive_seed(master_seed, spec.job_key)
    value: dict
    with trace("runner.job", key=spec.job_key, kind=spec.kind) as timer:
        alpha = RandomnessConfiguration.from_group_sizes(spec.sizes)
        task = make_task(spec.task, alpha.n)
        # Random ports and Monte-Carlo sampling get *disjoint* streams
        # split off the job seed; sharing one seed would correlate the
        # sampled realizations with the randomly drawn port assignment.
        ports = make_ports(spec.ports, spec.sizes,
                           derive_seed(seed, "ports"))
        if spec.kind == "exact":
            limit, token = _memo_lookup(spec, alpha, ports)
            if limit is None:
                with trace("job.compile"):
                    chain = compile_chain(alpha, ports)
                with trace("job.evolve"):
                    ((limit,),) = answer_misses(
                        [(chain, [Query.limit(task)], [token])]
                    )
            value = _exact_value(limit)
        else:  # sample
            # The substream is keyed by the spec's *stream key* -- the
            # cell axes minus samples/task/t -- so a rerun at a larger
            # budget extends (and memo-merges with) this run's blocks,
            # and cells differing only in task or horizon share trials
            # (common random numbers).  Random ports draw from the same
            # stream-stable root for the same reason: the cell identity
            # must not change when only the budget does.
            stream = derive_seed(master_seed, "mc\x1f" + spec.stream_key)
            if spec.ports == "random":
                ports = make_ports(spec.ports, spec.sizes,
                                   derive_seed(stream, "ports"))
            with trace("job.sample", samples=spec.samples):
                estimate = sample_cell(
                    alpha,
                    task,
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
    record = _job_record(payload, spec, seed, alpha, value, timer.duration)
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

    With a cross-run query memo configured, jobs whose cell is already
    answered never even compile their chain; only the misses enter the
    grouped pass.  The result additionally carries a ``"group"``
    diagnostics dict -- chains compiled, their total size, and the
    memo hit count -- which the sweep orchestrator hands back in
    :attr:`~repro.runner.sweep.SweepOutcome.group_stats` (deliberately
    *outside* the job records, whose bytes stay engine- and
    warmth-independent).
    """
    with trace("runner.group", jobs=len(payload["jobs"])) as timer:
        prepared = []
        #: id(chain) -> (chain, queries, memo tokens)
        items: dict[int, tuple[CompiledChain, list, list]] = {}
        order: list[int] = []
        memo_hits = 0
        with trace("group.prepare"):
            for job in payload["jobs"]:
                spec = RunSpec.from_dict(job["spec"])
                master_seed = int(job.get("master_seed", 0))
                seed = derive_seed(master_seed, spec.job_key)
                alpha = RandomnessConfiguration.from_group_sizes(spec.sizes)
                task = make_task(spec.task, alpha.n)
                ports = make_ports(spec.ports, spec.sizes,
                                   derive_seed(seed, "ports"))
                limit, token = _memo_lookup(spec, alpha, ports)
                if limit is not None:
                    memo_hits += 1
                    prepared.append((job, spec, seed, alpha, None, limit))
                    continue
                chain = compile_chain(alpha, ports)
                entry = items.get(id(chain))
                if entry is None:
                    entry = items[id(chain)] = (chain, [], [])
                    order.append(id(chain))
                _, queries, tokens = entry
                prepared.append(
                    (job, spec, seed, alpha, (id(chain), len(queries)), None)
                )
                queries.append(Query.limit(task))
                tokens.append(token)
        with trace("group.evolve"):
            answers = dict(
                zip(order, answer_misses([items[cid] for cid in order]))
            )
        with trace("group.serialize"):
            # ``elapsed`` is the group's wall clock, known only once this
            # span closes: filled in below, in place.
            records = [
                _job_record(
                    job, spec, seed, alpha,
                    _exact_value(
                        limit if handle is None
                        else answers[handle[0]][handle[1]]
                    ),
                    0.0,
                )
                for job, spec, seed, alpha, handle, limit in prepared
            ]
    elapsed_total = timer.duration
    elapsed = elapsed_total / max(1, len(prepared))
    for record in records:
        record["elapsed"] = elapsed
    chains = [items[cid][0] for cid in order]
    group = {
        "jobs": len(prepared),
        "chains": len(chains),
        "states": sum(chain.num_states for chain in chains),
        "transitions": sum(chain.num_transitions for chain in chains),
        "memo_hits": memo_hits,
        "elapsed": elapsed_total,
    }
    result = {"records": records, "group": group}
    if OBS.enabled:
        OBS.metrics.inc("runner.groups")
        OBS.metrics.inc("runner.jobs", len(prepared))
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
