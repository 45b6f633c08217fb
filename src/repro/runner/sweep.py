"""Sweep orchestration: expand, schedule, execute, persist, aggregate.

:func:`run_sweep` is the runner's front door.  It expands a
:class:`~repro.runner.spec.SweepSpec` into its job list, subtracts jobs
already recorded in the run directory (if one is given), maps the rest
through the chosen engine, streams each record to disk as it completes,
and folds the full record set back into the package's uniform
:class:`~repro.analysis.result.ExperimentResult` container.

Aggregation sorts records by job index -- the position in the expanded
job list -- so the result table is identical whatever order the engine
completed the jobs in, and whatever mix of resumed and fresh records
contributed.  Timing fields are deliberately excluded from the aggregate
so two runs of the same sweep compare byte-for-byte.
"""

from __future__ import annotations

import copy
import math
import pathlib
from dataclasses import dataclass, field

from ..obs import merge_telemetry, trace
from .engines import ExecutionEngine, SerialEngine
from .persistence import RunDirectory
from .spec import SweepSpec, derive_seed, make_ports
from .worker import execute_run, execute_run_group, payload_context


#: State budget per group bin: no bin packs more (estimated) chain
#: states than this, so one grouped pass's working set stays bounded.
MAX_GROUP_STATES = 1 << 15

#: Bell numbers B(0)..B(10): the partition count of an n-set bounds a
#: consistency chain's state count from above, so it is the state
#: proxy for chains nobody has compiled yet.
_BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)


def _family_chain(spec) -> tuple:
    """``(effective chain key, estimated compiled-state count)`` of one
    job family's chain.

    The key is the one ``compile_chain`` will use under the active
    quotient mode (:func:`~repro.chain.effective_chain_key`); random-port
    families draw a fresh chain per job, so theirs is ``None``.  An
    already-compiled chain (process memo) reports its true
    ``num_states``; otherwise the Bell number of ``n`` -- the number of
    partitions of the node set, an upper bound on reachable consistency
    states -- stands in, divided by the automorphism group's order when
    the quotient backend will fold this family (orbit counts are
    bounded below by ``Bell(n) / |G|``), and capped at the group budget
    so one huge family cannot zero out everyone else's bin space.
    """
    from ..chain import (
        automorphism_count,
        effective_chain_key,
        is_quotient_key,
        memoized_chain,
    )
    from ..randomness.configuration import RandomnessConfiguration

    key = None
    if spec.ports != "random":
        alpha = RandomnessConfiguration.from_group_sizes(spec.sizes)
        ports = make_ports(spec.ports, spec.sizes, 0)
        key = effective_chain_key(alpha, ports)
        chain = memoized_chain(key)
        if chain is not None:
            return key, chain.num_states
    n = spec.n
    estimate = _BELL[n] if n < len(_BELL) else _BELL[-1]
    if key is not None and is_quotient_key(key):
        estimate = max(1, math.ceil(estimate / automorphism_count(key)))
    return key, min(estimate, MAX_GROUP_STATES)


def _group_job_payloads(jobs, payloads, engine):
    """Pack contiguous chain families into group payloads, or ``None``.

    The sweep grammar expands tasks (and replicates) innermost, so jobs
    of one family -- same sizes/model/ports/replicate -- are contiguous
    index runs.  Adjacent families whose chains share one effective key
    (adversarial and round-robin ports give the same table on most
    shapes) join one run, so no two bins -- which may land on different
    pool workers -- compile the same chain.  Packing whole runs into
    bins keeps each bin a contiguous index range, which is what makes
    grouped run directories byte-identical to serial ungrouped ones
    (records land in index order either way).

    Bins are budgeted by **chain states**, not job count: each run
    weighs its chain's (estimated) compiled-state count, once however
    many families share it (:func:`_family_chain`), the per-bin budget
    is the total weight split over four bins per pool worker, and no
    bin ever exceeds :data:`MAX_GROUP_STATES`.  The cap can leave many
    more bins than that (57 on the n=9 grid), and the heavy families
    sit next to each other in the grid, so the pool dispatches one bin
    per task (:func:`_bin_engine`) rather than re-chunking adjacent
    bins onto one worker.
    Returns ``None`` -- dispatch one payload per job -- when the sweep
    is sampling-kind (Monte-Carlo jobs gain nothing from a shared chain
    pass) or there is at most one job.
    """
    if len(payloads) < 2:
        return None
    if any(jobs[p["index"]].kind != "exact" for p in payloads):
        return None
    runs: list[list[dict]] = []
    weights: list[int] = []
    family = marker = None
    for payload in payloads:
        spec = jobs[payload["index"]]
        current = (spec.sizes, spec.model, spec.ports, spec.replicate)
        if current != family:
            family = current
            key, weight = _family_chain(spec)
            if key is None or key != marker:
                runs.append([])
                weights.append(weight)
            marker = key
        runs[-1].append(payload)
    workers = getattr(engine, "workers", 1) or 1
    bins = max(1, min(len(runs), workers * 4))
    budget = min(
        MAX_GROUP_STATES, max(1, math.ceil(sum(weights) / bins))
    )
    groups: list[list[dict]] = []
    current: list[dict] = []
    current_weight = 0
    for run, weight in zip(runs, weights):
        if current and current_weight + weight > budget:
            groups.append(current)
            current = []
            current_weight = 0
        current.extend(run)
        current_weight += weight
    if current:
        groups.append(current)
    return [
        {"jobs": group, "context": group[0]["context"]} for group in groups
    ]


def _bin_engine(engine):
    """The engine that dispatches group bins: one bin per pool task.

    A pool left to its default chunking would hand each worker a run of
    adjacent bins, and adjacent bins hold the same (heavy or light)
    shapes.  A copy with ``chunksize=1`` keeps the caller's engine
    untouched; an explicitly chosen chunksize, and engines without one,
    are used as given.
    """
    if getattr(engine, "chunksize", 0) is not None:
        return engine
    engine = copy.copy(engine)
    engine.chunksize = 1
    return engine


@dataclass
class SweepOutcome:
    """What a sweep produced: records, the aggregate, and run accounting."""

    sweep: SweepSpec
    #: All job records, sorted by job index (resumed and fresh alike).
    records: list[dict]
    #: How many jobs ran in this invocation.
    executed: int
    #: How many jobs were skipped because the run directory had them.
    resumed: int
    #: Per-group diagnostics from grouped dispatch (chains compiled,
    #: total size, memo hits); kept in memory, never in the job records.
    group_stats: list[dict] = field(default_factory=list)
    #: Fields like the aggregate are derived; see :meth:`result`.
    _result: "object | None" = field(default=None, repr=False)

    @property
    def total(self) -> int:
        """Total number of jobs in the expanded sweep."""
        return len(self.records)

    def result(self):
        """The aggregate as an ``ExperimentResult`` (computed lazily)."""
        if self._result is None:
            self._result = aggregate_records(self.sweep, self.records)
        return self._result


def aggregate_records(sweep: SweepSpec, records: list[dict]):
    """Fold job records into an ``ExperimentResult`` table.

    One row per job, in job-index order.  Exact sweeps report the limit
    probability and a yes/no solvability verdict; sampling sweeps report
    the estimate with its Wilson confidence interval.
    """
    from ..analysis.montecarlo import wilson_interval
    from ..analysis.result import ExperimentResult

    ordered = sorted(records, key=lambda r: r["index"])
    rows = []
    for record in ordered:
        spec = record["spec"]
        value = record["value"]
        base = (
            tuple(spec["sizes"]),
            record["gcd"],
            spec["model"],
            spec["ports"],
            spec["task"],
            spec["replicate"],
        )
        if sweep.kind == "exact":
            rows.append(
                base
                + (value["limit"], "yes" if value["solvable"] else "no")
            )
        else:
            low, high = wilson_interval(
                value["successes"], value["samples"]
            )
            rows.append(
                base
                + (
                    f"{value['estimate']:.4f}",
                    f"[{low:.4f}, {high:.4f}]",
                    value["samples"],
                )
            )
    value_headers = (
        ("limit", "solvable")
        if sweep.kind == "exact"
        else ("estimate", "wilson 95%", "samples")
    )
    return ExperimentResult(
        experiment_id="runner-sweep",
        title=(
            f"{sweep.kind} sweep: {len(ordered)} jobs over "
            f"{len(sweep.shapes)} shapes (master seed {sweep.master_seed})"
        ),
        headers=("sizes", "gcd", "model", "ports", "task", "rep")
        + value_headers,
        rows=rows,
        notes=[
            "per-job seeds derive from (master_seed, job_key); results "
            "are engine- and worker-count-independent"
        ],
    )


def run_sweep(
    sweep: SweepSpec,
    engine: ExecutionEngine | None = None,
    run_dir: "str | pathlib.Path | None" = None,
    progress=None,
    warehouse: "str | pathlib.Path | bool | None" = None,
) -> SweepOutcome:
    """Execute a sweep, optionally resuming from a run directory.

    ``engine`` defaults to :class:`~repro.runner.engines.SerialEngine`.
    With ``run_dir``, each completed job is appended to
    ``records.jsonl`` immediately, and jobs already recorded there are
    not re-run.  ``progress`` (if given) is called as
    ``progress(record, completed, total)`` with each fresh record as it
    completes; ``completed`` counts resumed jobs too, so the last call
    of a finished sweep has ``completed == total``.  It never touches
    the record path: ``records.jsonl`` is byte-identical with or
    without it.

    ``warehouse`` names the columnar results warehouse
    (:class:`~repro.results.store.ResultsStore`) the sweep serves and
    feeds: completed records are ingested incrementally (watermarked,
    so resumed runs ingest only what is new), resume reads column pages
    instead of re-parsing JSONL when the warehouse fully covers the run
    directory, and every worker consults the warehouse's cross-run
    query memo before computing a cell -- a sweep whose cells another
    run already answered re-executes nothing but record writes.  This
    covers sampling sweeps too: Monte-Carlo cells memoize integer
    success counts per substream block (see RUNNER.md, "Monte-Carlo
    substreams and the merge law"), so a warm rerun serves whole cells
    from the memo and a rerun at a *larger* budget computes only the
    increment, merging it with the memoized blocks into one combined
    estimate.  It
    defaults to ``<run_dir>/warehouse`` when a run directory is given
    (pass ``False`` to opt out); point several sweeps at one shared
    warehouse to deduplicate work across them.
    """
    engine = engine or SerialEngine()
    jobs = sweep.expand()
    keys = [spec.job_key for spec in jobs]
    payloads = [
        {"spec": spec.to_dict(), "master_seed": sweep.master_seed, "index": i}
        for i, spec in enumerate(jobs)
    ]
    directory: RunDirectory | None = None
    prior: list[dict] = []
    if warehouse is None and run_dir is not None:
        warehouse = pathlib.Path(run_dir) / "warehouse"
    # What this sweep adds to the caller's context.
    changes: dict = {}
    store = None
    if warehouse:
        from ..results.store import ResultsStore

        store = ResultsStore(warehouse)
        changes["results_memo"] = str(store.memo_dir)
    if run_dir is not None:
        directory = RunDirectory(run_dir)
        directory.write_manifest({"sweep": sweep.to_dict(), "jobs": keys})
        valid = {key: derive_seed(sweep.master_seed, key) for key in keys}
        key_to_index = {key: i for i, key in enumerate(keys)}
        done = set()
        existing: "list[dict] | None" = None
        if store is not None:
            # Catch the watermark up, then serve the resume scan from
            # column pages instead of re-parsing JSONL (``None`` -- an
            # uncovered tail -- falls back to the line scan).
            store.ingest_run_directory(directory)
            existing = store.run_directory_records(directory)
        if existing is None:
            existing = directory.load_records()
        for record in existing:
            key = record.get("key")
            # The seed check rejects records produced under a different
            # master seed (job keys alone don't encode it), so stale
            # cross-seed records can never leak into the aggregate.
            if (
                key in valid
                and key not in done
                and record.get("seed") == valid[key]
            ):
                done.add(key)
                # Re-anchor the index to THIS sweep's expansion: a
                # hand-copied record may carry another sweep's position.
                prior.append({**record, "index": key_to_index[key]})
        payloads = [p for p in payloads if keys[p["index"]] not in done]
    context = payload_context(**changes)
    for payload in payloads:
        payload["context"] = context
    # The shape-grouping dispatcher: hand each worker one group payload
    # (one grouped query pass) per slice of the grid instead of one
    # payload per grid point.
    grouped = _group_job_payloads(jobs, payloads, engine)
    dispatch = payloads if grouped is None else grouped
    if grouped is not None:
        engine = _bin_engine(engine)
    worker_fn = execute_run if grouped is None else execute_run_group
    executed = 0
    fresh: list[dict] = []
    group_stats: list[dict] = []
    try:
        results = engine.map(worker_fn, dispatch)
        with trace("sweep.execute", jobs=len(dispatch)):
            for result in results:
                # Workers attach their drained telemetry *next to* the
                # record payload; fold it into this process before
                # anything is persisted, so record bytes are identical
                # with tracing on or off.  (Serial engines drain and
                # merge back in-process: a no-op for the totals.)
                telemetry = result.pop(
                    "telemetry" if grouped is not None else "_telemetry",
                    None,
                )
                if telemetry is not None:
                    merge_telemetry(telemetry)
                if grouped is not None and "group" in result:
                    group_stats.append(result["group"])
                batch = (result,) if grouped is None else result["records"]
                if directory is not None:
                    directory.append(*batch)
                for record in batch:
                    fresh.append(record)
                    executed += 1
                    if progress is not None:
                        progress(record, len(prior) + executed, len(jobs))
    finally:
        if store is not None and directory is not None:
            # Land the fresh job records (watermarked -- only the new
            # JSONL bytes are read).
            try:
                with trace("sweep.ingest"):
                    store.ingest_run_directory(directory)
            except OSError:
                pass  # the warehouse is derived state; never fail a sweep
    records = sorted(prior + fresh, key=lambda r: r["index"])
    return SweepOutcome(
        sweep=sweep,
        records=records,
        executed=executed,
        resumed=len(prior),
        group_stats=group_stats,
    )


__all__ = ["SweepOutcome", "aggregate_records", "run_sweep"]
