"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
solve           decide eventual solvability for a configuration and task
series          exact Pr[S(t)] for t = 1..T
expected-time   exact expected rounds until the task is solved
phase-diagram   sweep all size shapes of n (both models)
protocol        run an actual election protocol and report the outcome
figures         render the paper's Figures 1-3 as text
experiments     run reproduction experiments (all or by id)
run             execute one runner job and print its JSON record
estimate        Monte-Carlo Pr[S(t)] estimate (mergeable memoized substreams)
sweep           expand and execute a sweep (parallel, resumable)
results         query/export/stats/compact/ingest/vacuum a results warehouse
obs             read a --profile-out document back: span tree and
                self-time table (OBS.md)

Chain queries run through one front door (``repro.chain.run_queries``
for one chain, ``run_group_queries`` for a whole shape axis): the
query memo first, then shared per-chain passes answer every (task,
horizon) question of a call under the exact or float backend.
Chains themselves compile **quotiented**
by the configuration's automorphism group when it has one
(``repro.chain.quotient``: orbit states instead of raw partitions);
``--no-quotient`` forces full chains and ``--quotient`` insists, with
byte-identical exact start-state results either way.

Examples
--------
python -m repro solve 2,3 --model clique
python -m repro series 1,2,2 --t-max 8
python -m repro solve 2,4 --model clique --task k-leader:2
python -m repro phase-diagram 5
python -m repro protocol 2,3 --model clique --seed 7
python -m repro experiments theorem-4.1 theorem-4.2

Running sweeps
--------------
The ``run`` and ``sweep`` commands front the :mod:`repro.runner`
subsystem (see ``RUNNER.md``).  A sweep is the cartesian product of its
axes -- ``--shapes`` (or ``--n`` for every shape of a total size),
``--models``, ``--ports``, ``--tasks``, and ``--replicates`` -- expanded
into a deterministic job list.  ``--engine process --workers W`` fans
jobs out over a process pool; because each job's seed derives from
``(master seed, job key)``, the results are identical to ``--engine
serial``.  ``--run-dir DIR`` streams one JSONL record per completed job
and makes the sweep resumable: re-running against the same directory
executes only the jobs not yet recorded.

python -m repro run 2,3 --model clique --task leader
python -m repro sweep --n 5 --models blackboard clique
python -m repro sweep --shapes 2,3 1,2,2 --kind sample --t 4 \\
    --engine process --workers 4 --run-dir runs/demo

``phase-diagram``, ``experiments``, and ``report`` accept the same
``--engine``/``--workers`` flags and route through the runner, so the
existing commands parallelize for free (``--engine serial`` remains the
default and reproduces the historical behaviour exactly).

The results warehouse
---------------------
Sweeps with a ``--run-dir`` feed a columnar results warehouse
(``repro.results``, default ``<run_dir>/warehouse``, override with
``--warehouse``): completed job records ingest incrementally into typed
numpy column pages, and the warehouse's cross-run query memo lets any
later sweep -- same run dir or not -- skip every (chain, task, horizon,
quantity) cell it has already answered, byte-identically.  Monte-Carlo
cells participate too: sampled sweeps and ``repro estimate`` memoize
integer success counts per fixed substream block, so warm reruns serve
whole cells from the memo and a larger sample budget computes only the
increment, merged with the stored blocks into one combined estimate
(``RUNNER.md``, "Monte-Carlo substreams and the merge law").  ``repro
results`` serves the records:

python -m repro results stats runs/demo
python -m repro results query runs/demo --where model=clique \\
    --group-by task --agg count --agg mean:elapsed
python -m repro results export runs/demo --format csv -o records.csv
python -m repro results compact runs/demo

See ``STORE.md`` for the on-disk layout and the memo key scheme.

Observability
-------------
Every command accepts ``--profile-out FILE``: it turns span tracing on
and writes the JSON profile (spans, metrics, aggregates; validate it
with ``python -m repro.obs.schema FILE``) when the command finishes.
The profile is the one place telemetry is kept: warehouses hold job
records only.  ``repro obs explain FILE`` is the one reader: it prints
the profile's span tree (calls, total, self time) and below it the
per-name self-time table (self seconds, calls, share of all self
time).  ``--progress`` prints one ``progress: done/total`` line per
finished job to stderr.  See ``OBS.md`` for the
instrumentation map and "From telemetry to decisions".
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Sequence

from .chain import BACKENDS
from .context import current_context, use_context
from .core import ConsistencyChain
from .core.tasks import SymmetryBreakingTask
from .models import PortAssignment
from .randomness import RandomnessConfiguration, enumerate_size_shapes
from .runner import spec as runner_spec
from .runner.engines import ENGINE_NAMES, ExecutionEngine, make_engine
from .viz import format_table


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return runner_spec.parse_sizes(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _make_task(spec: str, n: int) -> SymmetryBreakingTask:
    """Parse a task spec like ``leader``, ``k-leader:2``, ``teams:2,3``."""
    try:
        return runner_spec.make_task(spec, n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _make_ports(
    kind: str, sizes: tuple[int, ...], seed: int
) -> PortAssignment:
    try:
        ports = runner_spec.make_ports(kind, sizes, seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if ports is None:
        raise argparse.ArgumentTypeError(f"unknown ports {kind!r}")
    return ports


def _add_engine_args(p) -> None:
    p.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="serial",
        help="execution engine (default: serial)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --engine process (default: cpu count)",
    )


#: Port kinds a user can ask for ("none" is the internal blackboard marker).
_CLI_PORT_KINDS = tuple(k for k in runner_spec.PORT_KINDS if k != "none")


def _engine_from(args) -> ExecutionEngine:
    try:
        return make_engine(args.engine, workers=args.workers)
    except ValueError as exc:
        raise SystemExit(f"{args.command}: {exc}")


def _chain(args) -> tuple[RandomnessConfiguration, ConsistencyChain]:
    alpha = RandomnessConfiguration.from_group_sizes(args.sizes)
    backend = getattr(args, "backend", "exact")
    if args.model == "blackboard":
        return alpha, ConsistencyChain(alpha, backend=backend)
    ports = _make_ports(args.ports, args.sizes, args.seed)
    return alpha, ConsistencyChain(alpha, ports, backend=backend)


def _add_backend_arg(p) -> None:
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default="exact",
        help=(
            "chain arithmetic: exact Fractions (default) or numpy "
            "float64 (large state spaces / long horizons)"
        ),
    )


def _add_warehouse_args(p) -> None:
    p.add_argument(
        "--warehouse",
        default=None,
        help=(
            "columnar results warehouse to serve and feed (default: "
            "<run-dir>/warehouse when --run-dir is given; point several "
            "sweeps at one directory to share the cross-run query memo)"
        ),
    )
    p.add_argument(
        "--no-warehouse",
        action="store_true",
        help="disable warehouse ingestion and the cross-run query memo",
    )


def _warehouse_from(args):
    """The ``warehouse`` argument for ``run_sweep`` (False = opted out)."""
    if getattr(args, "no_warehouse", False):
        return False
    return getattr(args, "warehouse", None)


def _add_quotient_arg(p) -> None:
    p.add_argument(
        "--quotient",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "compile chains modulo the configuration's automorphism "
            "group (orbit states; default: auto -- quotient whenever "
            "the group is nontrivial.  --no-quotient forces full "
            "chains; exact start-state results are byte-identical "
            "either way)"
        ),
    )


def _add_progress_args(p) -> None:
    """Install ``--progress``."""
    p.add_argument(
        "--progress",
        action="store_true",
        help="print one `progress: done/total` line per finished job "
        "to stderr",
    )


def _stderr_progress(record: dict, completed: int, total: int) -> None:
    """``run_sweep``'s progress callback: one ``done/total`` stderr line."""
    key = record.get("key", "?")
    print(f"progress: {completed}/{total} {key}", file=sys.stderr)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_solve(args) -> int:
    from .chain import Query, run_queries

    alpha, chain = _chain(args)
    task = _make_task(args.task, alpha.n)
    limit, solvable = run_queries(
        chain.compiled, [Query.limit(task), Query.solvable(task)],
        backend=chain.backend,
    )
    print(
        f"configuration: sizes {alpha.group_sizes} (n={alpha.n}, "
        f"k={alpha.k}, gcd={alpha.gcd})"
    )
    print(f"backend: {chain.backend}")
    print(f"model: {args.model}" + (
        f" ({args.ports} ports)" if args.model == "clique" else ""
    ))
    print(f"task: {task}")
    print(f"limit of Pr[S(t)]: {limit}")
    # Definition 3.3 is decided on the exact limit under every backend.
    print("eventually solvable:", "YES" if solvable else "NO")
    return 0


def cmd_series(args) -> int:
    from .chain import Query, run_queries

    alpha, chain = _chain(args)
    task = _make_task(args.task, alpha.n)
    series = run_queries(
        chain.compiled, [Query.series(task, args.t_max)],
        backend=chain.backend,
    )[0]
    rows = [
        (t, str(p), f"{float(p):.6f}")
        for t, p in enumerate(series, start=1)
    ]
    label = "exact" if chain.backend == "exact" else "float64"
    print(format_table(("t", f"Pr[S(t)] {label}", "~"), rows))
    return 0


def cmd_expected_time(args) -> int:
    from .chain import Query, run_queries

    alpha, chain = _chain(args)
    task = _make_task(args.task, alpha.n)
    expected = run_queries(
        chain.compiled, [Query.expected_time(task)], backend=chain.backend
    )[0]
    if expected is None:
        print("expected time: infinite (task not eventually solvable)")
    else:
        print(f"expected rounds to a solving state: {expected} "
              f"(~{float(expected):.4f})")
    return 0


def cmd_phase_diagram(args) -> int:
    from .runner import SweepSpec, run_sweep

    try:
        sweep = SweepSpec.for_total_size(
            args.n,
            models=("blackboard", "clique"),
            ports=("adversarial",),
            tasks=(args.task,),
        )
        outcome = run_sweep(
            sweep,
            engine=_engine_from(args),
            run_dir=args.run_dir,
            warehouse=_warehouse_from(args),
            progress=_stderr_progress if args.progress else None,
        )
    except ValueError as exc:  # e.g. a bad --task spec
        raise SystemExit(f"phase-diagram: {exc}")
    # Jobs expand blackboard-then-clique per shape; zip the pairs back
    # into the historical two-column table.
    by_shape: dict[tuple[int, ...], dict[str, bool]] = {}
    gcds: dict[tuple[int, ...], int] = {}
    for record in outcome.records:
        shape = tuple(record["spec"]["sizes"])
        by_shape.setdefault(shape, {})[record["spec"]["model"]] = record[
            "value"
        ]["solvable"]
        gcds[shape] = record["gcd"]
    rows = [
        (
            shape,
            gcds[shape],
            "yes" if verdicts["blackboard"] else "no",
            "yes" if verdicts["clique"] else "no",
        )
        for shape, verdicts in by_shape.items()
    ]
    print(
        format_table(
            ("sizes", "gcd", "blackboard", "clique (worst case)"), rows
        )
    )
    return 0


def cmd_protocol(args) -> int:
    from .algorithms import (
        BlackboardLeaderNode,
        BlackboardNetwork,
        CliqueNetwork,
        EuclidLeaderNode,
    )

    alpha = RandomnessConfiguration.from_group_sizes(args.sizes)
    if args.model == "blackboard":
        network = BlackboardNetwork(
            alpha, lambda: BlackboardLeaderNode(k=args.k), seed=args.seed
        )
    else:
        ports = _make_ports(args.ports, args.sizes, args.seed)
        network = CliqueNetwork(
            alpha, ports, lambda: EuclidLeaderNode(k=args.k), seed=args.seed
        )
    result = network.run(max_rounds=args.max_rounds)
    if result.all_decided:
        print(
            f"elected {result.leaders()} in {result.rounds} rounds "
            f"(k={args.k})"
        )
        return 0
    print(f"no election within {args.max_rounds} rounds")
    return 1


def cmd_figures(args) -> int:
    from .core import (
        build_protocol_complex,
        leader_election_complex,
        project_complex,
        realization_complex,
    )
    from .models import BlackboardModel
    from .viz import render_complex

    print("Figure 1 -- P(t), n=2, blackboard")
    for t in range(2):
        build = build_protocol_complex(BlackboardModel(2), t)
        print(render_complex(build.complex, title=f"P({t}):"))
    print("\nFigure 2 -- R(1), n=3")
    print(render_complex(realization_complex(3, 1)))
    print("\nFigure 3 -- O_LE and pi(O_LE), n=3")
    o_le = leader_election_complex(3)
    print(render_complex(o_le, title="O_LE:"))
    print(render_complex(project_complex(o_le), title="pi(O_LE):"))
    return 0


def cmd_graphs(args) -> int:
    """Worst-case deterministic leader election on a graph family."""
    from .core import (
        color_refinement_fixpoint,
        leader_election,
        worst_case_deterministic_solvable,
    )
    from .models import GraphTopology
    from .viz import render_partition

    name, _, arg = args.graph.partition(":")
    if name == "ring":
        topology = GraphTopology.ring(int(arg))
    elif name == "path":
        topology = GraphTopology.path(int(arg))
    elif name == "star":
        topology = GraphTopology.star(int(arg))
    elif name == "clique":
        topology = GraphTopology.complete(int(arg))
    elif name == "bipartite":
        m, n = (int(x) for x in arg.split(","))
        topology = GraphTopology.complete_bipartite(m, n)
    else:
        raise SystemExit(f"unknown graph {args.graph!r}")
    n = topology.n
    fixpoint = color_refinement_fixpoint(topology)
    print(f"graph: {args.graph} (n={n}, labelings={topology.labeling_count()})")
    print(
        "color-refinement fixpoint (canonical labeling):",
        render_partition([frozenset(b) for b in fixpoint]),
    )
    if topology.labeling_count() > args.labeling_limit:
        print(
            f"worst case skipped: {topology.labeling_count()} labelings "
            f"exceed --labeling-limit {args.labeling_limit}"
        )
        return 0
    verdict = worst_case_deterministic_solvable(
        topology, leader_election(n), limit=args.labeling_limit
    )
    print(
        "worst-case deterministic leader election:",
        "YES" if verdict else "NO",
    )
    return 0


#: Comparison spellings ``--where`` understands, longest first so
#: ``>=`` wins over ``>`` and ``=`` stays the equality shorthand.
_WHERE_OPS = (">=", "<=", "!=", "==", ">", "<", "=")


def _parse_where(clause: str):
    """Split one ``--where`` clause into ``(column, op, raw value)``."""
    for op in _WHERE_OPS:
        name, found, value = clause.partition(op)
        if found:
            name, value = name.strip(), value.strip()
            if name and value:
                return name, op, value
    raise SystemExit(
        f"results: bad --where {clause!r} (expected column OP value "
        f"with OP in {', '.join(_WHERE_OPS)})"
    )


def _where_predicate(table, clauses):
    """Fold ``--where`` clauses into one predicate (typed per column)."""
    from .results import col

    predicate = None
    for clause in clauses or ():
        name, op, raw = _parse_where(clause)
        kind = table.column(name).dtype.kind
        try:
            if kind in "US":
                value = raw
            elif kind == "b":
                value = raw.lower() in ("1", "true", "yes")
            elif kind in "iu":
                value = int(raw)
            else:
                value = float(raw)
        except ValueError:
            raise SystemExit(
                f"results: --where {clause!r}: {raw!r} is not a valid "
                f"value for column {name!r}"
            )
        column = col(name)
        term = {
            "=": column == value,
            "==": column == value,
            "!=": column != value,
            ">": column > value,
            ">=": column >= value,
            "<": column < value,
            "<=": column <= value,
        }[op]
        predicate = term if predicate is None else predicate & term
    return predicate


def _results_store(directory: str):
    """Open a warehouse, accepting a run directory transparently."""
    import pathlib

    from .results import ResultsStore

    root = pathlib.Path(directory)
    if (root / "warehouse").is_dir():
        root = root / "warehouse"
    if not (root / "segments").is_dir():
        raise SystemExit(f"results: no warehouse at {directory}")
    return ResultsStore(root)


def _results_table(store, args):
    """The ``records`` table with where/group/sort/limit applied."""
    table = store.table("records")
    predicate = _where_predicate(table, args.where)
    if predicate is not None:
        table = table.filter(predicate)
    if args.group_by:
        keys = [k for part in args.group_by for k in part.split(",") if k]
        aggregates = {}
        for spec in args.agg or ["count"]:
            fn, _, column = spec.partition(":")
            if fn == "count":
                aggregates["count"] = ("count",)
            else:
                if not column:
                    raise SystemExit(
                        f"results: --agg {spec!r} needs fn:column"
                    )
                aggregates[f"{fn}_{column}"] = (fn, column)
        try:
            table = table.group_by(keys, aggregates)
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"results: {exc}")
    if args.columns:
        names = [c for part in args.columns for c in part.split(",") if c]
        try:
            table = table.project(names)
        except KeyError as exc:
            raise SystemExit(f"results: {exc}")
    if args.sort_by:
        table = table.sort_by(
            [c for part in args.sort_by for c in part.split(",") if c]
        )
    if args.limit is not None:
        table = table.head(args.limit)
    return table


def cmd_results(args) -> int:
    """Query, export, inspect, compact, or feed a results warehouse."""
    import csv
    import io
    import json
    import sys as _sys

    if args.action == "ingest":
        if not args.run_dirs:
            raise SystemExit("results ingest: need at least one run dir")
        import pathlib

        from .results import ResultsStore

        # Same resolution as the read actions: a run directory means
        # its warehouse/, so ingest and query always see one store.
        root = pathlib.Path(args.directory)
        if (root / "warehouse").is_dir():
            root = root / "warehouse"
        store = ResultsStore(root)
        for run_dir in args.run_dirs:
            added = store.ingest_run_directory(run_dir)
            print(f"ingested {added} new records from {run_dir}")
        return 0
    store = _results_store(args.directory)
    if args.action == "vacuum":
        if not args.run_dirs:
            raise SystemExit("results vacuum: need at least one run dir")
        removed = 0
        for run_dir in args.run_dirs:
            status = store.vacuum_run_directory(run_dir)
            removed += status == "removed"
            print(f"{run_dir}: {status}")
        print(f"vacuumed {removed}/{len(args.run_dirs)} run directories")
        return 0 if removed == len(args.run_dirs) else 1
    if args.action == "stats":
        stats = store.stats()
        rows = [
            (name, info["rows"], info["segments"], info["bytes"])
            for name, info in sorted(stats["tables"].items())
        ]
        print(format_table(("table", "rows", "segments", "bytes"), rows))
        memo = stats["memo"]
        print(
            f"memo: {memo['entries']} entries, "
            f"{memo['log_bytes']} log bytes pending compaction"
        )
        return 0
    if args.action == "compact":
        summary = store.compact()
        from .results import QueryMemo

        entries = QueryMemo(store.memo_dir).compact()
        print(
            f"compacted {summary['merged']} merged segments "
            f"({summary['removed']} removed), memo folded to "
            f"{entries} entries"
        )
        return 0
    table = _results_table(store, args)
    if args.action == "query":
        headers, rows = table.to_table()
        if not rows:
            print("no records match")
            return 0
        print(format_table(headers, rows))
        print(f"{len(rows)} rows from {store.root}")
        return 0
    # export
    out = (
        open(args.output, "w", encoding="utf-8")
        if args.output
        else _sys.stdout
    )
    try:
        if args.format == "json":
            from .results.store import _nan_safe

            # NaN cells (unfilled kind-specific columns) degrade to
            # null so the document stays strict JSON.
            rows = [
                {name: _nan_safe(value) for name, value in row.items()}
                for row in table.to_rows()
            ]
            json.dump(rows, out, indent=2, default=str)
            out.write("\n")
        else:
            headers, rows = table.to_table()
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(headers)
            writer.writerows(rows)
            out.write(buffer.getvalue())
    finally:
        if args.output:
            out.close()
            print(f"wrote {len(table)} rows to {args.output}")
    return 0


def cmd_obs(args) -> int:
    """Read a ``--profile-out`` document back (``repro obs explain``).

    Prints the span tree (calls, total, self time), then the per-name
    self-time table (self seconds, calls, share of all self time) from
    the profile's ``aggregates``: where the wall clock went, by tier.
    """
    import json

    from .obs import Span, render_span_tree, self_time_rows

    try:
        with open(args.path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"obs explain: cannot read {args.path}: {exc}")
    print(
        render_span_tree(
            [Span.from_dict(span) for span in document["spans"]]
        )
    )
    rows = self_time_rows(document["aggregates"])
    if rows:
        print()
        print(
            format_table(
                ("span", "self", "calls", "share"),
                [
                    (name, f"{seconds * 1e3:.3f}ms", calls,
                     f"{share * 100:.1f}%")
                    for name, seconds, calls, share in rows
                ],
            )
        )
    return 0


def cmd_mermaid(args) -> int:
    """Print the consistency chain's refinement lattice as mermaid."""
    from .viz import chain_to_mermaid

    alpha, chain = _chain(args)
    task = _make_task(args.task, alpha.n)
    print(chain_to_mermaid(chain, task, max_states=args.max_states))
    return 0


def cmd_report(args) -> int:
    """Run all experiments and write JSON/CSV/Markdown reports."""
    from .analysis import ALL_EXPERIMENTS, iter_all_experiments, write_report

    total = len(ALL_EXPERIMENTS)
    results = []
    for result in iter_all_experiments(engine=_engine_from(args)):
        results.append(result)
        if args.progress:
            verdict = "pass" if result.passed else "FAIL"
            print(
                f"progress: {len(results)}/{total} {result.experiment_id} "
                f"({verdict})",
                file=sys.stderr,
            )
    paths = write_report(results, args.output)
    failed = [r.experiment_id for r in results if not r.passed]
    print(f"wrote {paths['json']}")
    print(f"wrote {paths['markdown']}")
    print(
        f"{len(results) - len(failed)}/{len(results)} experiments pass"
    )
    if failed:
        print("FAILED:", ", ".join(failed))
        return 1
    return 0


def cmd_experiments(args) -> int:
    from .analysis import iter_all_experiments

    wanted = set(args.ids)
    failed = []
    for result in iter_all_experiments(engine=_engine_from(args)):
        if wanted and result.experiment_id not in wanted:
            continue
        print(result.render())
        print()
        if not result.passed:
            failed.append(result.experiment_id)
    if failed:
        print("FAILED:", ", ".join(failed))
        return 1
    return 0


def cmd_run(args) -> int:
    """Execute one runner job locally and print its JSON record."""
    import json

    from .runner import RunSpec, execute_run
    from .runner.worker import payload_context

    try:
        spec = RunSpec(
            sizes=args.sizes,
            model=args.model,
            ports=args.ports,
            task=args.task,
            kind=args.kind,
            t=args.t,
            samples=args.samples,
            replicate=args.replicate,
        )
    except ValueError as exc:
        raise SystemExit(f"run: {exc}")
    changes = {}
    warehouse = _warehouse_from(args)
    if warehouse:
        # Same memo/merge semantics as sweeps: exact cells are served
        # whole, sampled cells reuse memoized substream blocks and a
        # larger --samples budget computes only the increment.
        from .results.store import ResultsStore

        changes["results_memo"] = str(ResultsStore(warehouse).memo_dir)
    payload = {
        "spec": spec.to_dict(),
        "master_seed": args.master_seed,
        "index": 0,
        "context": payload_context(**changes),
    }
    if args.progress:
        # One job, no run directory: the lightweight stderr form only.
        print(f"progress: 0/1 {spec.job_key}", file=sys.stderr)
    record = execute_run(payload)
    if args.progress:
        print(f"progress: 1/1 {spec.job_key}", file=sys.stderr)
    # Telemetry rides next to the record fields; the printed record's
    # bytes stay identical with tracing on or off.
    telemetry = record.pop("_telemetry", None)
    if telemetry is not None:
        from .obs import merge_telemetry

        merge_telemetry(telemetry)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_estimate(args) -> int:
    """Monte-Carlo estimate of ``Pr[S(t)]`` over memoized substreams.

    One-shot with ``--samples``, adaptive with ``--target-width`` (spend
    increments until the Wilson interval is narrow enough).  With
    ``--warehouse``, full substream blocks are served from and recorded
    to the cross-run memo, so repeated estimates of one cell -- at any
    mix of budgets -- never recompute a block: a warm 10k-sample cell
    asked for 20k samples computes exactly the second 10k.
    """
    import json

    from .analysis.montecarlo import (
        adaptive_estimate,
        estimate_solving_probability,
    )

    alpha = RandomnessConfiguration.from_group_sizes(args.sizes)
    task = _make_task(args.task, alpha.n)
    ports = None
    if args.model == "clique":
        ports = _make_ports(args.ports, args.sizes, args.seed)
    context = current_context()
    warehouse = _warehouse_from(args)
    if warehouse:
        from .results.store import ResultsStore

        context = replace(
            context, results_memo=ResultsStore(warehouse).memo_dir
        )
    with use_context(context):
        if args.target_width is not None:
            estimate = adaptive_estimate(
                alpha,
                task,
                args.t,
                ports,
                target_width=args.target_width,
                confidence=args.confidence,
                batch=args.increment,
                max_samples=args.max_samples,
                seed=args.seed,
                method=args.method,
            )
        else:
            estimate = estimate_solving_probability(
                alpha,
                task,
                args.t,
                ports,
                samples=args.samples,
                confidence=args.confidence,
                seed=args.seed,
                method=args.method,
            )
    print(
        json.dumps(
            {
                "estimate": estimate.probability,
                "interval": [estimate.low, estimate.high],
                "confidence": estimate.confidence,
                "successes": estimate.successes,
                "samples": estimate.samples,
                "t": args.t,
                "method": args.method,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_sweep(args) -> int:
    """Expand a sweep, execute it on the chosen engine, print the table."""
    from .runner import SweepSpec, run_sweep

    if (args.shapes is None) == (args.n is None):
        raise SystemExit("sweep needs exactly one of --n or --shapes")
    shapes = (
        tuple(enumerate_size_shapes(args.n))
        if args.n is not None
        else tuple(args.shapes)
    )
    try:
        sweep = SweepSpec(
            shapes=shapes,
            models=tuple(args.models),
            ports=tuple(args.ports),
            tasks=tuple(args.tasks),
            kind=args.kind,
            t=args.t,
            samples=args.samples,
            replicates=tuple(range(args.replicates)),
            master_seed=args.master_seed,
        )
        # run_sweep expands first, so a bad --tasks spec or a run-dir
        # manifest mismatch both surface here before any job executes.
        outcome = run_sweep(
            sweep,
            engine=_engine_from(args),
            run_dir=args.run_dir,
            warehouse=_warehouse_from(args),
            progress=_stderr_progress if args.progress else None,
        )
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}")
    print(outcome.result().render())
    print(
        f"jobs: {outcome.total} total, {outcome.executed} executed, "
        f"{outcome.resumed} resumed"
    )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Topology of Randomized Symmetry-Breaking "
            "Distributed Computing' (PODC 2021)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_task=True):
        p.add_argument("sizes", type=_parse_sizes, help="group sizes, e.g. 2,3")
        p.add_argument(
            "--model", choices=("blackboard", "clique"), default="blackboard"
        )
        p.add_argument(
            "--ports",
            choices=("adversarial", "round-robin", "random"),
            default="adversarial",
            help="port assignment for --model clique",
        )
        p.add_argument("--seed", type=int, default=0)
        if with_task:
            p.add_argument(
                "--task",
                default="leader",
                help=(
                    "leader | k-leader:K | weak-sb | unique-ids | deputy | "
                    "threshold:LO,HI | teams:S1,S2,..."
                ),
            )

    p = sub.add_parser("solve", help="decide eventual solvability")
    add_common(p)
    _add_backend_arg(p)
    _add_quotient_arg(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("series", help="exact Pr[S(t)] series")
    add_common(p)
    _add_backend_arg(p)
    _add_quotient_arg(p)
    p.add_argument("--t-max", type=int, default=8)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("expected-time", help="exact expected solving time")
    add_common(p)
    _add_backend_arg(p)
    _add_quotient_arg(p)
    p.set_defaults(func=cmd_expected_time)

    p = sub.add_parser("phase-diagram", help="sweep all shapes of n")
    p.add_argument("n", type=int)
    p.add_argument("--task", default="leader")
    p.add_argument(
        "--run-dir", default=None, help="JSONL run directory (resumable)"
    )
    _add_engine_args(p)
    _add_quotient_arg(p)
    _add_warehouse_args(p)
    _add_progress_args(p)
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("protocol", help="run an election protocol")
    add_common(p, with_task=False)
    p.add_argument("--k", type=int, default=1, help="number of leaders")
    p.add_argument("--max-rounds", type=int, default=96)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("figures", help="render Figures 1-3 as text")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("experiments", help="run reproduction experiments")
    p.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    _add_engine_args(p)
    _add_quotient_arg(p)
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser(
        "run", help="execute one runner job and print its JSON record"
    )
    p.add_argument("sizes", type=_parse_sizes, help="group sizes, e.g. 2,3")
    p.add_argument(
        "--model", choices=runner_spec.MODELS, default="blackboard"
    )
    p.add_argument(
        "--ports",
        choices=_CLI_PORT_KINDS,
        default="adversarial",
        help="port assignment for --model clique",
    )
    p.add_argument(
        "--task",
        default="leader",
        help=(
            "leader | k-leader:K | weak-sb | unique-ids | deputy | "
            "threshold:LO,HI | teams:S1,S2,..."
        ),
    )
    p.add_argument("--kind", choices=runner_spec.KINDS, default="exact")
    p.add_argument("--t", type=int, default=4, help="horizon for --kind sample")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--master-seed", type=int, default=0)
    _add_quotient_arg(p)
    _add_warehouse_args(p)
    _add_progress_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "estimate",
        help="Monte-Carlo Pr[S(t)] estimate (mergeable memoized substreams)",
    )
    add_common(p)
    p.add_argument("--t", type=int, default=4, help="horizon")
    p.add_argument(
        "--samples",
        type=int,
        default=2000,
        help="one-shot sample budget (superseded by --target-width)",
    )
    p.add_argument(
        "--target-width",
        type=float,
        default=None,
        help=(
            "adaptive mode: extend the substream until the Wilson "
            "interval is at most this wide (or --max-samples is hit)"
        ),
    )
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument(
        "--increment",
        type=int,
        default=1000,
        help="adaptive top-up size (one memoizable block by default)",
    )
    p.add_argument("--max-samples", type=int, default=64000)
    p.add_argument(
        "--method",
        choices=("auto", "bits", "scalar"),
        default="auto",
        help=(
            "batch solver: bit-level knowledge partitions (auto/bits) "
            "or the per-trajectory oracle loop (scalar)"
        ),
    )
    _add_warehouse_args(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser(
        "sweep", help="expand and execute a sweep (parallel, resumable)"
    )
    p.add_argument("--n", type=int, help="sweep every size shape of n")
    p.add_argument(
        "--shapes",
        type=_parse_sizes,
        nargs="+",
        help="explicit size shapes, e.g. --shapes 2,3 1,2,2",
    )
    p.add_argument(
        "--models",
        nargs="+",
        choices=runner_spec.MODELS,
        default=runner_spec.MODELS,
    )
    p.add_argument(
        "--ports",
        nargs="+",
        choices=_CLI_PORT_KINDS,
        default=("adversarial",),
    )
    p.add_argument(
        "--tasks",
        nargs="+",
        default=("leader",),
        help="task specs (see --task on solve)",
    )
    p.add_argument("--kind", choices=runner_spec.KINDS, default="exact")
    p.add_argument("--t", type=int, default=4, help="horizon for --kind sample")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument(
        "--replicates", type=int, default=1, help="independent repetitions"
    )
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument(
        "--run-dir", default=None, help="JSONL run directory (resumable)"
    )
    _add_engine_args(p)
    _add_quotient_arg(p)
    _add_warehouse_args(p)
    _add_progress_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "graphs", help="anonymous-graph worst-case analysis (k=1 slice)"
    )
    p.add_argument(
        "graph",
        help="ring:N | path:N | star:N | clique:N | bipartite:M,N",
    )
    p.add_argument("--labeling-limit", type=int, default=1 << 16)
    p.set_defaults(func=cmd_graphs)

    p = sub.add_parser(
        "mermaid", help="refinement lattice as a mermaid state diagram"
    )
    add_common(p)
    p.add_argument("--max-states", type=int, default=64)
    p.set_defaults(func=cmd_mermaid)

    p = sub.add_parser(
        "results",
        help="query/export/stats/compact/ingest/vacuum a results warehouse",
    )
    p.add_argument(
        "action",
        choices=("query", "export", "stats", "compact", "ingest", "vacuum"),
    )
    p.add_argument(
        "directory",
        help="warehouse directory (or a run directory containing warehouse/)",
    )
    p.add_argument(
        "run_dirs",
        nargs="*",
        help=(
            "ingest: run directories whose records.jsonl to ingest; "
            "vacuum: run directories to delete once fully ingested"
        ),
    )
    p.add_argument(
        "--where",
        action="append",
        metavar="COL[OP]VALUE",
        help="filter clause, e.g. model=clique or gcd>=2 (repeatable, ANDed)",
    )
    p.add_argument(
        "--group-by",
        action="append",
        metavar="COLS",
        help="group by comma-separated key columns",
    )
    p.add_argument(
        "--agg",
        action="append",
        metavar="FN[:COL]",
        help=(
            "aggregate for --group-by: count, or sum/mean/min/max/any/all"
            ":column (repeatable; default count)"
        ),
    )
    p.add_argument(
        "--columns", action="append", metavar="COLS",
        help="project to comma-separated columns",
    )
    p.add_argument(
        "--sort-by", action="append", metavar="COLS",
        help="sort rows by comma-separated columns",
    )
    p.add_argument("--limit", type=int, default=None, help="keep first N rows")
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="export format (default csv)",
    )
    p.add_argument(
        "-o", "--output", default=None,
        help="export: write here instead of stdout",
    )
    p.set_defaults(func=cmd_results)

    p = sub.add_parser(
        "report", help="run all experiments and write JSON/CSV/Markdown"
    )
    p.add_argument("output", help="output directory")
    _add_engine_args(p)
    _add_quotient_arg(p)
    _add_progress_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "obs",
        help="read a --profile-out document back: span tree and self times",
    )
    p.add_argument("action", choices=("explain",))
    p.add_argument("path", help="a --profile-out JSON file")
    p.set_defaults(func=cmd_obs)

    # The one switch that turns telemetry on, on every command.
    for p in sub.choices.values():
        p.add_argument(
            "--profile-out",
            default=None,
            metavar="FILE",
            help=(
                "trace this command and write its JSON telemetry profile "
                "(spans, metrics, aggregates) here when it finishes; "
                "read it back with `repro obs explain FILE`"
            ),
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    from .obs import OBS, configure_tracing, trace

    if args.profile_out:
        configure_tracing(True)
    changes = {"trace": OBS.enabled}
    if hasattr(args, "quotient"):
        # Tri-state: the flag absent means "auto" (quotient whenever
        # the configuration's automorphism group is nontrivial).
        changes["quotient"] = (
            "auto" if args.quotient is None
            else "on" if args.quotient else "off"
        )
    with use_context(replace(current_context(), **changes)):
        if OBS.enabled:
            with trace(f"repro.{args.command}"):
                status = args.func(args)
        else:
            status = args.func(args)
    if args.profile_out:
        import json

        from .obs import build_profile

        document = build_profile(command=args.command, argv=tuple(argv))
        with open(args.profile_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote profile to {args.profile_out}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
