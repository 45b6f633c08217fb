"""Benchmark-side spans around calls into each layer, and the per-layer metrics.

The traced run wraps the public entry points of every layer (analysis,
chain, runner, results, sampling) in spans recorded by this module --
not by the program -- so the per-layer numbers do not depend on where
the program happens to instrument itself.  A span carries a name, a
start, an end and its parent; spans are kept in memory and written out
when the measured interpreter exits.  A span's self time is its
duration minus the part of it that its children cover.

Work done inside pool workers cannot be seen by these wrappers (a
benchmark span never leaves its process), so pooled time is read from
the spans and counters the program already folds home from its workers
through ``repro.obs``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

#: Functions to wrap: (module, attribute, span name).  Every module that
#: bound the same function object (``from .engine import compile_chain``)
#: is patched too, so no caller slips past the wrapper.
FUNCTIONS = (
    ("repro.analysis.report", "write_report", "analysis.write_report"),
    ("repro.chain.engine", "compile_chain", "chain.compile"),
    ("repro.chain.batch", "run_queries", "chain.query"),
    ("repro.chain.multi", "run_group_queries", "chain.query"),
    ("repro.runner.sweep", "run_sweep", "runner.sweep"),
    ("repro.runner.worker", "execute_run", "runner.job"),
    ("repro.runner.worker", "execute_run_group", "runner.group"),
    ("repro.sampling.estimator", "sample_range", "sampling.sample"),
    ("repro.sampling.kernel", "block_indicators", "sampling.kernel"),
)

#: Methods to wrap: (module, class, method names, span name).
METHODS = (
    ("repro.runner.persistence", "RunDirectory",
     ("append", "load_records", "write_manifest"), "runner.persist"),
    ("repro.results.store", "ResultsStore",
     ("ingest_run_directory", "run_directory_records", "append_rows"),
     "results.store"),
    ("repro.results.memo", "QueryMemo", ("lookup", "record"),
     "results.memo"),
)

#: Experiments whose time the report workload reports on its own.
WORST_CASE_SEARCH = "extension-worst-case-search"
SYMMETRY_CENSUS = "extension-symmetry-census"

#: Root spans of work the program ran in a pool worker and folded home.
WORKER_ROOTS = ("runner.job", "runner.group", "runner.experiment")

LAYERS = ("cli", "analysis", "chain", "runner", "results", "sampling")


class Recorder:
    """Spans of one thread, as parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def close(self, sid: int, **attrs) -> None:
        self.ends[sid] = perf_counter()
        if attrs:
            self.attrs[sid] = attrs
        # An exception that skipped a close leaves stale ids above sid.
        while self._stack and self._stack.pop() != sid:
            pass

    def wrap(self, name: str, fn):
        """``fn`` inside a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    def wrap_experiments(self, fn):
        """``iter_all_experiments``: one span per yielded experiment."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            results = fn(*args, **kwargs)
            while True:
                sid = self.open("analysis.experiment")
                try:
                    result = next(results)
                except StopIteration:
                    self.close(sid)
                    return
                except BaseException:
                    self.close(sid)
                    raise
                self.close(sid, id=result.experiment_id)
                yield result

        return wrapper

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children."""
        children: dict[int, list[int]] = {}
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(sid)
        result = []
        for sid in range(len(self.names)):
            covered = 0.0
            reach = self.starts[sid]
            for child in sorted(children.get(sid, ()),
                                key=self.starts.__getitem__):
                lo = max(self.starts[child], reach)
                hi = self.ends[child]
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(self.ends[sid] - self.starts[sid] - covered)
        return result

    def count(self, name: str) -> int:
        return self.names.count(name)

    def write(self, path) -> None:
        spans = [
            {
                "id": sid,
                "parent": self.parents[sid],
                "name": self.names[sid],
                "start": self.starts[sid],
                "end": self.ends[sid],
                **({"attrs": self.attrs[sid]} if sid in self.attrs else {}),
            }
            for sid in range(len(self.names))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


def install(recorder: Recorder) -> dict[str, int]:
    """Wrap every layer entry point; returns bindings patched per target.

    Every ``repro`` module must already be imported, so that each
    ``from .x import f`` binding is found and replaced.
    """
    patched: dict[str, int] = {}
    analysis = importlib.import_module("repro.analysis")
    original = analysis.iter_all_experiments
    patched["repro.analysis.iter_all_experiments"] = _rebind(
        original, recorder.wrap_experiments(original)
    )
    for module, attribute, name in FUNCTIONS:
        original = getattr(importlib.import_module(module), attribute)
        patched[f"{module}.{attribute}"] = _rebind(
            original, recorder.wrap(name, original)
        )
    for module, cls_name, methods, name in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            setattr(cls, method, recorder.wrap(name, getattr(cls, method)))
            patched[f"{module}.{cls_name}.{method}"] = 1
    return patched


def _rebind(original, wrapper) -> int:
    """Replace ``original`` by ``wrapper`` in every loaded repro module."""
    count = 0
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
                count += 1
    return count


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def program_span_totals(roots: list[dict], pooled: bool) -> dict:
    """Totals over the program's own span forest (``Span.to_dict`` form).

    ``worker.*`` sums cover only spans the program ran under a worker
    root; they count only for a pooled engine, where the benchmark's own
    wrappers could not see that work.  Outermost spans of a name are
    summed, so a name nested in itself is not counted twice.
    """
    totals = {
        "sweep.publish": 0.0, "sweep.execute": 0.0, "sweep.ingest": 0.0,
        "worker.busy": 0.0, "worker.compile": 0.0, "worker.query": 0.0,
        "worker.sample": 0.0,
    }
    kinds = {
        "chain.compile": "worker.compile",
        "chain.batch.execute": "worker.query",
        "chain.multi.execute": "worker.query",
        "job.sample": "worker.sample",
    }

    def walk(span, inside, open_kinds):
        name = span["name"]
        duration = float(span.get("duration", 0.0))
        if name in ("sweep.publish", "sweep.execute", "sweep.ingest"):
            totals[name] += duration
        if name in WORKER_ROOTS and not inside:
            totals["worker.busy"] += duration
            inside = True
        kind = kinds.get(name)
        if inside and pooled and kind and kind not in open_kinds:
            totals[kind] += duration
            open_kinds = open_kinds + (kind,)
        for child in span.get("children") or ():
            walk(child, inside, open_kinds)

    for root in roots:
        walk(root, False, ())
    return totals


def layer_metrics(recorder: Recorder, snapshot: dict, roots: list[dict],
                  *, wall_s: float, workers: int) -> dict:
    """Every per-layer metric the traced run reports (values only)."""
    counters = snapshot.get("counters", {})
    hists = snapshot.get("histograms", {})

    def counter(name):
        return int(counters.get(name, 0))

    def hist_sum(name):
        return float(hists.get(name, {}).get("sum", 0.0))

    self_times = recorder.self_times()
    by_layer = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, float] = {}
    for sid, name in enumerate(recorder.names):
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_times[sid]
        by_name[name] = by_name.get(name, 0.0) + self_times[sid]
    root_self = sum(
        t for sid, t in enumerate(self_times) if recorder.parents[sid] < 0
    )

    experiments = {WORST_CASE_SEARCH: 0.0, SYMMETRY_CENSUS: 0.0, "": 0.0}
    for sid, name in enumerate(recorder.names):
        if name == "analysis.experiment":
            key = recorder.attrs.get(sid, {}).get("id", "")
            key = key if key in experiments else ""
            experiments[key] += recorder.ends[sid] - recorder.starts[sid]

    pooled = workers > 1
    program = program_span_totals(roots, pooled)
    compile_busy = (
        by_name.get("chain.compile", 0.0) + program["worker.compile"]
    )
    query_busy = by_name.get("chain.query", 0.0) + program["worker.query"]
    sampling_busy = by_layer["sampling"] + program["worker.sample"]

    hits = sum(
        counter(f"chain.compile.hit.{source}")
        for source in ("memo", "shm", "disk")
    )
    calls = (
        hits + counter("chain.compile.miss")
        + counter("chain.compile.unmemoized")
    )
    memo_hit = counter("results.memo.hit")
    memo_miss = counter("results.memo.miss")
    execute = program["sweep.execute"]
    return {
        "analysis.worst_case_search_s": experiments[WORST_CASE_SEARCH],
        "analysis.symmetry_census_s": experiments[SYMMETRY_CENSUS],
        "analysis.other_s": experiments[""],
        "chain.compile.calls": calls,
        "chain.compile.busy_s": compile_busy,
        "chain.compile.unmemoized": counter("chain.compile.unmemoized"),
        "chain.compile.miss": counter("chain.compile.miss"),
        "chain.compile.hit_ratio": hits / calls if calls else 0.0,
        "chain.compile.states_sum": hist_sum("chain.compile.states"),
        "chain.quotient.compiles": counter("chain.compile.quotient"),
        "chain.quotient.full_states_sum": hist_sum(
            "chain.quotient.full_states"
        ),
        "chain.quotient.orbits_sum": hist_sum("chain.quotient.orbits"),
        "chain.query.busy_s": query_busy,
        "chain.batch.plans": counter("chain.batch.plans"),
        "chain.batch.queries": counter("chain.batch.queries"),
        "chain.multi.items": counter("chain.multi.items"),
        "runner.jobs": counter("runner.jobs"),
        "runner.groups": counter("runner.groups"),
        "runner.worker_busy_s": program["worker.busy"],
        "runner.pool.utilization": (
            program["worker.busy"] / (workers * execute) if execute else 0.0
        ),
        "sweep.publish_s": program["sweep.publish"],
        "sweep.execute_s": execute,
        "sweep.ingest_s": program["sweep.ingest"],
        "results.memo.hit": memo_hit,
        "results.memo.miss": memo_miss,
        "results.memo.hit_ratio": (
            memo_hit / (memo_hit + memo_miss) if memo_hit + memo_miss else 0.0
        ),
        "results.memo.records": counter("results.memo.records"),
        "results.memo.bytes": counter("results.memo.bytes"),
        "results.store.rows_ingested": counter("results.store.rows_ingested"),
        "results.store.segments": counter("results.store.segments"),
        "mc.samples": counter("mc.samples"),
        "mc.blocks": counter("mc.blocks"),
        "mc.memo.hit": counter("mc.memo.hit"),
        "sampling.busy_s": sampling_busy,
        "sampling.fresh_trials_per_busy_s": (
            counter("mc.samples") / sampling_busy if sampling_busy else 0.0
        ),
        **{f"layer.{layer}.self_s": by_layer[layer] for layer in LAYERS},
        "obs.spans.dropped": counter("obs.spans.dropped"),
        "obs.coverage": 1.0 - root_self / wall_s if wall_s else 0.0,
    }
