"""One measured repetition, in a fresh interpreter.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``.  Imports the program
(set-up), optionally wraps every layer in benchmark spans and turns on
the program's own telemetry (``--trace 1``), times exactly one
``repro.cli.main(argv)`` call, then checks its outputs and writes one
JSON result to ``--out``.  The check and the metric collection happen
after the timed call and never count toward it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import pathlib
import pkgutil
import resource
import time
from time import perf_counter

import layers
from workloads import WORKLOADS, pool_workers


def import_program() -> float:
    """Import every ``repro`` module; returns the seconds it took.

    Everything is imported up front -- traced or not -- so the timed
    call does the same work either way, and so the traced run finds
    every module's binding of a wrapped function.
    """
    t0 = perf_counter()
    import repro
    import repro.cli  # noqa: F401

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return perf_counter() - t0


def rusage() -> tuple[float, float, float]:
    """(main-process CPU s, pool-worker CPU s, peak RSS MB of main
    process + largest worker)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + me.ru_stime,
        kids.ru_utime + kids.ru_stime,
        (me.ru_maxrss + kids.ru_maxrss) / 1024.0,
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    work = pathlib.Path(args.work)
    import_s = import_program()

    from repro.cli import main as repro_main
    from repro.obs import OBS, configure_tracing

    argv = workload.argv(work, args.seed)
    recorder = None
    patched = {}
    if args.trace:
        recorder = layers.Recorder()
        patched = layers.install(recorder)
        configure_tracing(True)

    with open(work / "stdout.txt", "w", encoding="utf-8") as sink:
        cpu0, kids0, _ = rusage()
        timed_start = time.monotonic()
        root = recorder.open("cli.main") if recorder else None
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink):
            status = repro_main(argv)
        wall_s = perf_counter() - t0
        if recorder:
            recorder.close(root)
        cpu1, kids1, peak_rss_mb = rusage()

    result = {
        "status": status,
        "wall_s": wall_s,
        "timed_start": timed_start,
        "import_s": import_s,
        "cpu_s": (cpu1 - cpu0) + (kids1 - kids0),
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder:
        snapshot = OBS.metrics.snapshot()
        roots = [span.to_dict() for span in OBS.tracer.roots()]
        configure_tracing(False)
        workers = pool_workers() if workload.engine == "process" else 1
        result["layers"] = layers.layer_metrics(
            recorder, snapshot, roots, wall_s=wall_s, workers=workers
        )
        result["patched"] = patched
        result["fired"] = {
            name: recorder.count(name) for name in set(recorder.names)
        }
        recorder.write(work / "spans.json")
    attempted, failed = workload.check(work, args.seed)
    result["attempted"] = attempted
    result["failed"] = failed if status == 0 else attempted
    result["trials"] = (
        _delivered_trials(work) if workload.name == "sample-extend" else 0
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _delivered_trials(work: pathlib.Path) -> int:
    total = 0
    with open(work / "run" / "records.jsonl", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                total += int(json.loads(line)["value"]["samples"])
    return total


if __name__ == "__main__":
    raise SystemExit(main())
