"""The repository benchmark: time real ``repro`` commands end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload report --seed 1 --seconds 35 --trace 0

Each repetition starts a fresh interpreter (``child.py``) with fresh run
and warehouse directories, so no process-wide memo or on-disk cache can
turn a cold workload warm; the only deliberate warmth is the
``sample-extend`` prefill, which runs in an interpreter of its own and
counts toward ``setup_s``.  Repetitions run back to back, one at a time,
until ``--seconds`` have passed (at least ``MIN_REPS``); the times of
the timed call are the best of them, set-up time and memory the median
(see ``summarize``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics from
the traced ones (see ``layers.py``), plus the tracing overhead.  Human
readable lines come first -- the workload's argv, seed and reason, the
machine (nproc, CPU model, Python and numpy versions), each repetition,
and every metric with its unit; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout holding this
file; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
#: Traced runs need at least this many untraced and traced repetitions.
MIN_TRACED_REPS = 2
#: Whole-run deadline: a run must end within 180 s.
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Printed with the end-to-end metrics but kept out of the JSON result:
#: ``trials_per_s`` exists only on sample-extend, and ``error_frac`` is
#: 0 on a correct program (the result's ``failed`` carries it).
PRINTED_ONLY = (("trials_per_s", "1/s"), ("error_frac", "frac"))


class BenchmarkError(Exception):
    """The program could not be measured (crash, timeout, missing src)."""


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("per_busy_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(("_ratio", "utilization", "coverage")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def machine_context() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def child_env(tmp: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # Untraced repetitions must really be untraced.
    env.pop("REPRO_TRACE", None)
    # Keep any temporary file inside the checkout.
    env["TMPDIR"] = str(tmp)
    return env


def run_process(argv, *, log: pathlib.Path, deadline: float) -> None:
    """Run ``argv`` to completion (killing it at the deadline)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a repetition")
    with open(log, "w", encoding="utf-8") as handle:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(log.parent), stdout=handle,
            stderr=handle,
        )
        try:
            status = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"timed out: {' '.join(argv)}") from None
    if status != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchmarkError(f"exit status {status}: {' '.join(argv)}\n{tail}")


def repetition(workload, seed: int, run_work: pathlib.Path, index: int,
               traced: bool, deadline: float) -> dict:
    """One fresh-interpreter repetition (plus its prefill)."""
    work = run_work / f"rep{index}"
    work.mkdir(parents=True)
    started = time.monotonic()
    prefill_s = 0.0
    prefill = workload.prefill_argv(work, seed)
    if prefill is not None:
        run_process(
            [sys.executable, "-m", "repro", *prefill],
            log=work / "prefill.log",
            deadline=deadline,
        )
        prefill_s = time.monotonic() - started
    out = work / "result.json"
    run_process(
        [
            sys.executable, str(HERE / "child.py"),
            "--workload", workload.name, "--seed", str(seed),
            "--work", str(work), "--trace", str(int(traced)),
            "--out", str(out),
        ],
        log=work / "child.log",
        deadline=deadline,
    )
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["timed_start"] - started
    result["prefill_s"] = prefill_s
    result["traced"] = traced
    if traced:
        shutil.copy(work / "spans.json",
                    WORK_ROOT / f"{workload.name}-spans.json")
    # The next repetition starts cold: drop this one's run dirs.
    for entry in work.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
    return result


def guard_failures(workload, traced: list[dict]) -> list[str]:
    """Wrapped entry points that never fired where the layer must work.

    A wrapper that patched no binding, or a layer that reports zero work
    on the workload built to exercise it, would silently zero a metric.
    """
    problems = []
    for rep in traced:
        problems += [
            f"{target}: no binding patched"
            for target, count in rep["patched"].items()
            if count < 1
        ]
        problems += [
            f"span {name} never fired"
            for name in workload.busy_spans
            if not rep["fired"].get(name)
        ]
        problems += [
            f"metric {name} is zero"
            for name in workload.busy_metrics
            if not rep["layers"][name]
        ]
    return sorted(set(problems))


def median(values) -> float:
    return float(statistics.median(values))


def summarize(workload, reps: list[dict], trace: bool) -> dict:
    """Aggregate the repetitions into the metrics of the result.

    Times of the timed call are the best of the repetitions: on a
    machine shared with other tenants, contention only ever slows a
    repetition, in phases that last from seconds to minutes, so the
    fastest repetition varies far less from run to run than the median
    (measured on a 2-core Xeon: 14% against 26% quartile spread on
    report).  Set-up time and memory are medians.
    """
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in untraced:
        r["jobs_per_s"] = (r["attempted"] - r["failed"]) / r["wall_s"]
        r["trials_per_s"] = r["trials"] / r["wall_s"]
    wall = min(r["wall_s"] for r in untraced)
    end_to_end = {
        "wall_s": wall,
        "setup_s": median(r["setup_s"] for r in untraced),
        "jobs_per_s": max(r["jobs_per_s"] for r in untraced),
        "cpu_s": min(r["cpu_s"] for r in untraced),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        "trials_per_s": max(r["trials_per_s"] for r in untraced),
    }
    units = dict(END_TO_END + PRINTED_ONLY)
    print(f"end-to-end over {len(untraced)} untraced repetitions "
          f"(reported value; min / median / max):")
    for name, value in end_to_end.items():
        if name == "trials_per_s" and workload.name != "sample-extend":
            print(f"  {name:<14} n/a (no Monte-Carlo trials)")
            continue
        values = [r[name] for r in untraced]
        print(f"  {name:<14} {value:.6g} {units[name]}; {min(values):.6g} / "
              f"{median(values):.6g} / {max(values):.6g}")
    print(f"  {'error_frac':<14} {failed / attempted:.6g} "
          f"{units['error_frac']} ({failed} of {attempted} jobs failed)")
    if not trace:
        return {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in END_TO_END
        }

    per_layer = {}
    for name in traced[0]["layers"]:
        value = median(r["layers"][name] for r in traced)
        per_layer[name] = (
            int(value) if layer_unit(name) == "count" and value.is_integer()
            else value
        )
    per_layer["setup.import_s"] = median(r["import_s"] for r in untraced)
    per_layer["setup.prefill_s"] = median(r["prefill_s"] for r in untraced)
    per_layer["obs.trace_overhead_frac"] = (
        min(r["wall_s"] for r in traced) / wall - 1.0
    )
    print(f"per-layer ({len(traced)} traced repetitions, median):")
    for name, value in per_layer.items():
        print(f"  {name:<36} {value:.6g} {layer_unit(name)}")
    return {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in per_layer.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # The build: byte-compile the sources once, before any timing.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("benchmark: byte-compiling src failed", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    argv = workload.argv(pathlib.Path("WORK"), args.seed)
    print(f"  argv: repro {' '.join(argv)}")
    print(f"  machine: {json.dumps(machine_context())}")

    run_work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_work, ignore_errors=True)
    run_work.mkdir(parents=True)
    reps: list[dict] = []
    try:
        started = time.monotonic()
        index = 0
        while True:
            untraced = sum(1 for r in reps if not r["traced"])
            traced_n = len(reps) - untraced
            enough = (
                traced_n >= MIN_TRACED_REPS and untraced >= MIN_TRACED_REPS
                if args.trace
                else untraced >= MIN_REPS
            )
            if enough and time.monotonic() - started >= args.seconds:
                break
            traced = bool(args.trace) and index % 2 == 1
            reps.append(
                repetition(workload, args.seed, run_work, index, traced,
                           deadline)
            )
            rep = reps[-1]
            print(f"  rep {index}{' traced' if traced else ''}: "
                  f"wall {rep['wall_s']:.4f} s, setup {rep['setup_s']:.4f} s, "
                  f"failed {rep['failed']}/{rep['attempted']}")
            index += 1
        problems = (
            guard_failures(workload, [r for r in reps if r["traced"]])
            if args.trace else []
        )
        if problems:
            raise BenchmarkError("traced run guard: " + "; ".join(problems))
        metrics = summarize(workload, reps, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_work, ignore_errors=True)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
