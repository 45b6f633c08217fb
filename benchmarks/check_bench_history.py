"""Perf-regression sentinel over the ``BENCH_*.json`` reports.

Every scaling-sensitive benchmark writes a machine-readable report
(``BENCH_quotient.json``, ``BENCH_store.json``, ``BENCH_mc.json``,
``BENCH_obs.json``).  This
script closes the loop CI-side: it compares the fresh reports against
the committed baselines in ``benchmarks/baselines/`` and fails when a
gated metric regresses beyond tolerance, so a perf regression breaks
the build instead of silently eroding the archived trajectory.

What is gated -- only the machine-normalized *ratio* metrics, by key
pattern:

* keys containing ``speedup`` are higher-better (regression when the
  fresh value drops below ``baseline * (1 - tolerance)``);
* keys containing ``overhead`` are lower-better (regression when the
  fresh value rises above ``baseline * (1 + tolerance)``);
* configured floors/ceilings (``min_*`` / ``max_*``) and everything
  else -- raw ``*_seconds`` wall clock, counts, verdict lists -- are
  reported informationally but never gated: absolute timings do not
  transfer between a laptop baseline and a shared CI runner, while the
  paired ratios do.

Tolerance is the relative slack ``BENCH_HISTORY_TOLERANCE`` (default
0.25: a committed 5x speedup gates at 3.75x).  CI runs with a wider
slack than quiet hardware, same convention as the per-benchmark
``*_MIN_SPEEDUP`` floors.

Usage::

    python benchmarks/check_bench_history.py              # check cwd reports
    python benchmarks/check_bench_history.py BENCH_obs.json
    python benchmarks/check_bench_history.py --update     # rebless baselines

A report without a committed baseline (or a baseline whose benchmark
did not run) is skipped with a note, never failed: new benchmarks land
first, their baselines are blessed with ``--update`` once the numbers
settle.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")

#: Relative slack on gated ratios; relaxable on noisy runners.
TOLERANCE = float(os.environ.get("BENCH_HISTORY_TOLERANCE", "0.25"))


def gated_direction(key: str) -> "str | None":
    """``"higher"``/``"lower"`` for gated keys, ``None`` otherwise."""
    lowered = key.lower().rsplit(".", 1)[-1]
    if lowered.startswith(("min_", "max_")):
        return None  # configured floors/ceilings, not measurements
    if "speedup" in lowered:
        return "higher"
    if "overhead" in lowered:
        return "lower"
    return None


def flatten(report: dict, prefix: str = "") -> dict:
    """Numeric leaves of a (possibly nested) report, dotted keys."""
    flat: dict = {}
    for key, value in report.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, f"{dotted}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[dotted] = value
    return flat


def compare_report(name: str, fresh: dict, baseline: dict, tolerance: float):
    """``(gated, regressions, notes)`` for one report pair."""
    gated = []
    regressions = []
    notes = []
    fresh = flatten(fresh)
    baseline = flatten(baseline)
    for key in sorted(fresh):
        value = fresh[key]
        if key not in baseline:
            continue
        base = baseline[key]
        direction = gated_direction(key)
        if direction is None:
            if key.endswith("_seconds") and base > 0:
                notes.append(
                    f"  info  {name}:{key}: {value:.6g} vs baseline "
                    f"{base:.6g} ({value / base:.2f}x, not gated)"
                )
            continue
        if direction == "higher":
            floor = base * (1.0 - tolerance)
            ok = value >= floor
            bound = f">= {floor:.3f}"
        else:
            ceiling = base * (1.0 + tolerance)
            ok = value <= ceiling
            bound = f"<= {ceiling:.3f}"
        line = (
            f"  {'ok   ' if ok else 'FAIL '}{name}:{key}: {value:.3f} "
            f"vs baseline {base:.3f} (gate {bound})"
        )
        gated.append(line)
        if not ok:
            regressions.append(line)
    return gated, regressions, notes


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "reports",
        nargs="*",
        help="BENCH_*.json files to check (default: BENCH_*.json in cwd)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=BASELINE_DIR,
        help="directory of committed baseline reports",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE,
        help="relative slack on gated ratios (default from "
        "BENCH_HISTORY_TOLERANCE, else 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="bless the fresh reports as the new baselines",
    )
    args = parser.parse_args(argv)

    reports = args.reports or sorted(glob.glob("BENCH_*.json"))
    if not reports:
        print("no BENCH_*.json reports found; nothing to check")
        return 0

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in reports:
            target = os.path.join(args.baseline_dir, os.path.basename(path))
            shutil.copyfile(path, target)
            print(f"blessed {path} -> {target}")
        return 0

    failures = 0
    checked = 0
    for path in reports:
        name = os.path.basename(path)
        baseline_path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(path):
            print(f"skip  {name}: report not written this run")
            continue
        if not os.path.exists(baseline_path):
            print(
                f"skip  {name}: no committed baseline "
                f"(bless with --update once the numbers settle)"
            )
            continue
        with open(path, encoding="utf-8") as handle:
            fresh = json.load(handle)
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        gated, regressions, notes = compare_report(
            name, fresh, baseline, args.tolerance
        )
        print(f"{name}: {len(gated)} gated metric(s)")
        for line in gated + notes:
            print(line)
        if gated:
            checked += 1
        failures += len(regressions)

    verdict = "PASS" if failures == 0 else "FAIL"
    print(
        f"perf sentinel: {checked} report(s) gated at tolerance "
        f"{args.tolerance:.0%}, {failures} regression(s): {verdict}"
    )
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
