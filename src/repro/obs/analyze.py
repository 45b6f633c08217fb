"""Cross-run analytics over the warehouse ``telemetry`` table.

A traced sweep (``--profile-out`` on the CLI) with a warehouse
persists its folded telemetry (counters, gauges, histogram totals,
span aggregates) as rows stamped with the append time and the sweep's
``master_seed`` (see ``runner/sweep.py`` and
:data:`repro.results.store.TELEMETRY_COLUMNS`).  One sweep's rows are
a profile; *several* sweeps' rows are a history, and this module is
the API that reads it back:

* :func:`metrics_history` -- the long view: every persisted telemetry
  row across stamps, filterable by kind/name/master_seed, ordered for
  trend reading (``repro obs history``);
* :func:`diff_sweeps` -- two sweeps compared tier by tier: per metric
  name, both values, the delta, and the ratio (``repro obs diff``);
* :func:`tier_attribution` -- where one sweep's wall-clock went: span
  *self*-time shares per tier (``repro obs tiers``).

Everything here is read-only over the store's vectorized
:class:`~repro.results.query.Table` pages; nothing imports the chain
or runner tiers.  Stamps are compared exactly: the float written by
:func:`repro.obs.clock.now` round-trips bit-identically through the
npz segment, so a stamp returned by :func:`sweep_stamps` always
selects precisely its own rows.

Merge-law caveat (see OBS.md): persisted histogram rows carry the
*totals* (sum and count), not the 64 buckets, so histories and diffs
of ``hist`` rows compare means, not percentiles; percentiles live in
the in-process snapshot and ``--profile-out`` documents.
"""

from __future__ import annotations

#: Telemetry kinds in display order (the persisted ``kind`` column).
TELEMETRY_KINDS = ("counter", "gauge", "hist", "span", "span.self")


def _telemetry_table(store):
    if "telemetry" not in store.tables():
        return None
    return store.table("telemetry")


def sweep_stamps(store) -> list:
    """Distinct persisted sweeps, oldest first.

    Returns ``(stamp, master_seed)`` pairs -- one per traced sweep that
    landed telemetry in this warehouse.  The stamp (append wall-clock)
    is the sweep's identity for :func:`diff_sweeps` /
    :func:`tier_attribution`; the master seed says which sweep spec it
    was.
    """
    table = _telemetry_table(store)
    if table is None or not len(table):
        return []
    pairs = {
        (float(row["stamp"]), int(row["master_seed"]))
        for row in table.project(["stamp", "master_seed"]).to_rows()
    }
    return sorted(pairs)


def metrics_history(
    store,
    *,
    kind: "str | None" = None,
    name: "str | None" = None,
    master_seed: "int | None" = None,
) -> list:
    """Every telemetry row across stamps, ordered for trend reading.

    Rows come back sorted by ``(name, kind, stamp)`` so consecutive
    lines show one metric evolving across sweeps.  ``kind`` filters to
    one of :data:`TELEMETRY_KINDS`; ``name`` is a substring match;
    ``master_seed`` restricts to one sweep spec's runs.
    """
    from ..results.query import col

    table = _telemetry_table(store)
    if table is None or not len(table):
        return []
    if kind is not None:
        table = table.filter(col("kind") == kind)
    if master_seed is not None:
        table = table.filter(col("master_seed") == int(master_seed))
    rows = table.sort_by(["name", "kind", "stamp"]).to_rows()
    if name is not None:
        rows = [row for row in rows if name in str(row["name"])]
    return rows


def _stamp_values(store, stamp: float) -> dict:
    """``{(kind, name): (value, count)}`` for one sweep's rows."""
    from ..results.query import col

    table = _telemetry_table(store)
    if table is None:
        return {}
    rows = table.filter(col("stamp") == float(stamp)).to_rows()
    return {
        (str(row["kind"]), str(row["name"])): (
            float(row["value"]),
            int(row["count"]),
        )
        for row in rows
    }


def _known_stamps(store, *explicit) -> tuple:
    """The persisted stamps (oldest first) and their display list.

    Raises :class:`ValueError` naming every available stamp when an
    explicit (non-``None``) stamp matches no persisted sweep.  Stamps
    round-trip bit-identically through the warehouse, so equality is
    the right test.
    """
    stamps = [stamp for stamp, _ in sweep_stamps(store)]
    available = ", ".join(f"{stamp!r}" for stamp in stamps) or "none"
    for stamp in explicit:
        if stamp is not None and float(stamp) not in stamps:
            raise ValueError(
                f"no persisted sweep has stamp {stamp!r}; "
                f"available stamps: {available}"
            )
    return stamps, available


def diff_sweeps(
    store,
    stamp_a: "float | None" = None,
    stamp_b: "float | None" = None,
) -> list:
    """Tier-by-tier comparison of two persisted sweeps.

    Defaults to the two most recent stamps (older as side ``a``); any
    two persisted sweeps can be compared by passing their stamps
    explicitly (``repro obs diff --a A --b B``).  An explicit stamp
    that matches no persisted sweep raises a :class:`ValueError` that
    lists every available stamp.  One output row per metric name
    present in either sweep:
    ``{kind, name, a, b, delta, ratio}`` with absent sides reported as
    ``0.0`` and ``ratio`` of ``b/a`` (``None`` when ``a`` is zero).
    Rows are ordered by kind (:data:`TELEMETRY_KINDS`) then name, so
    all counters diff together, then gauges, then span timings.
    """
    stamps, available = _known_stamps(store, stamp_a, stamp_b)
    if stamp_b is None:
        if len(stamps) < 2 and stamp_a is None:
            raise ValueError(
                "diff needs two persisted sweeps; this warehouse has "
                f"{len(stamps)} (available stamps: {available})"
            )
        stamp_b = stamps[-1]
    if stamp_a is None:
        earlier = [stamp for stamp in stamps if stamp < stamp_b]
        if not earlier:
            raise ValueError(
                "no sweep earlier than the diff target "
                f"(available stamps: {available})"
            )
        stamp_a = earlier[-1]
    side_a = _stamp_values(store, stamp_a)
    side_b = _stamp_values(store, stamp_b)
    kind_order = {kind: i for i, kind in enumerate(TELEMETRY_KINDS)}
    diff = []
    for key in sorted(
        set(side_a) | set(side_b),
        key=lambda key: (kind_order.get(key[0], len(kind_order)), key[1]),
    ):
        kind, name = key
        value_a = side_a.get(key, (0.0, 0))[0]
        value_b = side_b.get(key, (0.0, 0))[0]
        diff.append(
            {
                "kind": kind,
                "name": name,
                "a": value_a,
                "b": value_b,
                "delta": value_b - value_a,
                "ratio": (value_b / value_a) if value_a else None,
            }
        )
    return diff


def tier_attribution(store, stamp: "float | None" = None) -> list:
    """Where one sweep's wall-clock went, by span self-time.

    Reads the ``span.self`` rows (time inside each span minus its
    children -- the exclusive cost of that tier) for ``stamp``
    (default: the most recent sweep) and returns ``{name, seconds,
    calls, share}`` rows sorted by descending seconds, ``share``
    normalized over the sweep's total self-time.  An explicit stamp
    that matches no persisted sweep raises a :class:`ValueError` that
    lists every available stamp.
    """
    stamps, _ = _known_stamps(store, stamp)
    if stamp is None:
        if not stamps:
            return []
        stamp = stamps[-1]
    values = _stamp_values(store, stamp)
    selves = {
        name: (value, count)
        for (kind, name), (value, count) in values.items()
        if kind == "span.self"
    }
    total = sum(value for value, _ in selves.values())
    rows = [
        {
            "name": name,
            "seconds": value,
            "calls": count,
            "share": (value / total) if total > 0.0 else 0.0,
        }
        for name, (value, count) in selves.items()
    ]
    rows.sort(key=lambda row: (-row["seconds"], row["name"]))
    return rows


__all__ = [
    "TELEMETRY_KINDS",
    "diff_sweeps",
    "metrics_history",
    "sweep_stamps",
    "tier_attribution",
]
