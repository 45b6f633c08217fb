"""Thread-safe metrics registry: counters, gauges, log-scale histograms.

Three instrument kinds, chosen for mergeability across processes (pool
workers snapshot their registry into the payload return path and the
sweep orchestrator folds the snapshots into one profile):

* **counters** are monotone integers; merging sums them, so any
  partition of the work over workers folds to the same totals.
* **gauges** are last-written floats describing a *state* (cache entry
  counts, per-digest load counts); merging takes the max, which is
  order-independent and right for monotone state like load counts.
* **histograms** bucket observations into fixed power-of-two bins
  (:func:`bin_index`); merging sums the buckets.  Fixed bins mean two
  histograms built anywhere, over any data, always merge exactly --
  there is no re-binning and no information loss beyond the bucket
  resolution (one octave).

Nothing here is wired to the rest of the package: the registry is a
stdlib-only leaf (see :data:`repro.obs.OBS` for the process-wide
instance and the ``enabled`` guard the hot paths check before touching
it).
"""

from __future__ import annotations

import math
import threading

#: Number of histogram buckets, including the two open-ended ones.
NBINS = 64

#: Exponent of the first finite bucket boundary: bucket 1 starts at
#: ``2**MIN_EXP`` (~1 ns when observing seconds); everything below --
#: including zero and negatives -- lands in bucket 0.
MIN_EXP = -30


def bin_index(value: float) -> int:
    """The histogram bucket of ``value`` (power-of-two log scale).

    Bucket 0 holds ``value < 2**MIN_EXP`` (and all non-positives);
    bucket ``i`` (``1 <= i < NBINS - 1``) holds
    ``2**(MIN_EXP + i - 1) <= value < 2**(MIN_EXP + i)``; the last
    bucket is open above.
    """
    if value <= 0.0:
        return 0
    exponent = math.floor(math.log2(value))
    return max(0, min(NBINS - 1, exponent - MIN_EXP + 1))


def bin_edges() -> "list[float]":
    """The ``NBINS - 1`` finite bucket boundaries, ascending.

    ``bin_edges()[i]`` separates bucket ``i`` from bucket ``i + 1``;
    the outermost buckets are open below/above.  Pinned by tests so the
    binning can never silently drift between writers and readers.
    """
    return [2.0 ** (MIN_EXP + i) for i in range(NBINS - 1)]


#: Quantiles :func:`histogram_percentiles` reports, as ``p<N>`` keys.
PERCENTILES = (0.5, 0.9, 0.99)


def histogram_percentiles(hist: dict) -> "dict[str, float]":
    """p50/p90/p99 estimates from a histogram's log2 buckets.

    The 64 fixed buckets localize each observation to one octave, so a
    quantile is recovered by walking the cumulative bucket counts and
    reporting the geometric midpoint of the bucket the target rank
    falls in -- exact to within the bucket's octave, which is the
    resolution the histogram stores.  Estimates are clamped to the
    recorded ``[min, max]`` (the open-ended outer buckets have no
    midpoint of their own), so a single-valued histogram reports that
    value for every percentile.  Empty histograms return ``{}``.
    """
    count = int(hist.get("count", 0))
    bins = hist.get("bins") or {}
    if count <= 0 or not bins:
        return {}
    low = float(hist.get("min", 0.0))
    high = float(hist.get("max", 0.0))
    buckets = sorted((int(key), int(n)) for key, n in bins.items())
    result: dict[str, float] = {}
    for quantile in PERCENTILES:
        target = quantile * count
        seen = 0
        estimate = high
        for bucket, n in buckets:
            seen += n
            if seen >= target:
                if 1 <= bucket < NBINS - 1:
                    # Bucket spans [2**(MIN_EXP+b-1), 2**(MIN_EXP+b));
                    # its geometric midpoint is the half-octave point.
                    estimate = 2.0 ** (MIN_EXP + bucket - 0.5)
                elif bucket == 0:
                    estimate = low
                else:
                    estimate = high
                break
        key = f"p{int(round(quantile * 100))}"
        result[key] = max(low, min(high, estimate))
    return result


def _new_histogram() -> dict:
    return {
        "count": 0,
        "sum": 0.0,
        "min": math.inf,
        "max": -math.inf,
        "bins": {},
    }


class MetricsRegistry:
    """Counters, gauges, and histograms behind one lock.

    All mutation and snapshotting is thread-safe; snapshots are
    JSON-safe deep copies (histogram bucket keys become strings), so a
    snapshot can cross a process boundary and :meth:`merge` into
    another registry without any further translation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def inc(self, name: str, by: int = 1) -> None:
        """Add ``by`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(by)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins locally)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        value = float(value)
        bucket = bin_index(value)
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _new_histogram()
            hist["count"] += 1
            hist["sum"] += value
            hist["min"] = min(hist["min"], value)
            hist["max"] = max(hist["max"], value)
            key = str(bucket)
            hist["bins"][key] = hist["bins"].get(key, 0) + 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> "float | None":
        """Current value of gauge ``name``, or ``None``."""
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> "dict | None":
        """A copy of histogram ``name``, or ``None``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                return None
            return {**hist, "bins": dict(hist["bins"])}

    def snapshot(self) -> dict:
        """JSON-safe deep copy of everything, mergeable elsewhere."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {**hist, "bins": dict(hist["bins"])}
                    for name, hist in self._histograms.items()
                },
            }

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters sum, gauges take the max (order-independent, right for
        monotone state), histogram buckets sum -- so merging worker
        snapshots in any order yields the same registry.
        """
        if not isinstance(snapshot, dict):
            return
        counters = snapshot.get("counters") or {}
        gauges = snapshot.get("gauges") or {}
        histograms = snapshot.get("histograms") or {}
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + int(
                    value
                )
            for name, value in gauges.items():
                value = float(value)
                current = self._gauges.get(name)
                if current is None or value > current:
                    self._gauges[name] = value
            for name, theirs in histograms.items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = _new_histogram()
                hist["count"] += int(theirs.get("count", 0))
                hist["sum"] += float(theirs.get("sum", 0.0))
                hist["min"] = min(hist["min"], float(theirs.get("min",
                                                                math.inf)))
                hist["max"] = max(hist["max"], float(theirs.get("max",
                                                                -math.inf)))
                for key, count in (theirs.get("bins") or {}).items():
                    key = str(key)
                    hist["bins"][key] = hist["bins"].get(key, 0) + int(count)

    def reset(self) -> None:
        """Drop every instrument (tests; worker drain-and-ship)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def drain(self) -> dict:
        """Atomically :meth:`snapshot` and :meth:`reset`.

        The worker-side half of cross-process folding: a pool worker
        drains after each job so successive payloads ship disjoint
        deltas; in a serial engine the parent merges each drain
        straight back, netting to the unchanged totals.
        """
        with self._lock:
            snap = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {**hist, "bins": dict(hist["bins"])}
                    for name, hist in self._histograms.items()
                },
            }
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        return snap

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})"
            )


__all__ = [
    "MIN_EXP",
    "MetricsRegistry",
    "NBINS",
    "PERCENTILES",
    "bin_edges",
    "bin_index",
    "histogram_percentiles",
]
