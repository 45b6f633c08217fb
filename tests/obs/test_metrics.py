"""The metrics registry: bins, merge laws, and atomic drains."""

import random
import threading

import pytest

from repro.obs import MetricsRegistry, bin_edges, bin_index
from repro.obs.metrics import MIN_EXP, NBINS


class TestHistogramBins:
    def test_bin_edges_are_pinned(self):
        edges = bin_edges()
        # 64 buckets need 63 finite boundaries; the first bucket is
        # everything below 2^-30 (including zero and negatives), the
        # last is open above 2^32.
        assert len(edges) == NBINS - 1
        assert edges[0] == 2.0 ** MIN_EXP == 2.0 ** -30
        assert edges[-1] == 2.0 ** (MIN_EXP + NBINS - 2) == 2.0 ** 32
        for lo, hi in zip(edges, edges[1:]):
            assert hi == lo * 2.0

    def test_bin_index_boundaries(self):
        assert bin_index(0.0) == 0
        assert bin_index(-5.0) == 0
        assert bin_index(2.0 ** -31) == 0  # below the first edge
        assert bin_index(2.0 ** -30) == 1  # exactly on it
        assert bin_index(1.0) == bin_index(1.5) == 31
        assert bin_index(2.0) == 32
        assert bin_index(2.0 ** 40) == NBINS - 1  # clamps into the top

    def test_observe_fills_the_right_bucket(self):
        registry = MetricsRegistry()
        registry.observe("lat", 1.0)
        registry.observe("lat", 1.9)
        registry.observe("lat", 4.0)
        hist = registry.histogram("lat")
        assert hist["count"] == 3
        assert hist["sum"] == 6.9
        assert hist["min"] == 1.0
        assert hist["max"] == 4.0
        assert hist["bins"] == {str(bin_index(1.0)): 2,
                                str(bin_index(4.0)): 1}


class TestMergeLaws:
    def test_counters_sum_gauges_max_histograms_fold(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("jobs", 3)
        b.inc("jobs", 4)
        a.gauge("entries", 10)
        b.gauge("entries", 7)
        a.observe("lat", 1.0)
        b.observe("lat", 8.0)
        a.merge(b.snapshot())
        assert a.counter("jobs") == 7
        assert a.gauge_value("entries") == 10  # max, order-independent
        hist = a.histogram("lat")
        assert hist["count"] == 2
        assert hist["sum"] == 9.0
        assert (hist["min"], hist["max"]) == (1.0, 8.0)

    def test_merge_is_order_independent(self):
        snaps = []
        for seed in (1, 2, 3):
            registry = MetricsRegistry()
            registry.inc("n", seed)
            registry.gauge("g", seed * 10)
            registry.observe("h", float(seed))
            snaps.append(registry.snapshot())
        forward = MetricsRegistry()
        backward = MetricsRegistry()
        for snap in snaps:
            forward.merge(snap)
        for snap in reversed(snaps):
            backward.merge(snap)
        assert forward.snapshot() == backward.snapshot()

    def test_drain_snapshots_and_resets_atomically(self):
        registry = MetricsRegistry()
        registry.inc("jobs", 2)
        registry.gauge("g", 5)
        registry.observe("h", 1.5)
        before = registry.snapshot()
        drained = registry.drain()
        assert drained == before
        empty = registry.snapshot()
        assert empty["counters"] == {}
        assert empty["gauges"] == {}
        assert empty["histograms"] == {}
        # Drain-then-merge-back is a no-op for the totals: the serial
        # engine relies on this when worker code drains in-process.
        registry.merge(drained)
        assert registry.snapshot() == before

    def test_snapshot_is_a_deep_copy(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        snap = registry.snapshot()
        snap["histograms"]["h"]["bins"]["99"] = 123
        assert "99" not in registry.histogram("h")["bins"]


class TestHistogramPercentiles:
    def test_empty_histogram_has_no_percentiles(self):
        from repro.obs import histogram_percentiles

        assert histogram_percentiles({"count": 0, "bins": {}}) == {}

    def test_single_value_reports_itself_everywhere(self):
        from repro.obs import histogram_percentiles

        registry = MetricsRegistry()
        registry.observe("h", 3.5)
        pct = histogram_percentiles(registry.histogram("h"))
        assert pct == {"p50": 3.5, "p90": 3.5, "p99": 3.5}

    def test_quantiles_walk_the_cumulative_buckets(self):
        from repro.obs import histogram_percentiles

        registry = MetricsRegistry()
        for _ in range(90):
            registry.observe("h", 1.0)      # octave [1, 2)
        for _ in range(10):
            registry.observe("h", 1000.0)   # octave [512, 1024)
        pct = histogram_percentiles(registry.histogram("h"))
        # p50/p90 land in the first octave (geometric midpoint 2**0.5);
        # p99 lands in the tail octave (midpoint 2**9.5).
        assert pct["p50"] == 2.0 ** 0.5
        assert pct["p90"] == 2.0 ** 0.5
        assert pct["p99"] == 2.0 ** 9.5

    def test_estimates_clamp_to_the_recorded_extremes(self):
        from repro.obs import histogram_percentiles

        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        registry.observe("h", 1.01)
        # Both in the [1, 2) octave: the midpoint estimate (~1.414)
        # exceeds the recorded max, so the max wins.
        pct = histogram_percentiles(registry.histogram("h"))
        assert pct == {"p50": 1.01, "p90": 1.01, "p99": 1.01}

    def test_bucket_zero_reports_the_minimum(self):
        from repro.obs import histogram_percentiles

        registry = MetricsRegistry()
        registry.observe("h", 0.0)  # bucket 0 is open below
        pct = histogram_percentiles(registry.histogram("h"))
        assert pct["p50"] == 0.0


class TestGauges:
    """Unlabelled gauges: last write wins locally, max wins on merge."""

    def test_last_write_wins_locally(self):
        registry = MetricsRegistry()
        registry.gauge("entries", 10)
        registry.gauge("entries", 3)
        assert registry.gauge_value("entries") == 3.0

    def test_an_unset_gauge_reads_none(self):
        assert MetricsRegistry().gauge_value("entries") is None

    def test_values_are_stored_as_floats(self):
        registry = MetricsRegistry()
        registry.gauge("entries", 7)
        value = registry.gauge_value("entries")
        assert isinstance(value, float)
        assert registry.snapshot()["gauges"] == {"entries": 7.0}

    def test_merge_into_an_empty_registry_keeps_a_negative_gauge(self):
        source = MetricsRegistry()
        source.gauge("delta", -2.5)
        target = MetricsRegistry()
        target.merge(source.snapshot())
        assert target.gauge_value("delta") == -2.5

    def test_remerging_a_snapshot_moves_counters_but_not_gauges(self):
        source = MetricsRegistry()
        source.inc("jobs", 2)
        source.gauge("entries", 4)
        snap = source.snapshot()
        target = MetricsRegistry()
        target.merge(snap)
        target.merge(snap)
        assert target.counter("jobs") == 4
        assert target.gauge_value("entries") == 4.0


class TestMergeInputs:
    @pytest.mark.parametrize(
        "snapshot",
        [None, [], "counters", {}, {"counters": None, "gauges": None,
                                    "histograms": None}],
        ids=["none", "list", "string", "empty", "null-sections"],
    )
    def test_non_snapshots_and_empty_sections_change_nothing(self,
                                                             snapshot):
        registry = MetricsRegistry()
        registry.inc("jobs", 1)
        registry.gauge("entries", 2)
        registry.observe("lat", 0.5)
        before = registry.snapshot()
        registry.merge(snapshot)
        assert registry.snapshot() == before


class TestPartitionLaw:
    """Any split of the work over workers folds to one registry's totals.

    Observations are dyadic so histogram sums are exact in any order,
    and gauge writes are monotone, the state the max-merge is for.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_drained_workers_fold_to_the_single_process_totals(self, seed):
        rng = random.Random(seed)
        events = [
            (rng.choice(["a", "b", "c"]), rng.randrange(1, 5),
             2.0 ** rng.randrange(-20, 20))
            for _ in range(200)
        ]
        workers = [MetricsRegistry() for _ in range(rng.randrange(1, 6))]
        single = MetricsRegistry()
        for step, (name, by, value) in enumerate(events):
            for registry in (single, rng.choice(workers)):
                registry.inc(name, by)
                registry.gauge(f"{name}.high", step)
                registry.observe(name, value)
        folded = MetricsRegistry()
        for registry in rng.sample(workers, len(workers)):
            folded.merge(registry.drain())
        assert folded.snapshot() == single.snapshot()


class TestThreadSafety:
    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(2000):
                registry.inc("jobs")
                registry.observe("lat", 1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("jobs") == 8000
        assert registry.histogram("lat")["count"] == 8000
