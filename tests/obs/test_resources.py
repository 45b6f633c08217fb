"""Resource gauges: the stdlib-only RSS/CPU/GC sampler."""

from repro.obs.resources import sample


class TestSample:
    def test_reading_has_the_three_fields(self):
        reading = sample()
        assert set(reading) == {
            "rss_peak", "cpu_seconds", "gc_collections"
        }

    def test_values_are_sane(self):
        reading = sample()
        # A live CPython process holds at least a few MiB and has spent
        # some CPU time; GC generations have collected at least once.
        assert reading["rss_peak"] > 1 << 20
        assert reading["cpu_seconds"] > 0.0
        assert reading["gc_collections"] >= 0

    def test_monotone_fields_never_regress(self):
        first = sample()
        list(range(10000))  # do a little work
        second = sample()
        assert second["rss_peak"] >= first["rss_peak"]
        assert second["cpu_seconds"] >= first["cpu_seconds"]
        assert second["gc_collections"] >= first["gc_collections"]

    def test_reading_is_json_safe(self):
        import json

        json.dumps(sample())

