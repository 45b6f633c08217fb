"""Cross-run analytics: history, sweep diffs, tier attribution."""

import pytest

from repro.obs.analyze import (
    TELEMETRY_KINDS,
    diff_sweeps,
    metrics_history,
    sweep_stamps,
    tier_attribution,
)
from repro.results import ResultsStore
from repro.results.store import TELEMETRY_COLUMNS


def telemetry_row(stamp, kind, name, value, count=1, master_seed=0):
    return {
        "stamp": float(stamp),
        "master_seed": int(master_seed),
        "kind": kind,
        "name": name,
        "value": float(value),
        "count": int(count),
    }


@pytest.fixture
def store(tmp_path):
    """Two persisted traced sweeps: stamp 100 (seed 0), stamp 200 (seed 7)."""
    store = ResultsStore(tmp_path / "warehouse")
    store.append_rows(
        "telemetry",
        [
            telemetry_row(100.0, "counter", "runner.jobs", 10, 10),
            telemetry_row(100.0, "counter", "chain.compile.fresh", 4, 4),
            telemetry_row(100.0, "span.self", "sweep.execute", 0.75, 1),
            telemetry_row(100.0, "span.self", "sweep.persist", 0.25, 1),
            telemetry_row(200.0, "counter", "runner.jobs", 20, 20,
                          master_seed=7),
            telemetry_row(200.0, "counter", "runner.groups", 3, 3,
                          master_seed=7),
            telemetry_row(200.0, "span.self", "sweep.execute", 0.5, 1,
                          master_seed=7),
        ],
        TELEMETRY_COLUMNS,
    )
    return store


class TestSweepStamps:
    def test_distinct_stamps_oldest_first(self, store):
        assert sweep_stamps(store) == [(100.0, 0), (200.0, 7)]

    def test_empty_store_has_no_sweeps(self, tmp_path):
        assert sweep_stamps(ResultsStore(tmp_path / "empty")) == []


class TestMetricsHistory:
    def test_rows_are_ordered_for_trend_reading(self, store):
        rows = metrics_history(store, kind="counter")
        assert [
            (r["name"], r["stamp"]) for r in rows
        ] == [
            ("chain.compile.fresh", 100.0),
            ("runner.groups", 200.0),
            ("runner.jobs", 100.0),
            ("runner.jobs", 200.0),
        ]

    def test_name_substring_and_seed_filters(self, store):
        by_name = metrics_history(store, name="jobs")
        assert {r["name"] for r in by_name} == {"runner.jobs"}
        assert len(by_name) == 2
        by_seed = metrics_history(store, master_seed=7)
        assert {r["stamp"] for r in by_seed} == {200.0}
        assert metrics_history(store, master_seed=3) == []

    def test_empty_store_yields_no_rows(self, tmp_path):
        assert metrics_history(ResultsStore(tmp_path / "empty")) == []


class TestDiffSweeps:
    def test_defaults_to_the_two_most_recent_sweeps(self, store):
        diff = diff_sweeps(store)
        by_name = {(r["kind"], r["name"]): r for r in diff}
        jobs = by_name[("counter", "runner.jobs")]
        assert (jobs["a"], jobs["b"]) == (10.0, 20.0)
        assert jobs["delta"] == 10.0
        assert jobs["ratio"] == 2.0
        # Present on one side only: absent side reads 0, ratio undefined.
        groups = by_name[("counter", "runner.groups")]
        assert (groups["a"], groups["b"]) == (0.0, 3.0)
        assert groups["ratio"] is None
        gone = by_name[("counter", "chain.compile.fresh")]
        assert (gone["a"], gone["b"]) == (4.0, 0.0)
        assert gone["ratio"] == 0.0

    def test_rows_are_ordered_counters_before_spans(self, store):
        kinds = [row["kind"] for row in diff_sweeps(store)]
        order = {kind: i for i, kind in enumerate(TELEMETRY_KINDS)}
        assert kinds == sorted(kinds, key=order.__getitem__)

    def test_explicit_stamps_select_their_sides(self, store):
        diff = diff_sweeps(store, stamp_a=200.0, stamp_b=100.0)
        jobs = next(r for r in diff if r["name"] == "runner.jobs")
        assert (jobs["a"], jobs["b"]) == (20.0, 10.0)
        assert jobs["ratio"] == 0.5

    def test_one_sweep_is_not_diffable(self, tmp_path):
        store = ResultsStore(tmp_path / "warehouse")
        store.append_rows(
            "telemetry",
            [telemetry_row(100.0, "counter", "runner.jobs", 1)],
            TELEMETRY_COLUMNS,
        )
        with pytest.raises(ValueError):
            diff_sweeps(store)
        with pytest.raises(ValueError):
            diff_sweeps(store, stamp_b=100.0)  # nothing earlier

    def test_unknown_stamp_error_lists_available_stamps(self, store):
        with pytest.raises(ValueError) as err:
            diff_sweeps(store, stamp_a=123.0, stamp_b=200.0)
        message = str(err.value)
        assert "123.0" in message
        assert "available stamps" in message
        assert "100.0" in message and "200.0" in message

    def test_too_few_sweeps_error_lists_available_stamps(self, tmp_path):
        store = ResultsStore(tmp_path / "warehouse")
        store.append_rows(
            "telemetry",
            [telemetry_row(100.0, "counter", "runner.jobs", 1)],
            TELEMETRY_COLUMNS,
        )
        with pytest.raises(ValueError) as err:
            diff_sweeps(store)
        assert "available stamps" in str(err.value)
        assert "100.0" in str(err.value)


class TestTierAttribution:
    def test_latest_sweep_by_default_shares_normalized(self, store):
        rows = tier_attribution(store)
        assert rows == [
            {
                "name": "sweep.execute",
                "seconds": 0.5,
                "calls": 1,
                "share": 1.0,
            }
        ]

    def test_explicit_stamp_descending_self_time(self, store):
        rows = tier_attribution(store, stamp=100.0)
        assert [r["name"] for r in rows] == [
            "sweep.execute", "sweep.persist",
        ]
        assert [r["share"] for r in rows] == [0.75, 0.25]
        assert sum(r["seconds"] for r in rows) == 1.0

    def test_empty_store_attributes_nothing(self, tmp_path):
        assert tier_attribution(ResultsStore(tmp_path / "empty")) == []

    def test_unknown_stamp_error_lists_available_stamps(self, store):
        with pytest.raises(ValueError) as err:
            tier_attribution(store, stamp=123.0)
        message = str(err.value)
        assert "123.0" in message
        assert "available stamps" in message
        assert "100.0" in message and "200.0" in message
