"""Multi-sweep telemetry, and legacy tables, in one warehouse.

The cross-run analytics tier (`repro.obs.analyze`) assumes the
warehouse keeps telemetry from *different* traced sweeps apart: rows
carry their sweep's clock stamp and master seed, and both must survive
segment writes and compaction so `obs history --master-seed` and
`obs diff` read clean per-sweep slices.  Warehouses written by older
releases may also hold a ``models`` table (fitted cost models) that no
code writes any more; the store reads every schema from its segment
manifests, so such tables stay readable and compactable.
"""

import pytest

from repro.results import ResultsStore, col
from repro.results.store import TELEMETRY_COLUMNS


def sweep_rows(stamp, master_seed, jobs):
    return [
        {
            "stamp": float(stamp),
            "master_seed": int(master_seed),
            "kind": "counter",
            "name": "runner.jobs",
            "value": float(jobs),
            "count": int(jobs),
        },
        {
            "stamp": float(stamp),
            "master_seed": int(master_seed),
            "kind": "span.self",
            "name": "sweep.execute",
            "value": 0.5,
            "count": 1,
        },
    ]


@pytest.fixture
def store(tmp_path):
    store = ResultsStore(tmp_path / "warehouse")
    store.append_rows("telemetry", sweep_rows(100.0, 0, 10), TELEMETRY_COLUMNS)
    store.append_rows("telemetry", sweep_rows(200.0, 7, 20), TELEMETRY_COLUMNS)
    return store


class TestMultiSweepTelemetry:
    def test_sweeps_keep_distinguishable_stamps(self, store):
        table = store.table("telemetry")
        assert sorted(set(table.column("stamp"))) == [100.0, 200.0]
        # Stamp identifies the sweep: each slice is internally uniform.
        for stamp, seed in ((100.0, 0), (200.0, 7)):
            rows = table.filter(col("stamp") == stamp).to_rows()
            assert rows and all(r["master_seed"] == seed for r in rows)

    def test_query_by_master_seed_selects_one_sweep(self, store):
        table = store.table("telemetry")
        second = table.filter(col("master_seed") == 7)
        assert len(second) == 2
        assert set(second.column("stamp")) == {200.0}
        assert len(table.filter(col("master_seed") == 3)) == 0

    def test_slices_survive_compaction(self, store):
        store.compact()
        table = store.table("telemetry")
        assert len(table) == 4
        counters = table.filter(col("kind") == "counter").sort_by(["stamp"])
        assert counters.column("value").tolist() == [10.0, 20.0]
        assert counters.column("master_seed").tolist() == [0, 7]


#: The ``models`` schema older releases wrote (one fitted cost model per
#: row); kept here verbatim because no current code defines it.
LEGACY_MODEL_COLUMNS = {
    "stamp": "float",
    "digest": "str",
    "version": "int",
    "target": "str",
    "features": "str",
    "coef": "str",
    "rows": "int",
    "residual": "float",
}


def legacy_model_row(stamp, target, digest):
    return {
        "stamp": float(stamp),
        "digest": digest,
        "version": 1,
        "target": target,
        "features": '["log2_states", "log2_nnz"]',
        "coef": "[-20.0, 1.0, 0.5]",
        "rows": 8,
        "residual": 0.01,
    }


class TestLegacyModelsTable:
    def test_cli_stats_query_and_compact_read_a_legacy_models_table(
        self, store, capsys
    ):
        from repro.cli import main

        store.append_rows(
            "models",
            [legacy_model_row(100.0, "evolve.dense", "a" * 64)],
            LEGACY_MODEL_COLUMNS,
        )
        store.append_rows(
            "models",
            [legacy_model_row(200.0, "evolve.scatter", "b" * 64)],
            LEGACY_MODEL_COLUMNS,
        )
        root = str(store.root)

        assert main(["results", "stats", root]) == 0
        stats = capsys.readouterr().out
        assert "models" in stats and "telemetry" in stats

        def query_models():
            assert main(
                ["results", "query", root, "--table", "models",
                 "--columns", "target,rows", "--sort-by", "target"]
            ) == 0
            return capsys.readouterr().out

        before = query_models()
        assert "evolve.dense" in before and "evolve.scatter" in before

        assert main(["results", "compact", root]) == 0
        capsys.readouterr()
        assert store.stats()["tables"]["models"]["segments"] == 1
        assert query_models() == before
        table = store.table("models")
        assert table.column("stamp").tolist() == [100.0, 200.0]
        assert set(table.columns) == set(LEGACY_MODEL_COLUMNS)
