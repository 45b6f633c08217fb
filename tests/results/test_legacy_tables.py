"""Warehouses written by older releases still open, resume and compact.

Older releases also wrote per-group sweep diagnostics (``groups``),
``repro report`` outcomes (``experiments``), folded sweep telemetry
(``telemetry``) and fitted cost models (``models``) into the
warehouse.  No code writes or defines those tables any more, but the
store reads every schema from its segment manifests, so a warehouse
that holds them keeps serving resumes and memo hits, compacts, and
lists every table it has.
"""

import json

from repro.chain import clear_memo
from repro.cli import main
from repro.results import ResultsStore
from repro.runner import SweepSpec, run_sweep

#: The schemas older releases wrote, kept here verbatim because no
#: current code defines them.
LEGACY_SCHEMAS = {
    "groups": {
        "master_seed": "int", "jobs": "int", "chains": "int",
        "states": "int", "transitions": "int", "density": "float",
        "evolution": "str", "memo_hits": "int", "elapsed": "float",
    },
    "experiments": {
        "experiment_id": "str", "title": "str", "passed": "bool",
        "rows": "int", "stamp": "float",
    },
    "telemetry": {
        "stamp": "float", "master_seed": "int", "kind": "str",
        "name": "str", "value": "float", "count": "int",
    },
    "models": {
        "stamp": "float", "digest": "str", "version": "int",
        "target": "str", "features": "str", "coef": "str", "rows": "int",
        "residual": "float",
    },
}


def legacy_rows(table, stamp):
    """One row of ``table`` as an older release would have written it."""
    return [{
        "groups": {
            "master_seed": 0, "jobs": 4, "chains": 2, "states": 9,
            "transitions": 20, "density": 0.25, "evolution": "dense",
            "memo_hits": 0, "elapsed": 0.01,
        },
        "experiments": {
            "experiment_id": "theorem-4.1", "title": "Theorem 4.1",
            "passed": True, "rows": 12, "stamp": stamp,
        },
        "telemetry": {
            "stamp": stamp, "master_seed": 0, "kind": "counter",
            "name": "runner.jobs", "value": 10.0, "count": 10,
        },
        "models": {
            "stamp": stamp, "digest": "a" * 64, "version": 1,
            "target": "evolve.dense", "features": '["log2_states"]',
            "coef": "[-20.0, 1.0]", "rows": 8, "residual": 0.01,
        },
    }[table]]


def stripped(path):
    return [
        {k: v for k, v in json.loads(line).items() if k != "elapsed"}
        for line in path.read_text().splitlines()
    ]


def test_parent_era_warehouse_resumes_serves_and_compacts(tmp_path,
                                                          capsys):
    sweep = SweepSpec.for_total_size(4, models=("blackboard", "clique"))
    warehouse = tmp_path / "warehouse"
    cold = run_sweep(sweep, run_dir=tmp_path / "cold", warehouse=warehouse)
    store = ResultsStore(warehouse)
    for stamp in (100.0, 200.0):
        for table, schema in LEGACY_SCHEMAS.items():
            store.append_rows(table, legacy_rows(table, stamp), schema)
    legacy = {table: store.table(table).to_rows() for table in LEGACY_SCHEMAS}

    resumed = run_sweep(sweep, run_dir=tmp_path / "cold",
                        warehouse=warehouse)
    assert (resumed.executed, resumed.resumed) == (0, cold.total)
    assert resumed.result().rows == cold.result().rows

    clear_memo()  # drop compiled chains: the warm sweep must hit the memo
    warm = run_sweep(sweep, run_dir=tmp_path / "warm", warehouse=warehouse)
    assert sum(g["memo_hits"] for g in warm.group_stats) == warm.total
    assert all(g["chains"] == 0 for g in warm.group_stats)
    assert stripped(tmp_path / "warm" / "records.jsonl") == stripped(
        tmp_path / "cold" / "records.jsonl"
    )

    assert main(["results", "compact", str(warehouse)]) == 0
    assert main(["results", "stats", str(warehouse)]) == 0
    stats = capsys.readouterr().out
    tables = {line.split()[0] for line in stats.splitlines()[2:]}
    assert tables >= {"records", *LEGACY_SCHEMAS}
    for table, schema in LEGACY_SCHEMAS.items():
        assert store.stats()["tables"][table]["segments"] == 1
        assert set(store.table(table).columns) == set(schema)
        assert store.table(table).to_rows() == legacy[table]
    assert store.total_rows("records") == 2 * cold.total
