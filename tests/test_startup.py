"""Startup cost: importing the package must not pull in networkx.

networkx is only needed to export or adopt graphs
(``GraphTopology.to_networkx`` / ``from_networkx``,
``MarkovChain.to_networkx``), and importing it costs every command and
every pool worker a measurable share of its start-up.  Each check runs
in a fresh interpreter so that modules other tests loaded do not count.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

IMPORT_EVERY_MODULE = """
import importlib, pkgutil
import repro
import repro.cli
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
"""


def loaded_networkx(code: str) -> list[str]:
    """Names of networkx modules loaded after running ``code``."""
    probe = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules "
        + "if m.split('.')[0] == 'networkx')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_package_and_cli_import_without_networkx():
    assert loaded_networkx("import repro, repro.cli") == []


def test_every_module_imports_without_networkx():
    assert loaded_networkx(IMPORT_EVERY_MODULE) == []


def test_graph_export_still_loads_networkx_on_demand():
    pytest.importorskip("networkx")
    code = (
        "from repro.models.graph import GraphTopology\n"
        "ring = GraphTopology.ring(5)\n"
        "rebuilt = GraphTopology.from_networkx(ring.to_networkx())\n"
        "assert rebuilt.edges() == ring.edges()\n"
    )
    assert "networkx" in loaded_networkx(code)
