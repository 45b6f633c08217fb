"""Quality gates on the public API surface.

A downstream user navigates by ``__all__`` and docstrings; these tests
keep both honest: every advertised name must exist, every public callable
must be documented, and the package version must be consistent.
"""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.topology",
    "repro.randomness",
    "repro.models",
    "repro.core",
    "repro.algorithms",
    "repro.analysis",
    "repro.runner",
    "repro.results",
    "repro.sampling",
    "repro.obs",
    "repro.context",
    "repro.viz",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_lists_are_duplicate_free(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip()


def test_version_consistency():
    import repro

    assert repro.__version__ == "1.0.0"

    import pathlib
    import tomllib

    pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text())
    assert data["project"]["version"] == repro.__version__


def test_py_typed_marker_present():
    import pathlib

    import repro

    assert (pathlib.Path(repro.__file__).parent / "py.typed").exists()


def test_public_class_methods_documented():
    """Spot-check the workhorse classes for per-method docs."""
    from repro.core import ConsistencyChain
    from repro.models import GraphTopology, PortAssignment
    from repro.topology import Simplex, SimplicialComplex

    for cls in (ConsistencyChain, SimplicialComplex, Simplex, PortAssignment, GraphTopology):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name}"
