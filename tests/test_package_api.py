"""Public-API surface guard: every exported name exists and is documented.

Keeps ``__all__`` lists honest as the library grows: a renamed class or a
dropped docstring on an exported item fails here, not in a user's import.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.util",
    "repro.core",
    "repro.core.criteria",
    "repro.specs",
    "repro.sim",
    "repro.crdt",
    "repro.objects",
    "repro.analysis",
    "repro.tools",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} should declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_exported_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(symbol)
    assert not undocumented, f"{name}: undocumented exports {undocumented}"


def test_version_is_set():
    import repro

    assert repro.__version__


def test_spec_registry_is_complete():
    """Every concrete UQADT in repro.specs appears in ALL_SPECS (products
    excepted — they are constructors over other specs)."""
    import repro.specs as specs
    from repro.core.adt import UQADT

    concrete = {
        obj
        for name in specs.__all__
        for obj in [getattr(specs, name)]
        if inspect.isclass(obj) and issubclass(obj, UQADT)
        and obj.__name__ != "ProductSpec"
    }
    assert concrete == set(specs.ALL_SPECS)


def test_strategy_registry_matches_docs():
    from repro.objects import STRATEGIES

    assert set(STRATEGIES) == {
        "universal", "checkpoint", "gc", "undo", "fifo", "causal"
    }


def test_criteria_registry_names():
    from repro.core.criteria import CRITERIA

    assert set(CRITERIA) == {"EC", "SEC", "UC", "SUC", "PC", "SC", "IW", "CC"}
    for name, checker in CRITERIA.items():
        assert checker.name in (name, {"IW": "IW-SEC"}.get(name, name))
