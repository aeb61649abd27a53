"""Every name a lexgrade module exports in __all__ exists, once."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import lexgrade

MODULES = sorted(
    f"lexgrade.{info.name}" for info in pkgutil.iter_modules(lexgrade.__path__)
)


def test_every_module_found():
    assert {"lexgrade.cli", "lexgrade.results", "lexgrade.segmenter", "lexgrade.stats"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    assert len(set(exported)) == len(exported)
