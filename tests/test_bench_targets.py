"""Every layer function the benchmark traces exists under its name.

bench/spans.py looks each target up by name and silently skips one that
is missing, so a rename would drop a layer from the trace unnoticed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def bench_targets() -> tuple:
    """TARGETS of bench/spans.py, read from its source without running it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


def test_traced_functions_exist():
    targets = bench_targets()
    assert targets
    missing = [
        f"{module}.{function}"
        for module, function, _leaf in targets
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []
