"""Every layer function the benchmark traces exists under its name.

bench/spans.py looks each target up by name and silently skips one that
is missing, so a rename would drop a layer from the trace unnoticed. It
wraps a function by replacing each lexgrade module attribute that holds
it, so a layer reached other than through a module attribute reads 0.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import lexgrade.cli
import lexgrade.stats

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"
RESULTS = Path(__file__).parent / "data" / "synthetic55_results.csv"
WORKLOADS = SPANS.parent / "workloads.py"


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


def _counting(fn, name: str, calls: Counter):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_stats_layers_traced(monkeypatch, tmp_path):
    calls = Counter()
    for name in ("describe", "correlation_matrix", "cronbach_alpha"):
        original = getattr(lexgrade.stats, name)
        wrapper = _counting(original, name, calls)
        for module_name, module in list(sys.modules.items()):
            if module_name == "lexgrade" or module_name.startswith("lexgrade."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    argv = ["stats", "--results", str(RESULTS), "--out", str(tmp_path / "stats.csv")]
    assert lexgrade.cli.main(argv) == 0
    # Five grade columns and the sum variable; one matrix; one alpha.
    assert calls == {"describe": 6, "correlation_matrix": 1, "cronbach_alpha": 1}


def test_benchmark_results_rows_read(monkeypatch, tmp_path):
    # The stats-20k rows, in the syntax the benchmark writes them: a change
    # to what results files may hold must still read them.
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    results = tmp_path / "results.csv"
    workloads.write_results(random.Random(20), {2000: results}, "0.1.0")
    for command in ("stats", "report"):
        argv = [command, "--results", str(results), "--out", str(tmp_path / "out.csv")]
        assert lexgrade.cli.main(argv) == 0
