"""Every layer function the benchmark traces exists under its name.

bench/spans.py looks each target up by name and silently skips one that
is missing, so a rename would drop a layer from the trace unnoticed. It
wraps a function by replacing each lexgrade module attribute that holds
it, so a layer reached other than through a module attribute reads 0.
"""

from __future__ import annotations

import ast
import csv
import importlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import lexgrade.cli
from lexgrade import corpus, fetcher, indices, segmenter, stats
from lexgrade.indices import GRADE_FIELDS

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


# Targets whose functions were deleted from the program, not renamed:
# scan is the one sentence counter. They read 0 until TARGETS drops them.
DELETED = {"lexgrade.segmenter.compute_metrics", "lexgrade.segmenter.segment_sentences"}


def test_traced_functions_exist():
    targets = bench_targets()
    assert targets
    missing = [
        f"{module}.{function}"
        for module, function, _leaf in targets
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert set(missing) <= DELETED


STATS_LAYERS = (
    "describe", "correlation_matrix", "cronbach_alpha", "per_year_aggregate", "_moments"
)


def _command_calls(
    monkeypatch, argv: list[str], layers=((stats, STATS_LAYERS),), status=0
) -> list[tuple[str, tuple]]:
    """(name, args) of each call of the named functions of each (module,
    names) layer, made through a lexgrade module attribute while
    lexgrade.cli.main(argv) runs."""
    calls = []

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for layer, names in layers:
            for name in names:
                original = getattr(layer, name)
                wrapper = counting(original, name)
                for module_name, module in list(sys.modules.items()):
                    if module_name == "lexgrade" or module_name.startswith("lexgrade."):
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                patch.setattr(module, attr, wrapper)
        assert lexgrade.cli.main(argv) == status
    return calls


def test_stats_layers_traced(monkeypatch, tmp_path):
    out = ["--out", str(tmp_path / "out.csv")]
    # stats reads every figure from one moment table over the five grade
    # columns; report groups by year and builds no table.
    calls = _command_calls(monkeypatch, ["stats", "--results", str(RESULTS), *out])
    assert [(name, len(args[0])) for name, args in calls] == [("_moments", 5)]
    calls = _command_calls(monkeypatch, ["report", "--results", str(RESULTS), *out])
    assert [name for name, _ in calls] == ["per_year_aggregate"]


ANALYZE_LAYERS = (
    (corpus, ("analyze_corpus", "analyze_document", "_prose_lines", "clean_text")),
    (indices, ("grade_metrics", "linsear_write")),
    (segmenter, ("scan", "_classify", "tokenize_words")),
)


def test_analyze_layers_traced(monkeypatch, tmp_path, data_dir):
    # analyze reads each document's kept lines once and grades them in one
    # scan; it never builds clean_text's display text. The type table
    # starts empty, so every document brings new types to classify.
    monkeypatch.setattr(segmenter, "_TYPES", {})
    corpus_dir = data_dir / "nonascii"
    manifest = (corpus_dir / "manifest.csv").read_text(encoding="utf-8")
    ids = [row["id"] for row in csv.DictReader(manifest.splitlines())]
    argv = ["analyze", "--manifest", str(corpus_dir / "manifest.csv"),
            "--texts", str(corpus_dir / "texts"), "--out", str(tmp_path / "out.csv")]
    calls = _command_calls(monkeypatch, argv, ANALYZE_LAYERS)
    per_document = ["analyze_document", "_prose_lines", "grade_metrics", "scan",
                    "_classify", "linsear_write"]
    assert [name for name, _ in calls] == ["analyze_corpus", *per_document * len(ids)]
    # Each text as read, less a leading byte-order mark (32002L0058.txt has one).
    texts = [(corpus_dir / "texts" / f"{i}.txt").read_text(encoding="utf-8") for i in ids]
    texts = [text.removeprefix("\ufeff") for text in texts]
    assert [args[0] for name, args in calls if name == "analyze_document"] == texts


def test_fetch_layers_traced(monkeypatch, tmp_path, stub_repo):
    # fetch_all calls fetch_document once per document, and the cache writer
    # extracts each fresh page's text through the module attribute, so the
    # fetch spans and fetcher.extract_text_from_html.s see the moved work.
    ids = ["31995L0046", "32016R0679", "39999R9999"]  # the last one is a 404
    for doc_id in ids[:2]:
        stub_repo.pages[doc_id] = f"<p>Text of {doc_id}.</p>"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "id,doc_type,year,title,domain,source\n"
        + "".join(f"{i},Directive,1995,T,PersonalDataPrivacy,{i}\n" for i in ids),
        encoding="utf-8",
    )
    argv = ["fetch", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
            "--base-url", stub_repo.base_url, "--delay-ms", "0"]
    names = ("fetch_document", "extract_text_from_html")
    calls = _command_calls(monkeypatch, argv, [(fetcher, names)], status=1)
    assert sorted(name for name, _ in calls) == [
        "extract_text_from_html", "extract_text_from_html",
        "fetch_document", "fetch_document", "fetch_document",
    ]


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
        out = str(tmp_path / f"{command}.json")
        argv = [command, "--results", str(results), "--out", out, "--format", "json"]
        assert lexgrade.cli.main(argv) == 0

    # stats reads its figures from one shared moment table; at this shape
    # they equal what the public functions give column by column.
    with results.open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    grades = [[int(row[field]) for row in rows] for field in GRADE_FIELDS]
    sums = [a + b + c for a, b, c in zip(*grades[:3])]
    summaries = [*map(stats.describe, grades), stats.describe(sums, divisor=3)]
    expected = {
        "summary": {
            label: s._asdict()
            for label, s in zip((*stats.INDEX_LABELS, "sum_variable"), summaries)
        },
        "correlations": stats.correlation_matrix(grades)._asdict(),
        "correlations_note": None,
        "alpha": stats.cronbach_alpha(grades[:3]),
        "alpha_note": None,
    }
    payload = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
    assert {key: payload[key] for key in expected} == json.loads(json.dumps(expected))
