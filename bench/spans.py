"""In-memory spans around the program's layer functions.

The benchmark, not the program, records these spans: ``install`` swaps
each named function for a timing wrapper wherever a ``lexgrade`` module
holds a reference to it, so the calls the CLI makes, in the order it
makes them, pass through the wrappers. Spans stay in memory until the
run writes them out. Functions called once per token or per window
would flood the span list, so they are "leaf" wrappers that only add to
a per-name (calls, seconds) total.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

# (module, function, leaf) for every layer function the trace covers.
TARGETS = (
    ("lexgrade.corpus", "load_manifest", False),
    ("lexgrade.corpus", "analyze_corpus", False),
    ("lexgrade.corpus", "analyze_document", False),
    ("lexgrade.corpus", "clean_text", False),
    ("lexgrade.segmenter", "compute_metrics", False),
    ("lexgrade.segmenter", "segment_sentences", False),
    ("lexgrade.segmenter", "tokenize_words", False),
    ("lexgrade.segmenter", "count_syllables", True),
    ("lexgrade.indices", "grade_metrics", False),
    ("lexgrade.indices", "linsear_write", False),
    # one call per Linsear window the program scores
    ("lexgrade.indices", "_sample_score", True),
    ("lexgrade.stats", "describe", False),
    ("lexgrade.stats", "correlation_matrix", False),
    ("lexgrade.stats", "cronbach_alpha", False),
    ("lexgrade.stats", "per_year_aggregate", False),
    ("lexgrade.fetcher", "fetch_all", False),
    ("lexgrade.fetcher", "fetch_document", False),
    ("lexgrade.fetcher", "extract_text_from_html", False),
)


class Tracer:
    """Spans as (id, parent id, name, start, end, note) tuples."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.leaves: dict[str, list] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str):
        """Record a span; the caller may set the yielded dict's "note"."""
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        stack = self._local.stack
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        info = {"note": ""}
        start = perf_counter()
        try:
            yield info
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, info["note"]))

    def _wrap_span(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as info:
                result = fn(*args, **kwargs)
                # fetch_document's FetchResult: keep its status on the span
                info["note"] = getattr(getattr(result, "status", None), "value", "")
                return result

        return wrapper

    def _wrap_leaf(self, fn, name: str):
        totals = self.leaves.setdefault(name, [0, 0.0])
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                with lock:
                    totals[0] += 1
                    totals[1] += elapsed

        return wrapper

    def install(self) -> None:
        """Wrap every TARGETS function in all loaded lexgrade modules."""
        for module_name, function, leaf in TARGETS:
            name = f"{module_name.removeprefix('lexgrade.')}.{function}"
            original = getattr(importlib.import_module(module_name), function, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = (self._wrap_leaf if leaf else self._wrap_span)(original, name)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "lexgrade" and not mod_name.startswith("lexgrade."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def take(self) -> tuple[list[tuple], dict[str, list]]:
        """Spans and leaf totals recorded since the last take."""
        with self._lock:
            spans, self.spans = self.spans, []
            leaves = {k: list(v) for k, v in self.leaves.items()}
            for totals in self.leaves.values():
                totals[0], totals[1] = 0, 0.0
        return spans, leaves


def layer_totals(spans: list, leaves: dict[str, list], scale: float) -> dict:
    """Per-layer seconds and per-call samples of one traced command.

    Every time is multiplied by ``scale``, the command's host-speed factor.
    """
    totals: dict[str, float] = {}
    children: dict[int, float] = {}
    samples: dict[str, list[float]] = {}
    for span_id, parent, name, start, end, note in spans:
        elapsed = scale * (end - start)
        totals[name] = totals.get(name, 0.0) + elapsed
        children[parent] = children.get(parent, 0.0) + elapsed
        if name == "corpus.analyze_document":
            samples.setdefault("corpus.analyze_document.ms", []).append(1e3 * elapsed)
        elif name == "fetcher.fetch_document":
            kind = "hit" if note == "FromCache" else "miss"
            samples.setdefault(f"fetcher.fetch_document.{kind}_ms", []).append(
                1e3 * elapsed)
    # results-file I/O and formatting: the stats command minus its layer calls
    for span_id, parent, name, start, end, note in spans:
        if name == "cli.stats":
            totals["cli.stats.self"] = scale * (end - start) - children.get(span_id, 0.0)
    for name, (calls, seconds) in leaves.items():
        totals[name] = scale * seconds
        totals[f"{name}.calls"] = calls
    return {"totals": totals, "samples": samples}
