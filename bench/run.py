"""Benchmark of the lexgrade command chain fetch -> analyze -> stats -> report.

    python3 bench/run.py --workload corpus-closed --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the source tree is found beside
this directory. The run generates the workload's inputs from --seed and
repeats the workload's CLI chain for --seconds, every command in a fresh
interpreter (step.py) that also gives its set-up time. Every time is
scaled to a fixed host speed measured beside it (reference.py). It checks
every output and prints a JSON summary as the last line of stdout. --trace 0
reports the end-to-end metrics; --trace 1 reports per-layer metrics from
traced repetitions, alternated with untraced ones. Details (digests,
failures, throughputs) go to the line before and to .bench_run/out/.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import check
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("corpus-closed", "corpus-open", "stats-20k", "fetch-cold")
# The CLI's default. With two fetch threads, fetch-cold's wall_s spread
# 0.16 over ten seeds (README).
CONCURRENCY = 1
TIME_LIMIT_S = 170
# Sizes keep one repetition of every chain near one second; see README.md
# for why the benchmark prefers many short repetitions.
CORPUS_WORDS = 150_000
OPEN_DOCS, OPEN_REGULATIONS, OPEN_DEGENERATE = 100, (50_000, 60_000), 1
FETCH_DOCS, FETCH_WORDS, FETCH_NOT_FOUND, FETCH_FLAKY = 300, 180_000, 6, 4
STATS_ROWS = 20_000
# Traced stats-20k runs also time stats on these row counts, before the chain.
PREFIX_ROWS = (1_000, 10_000, 100_000)
STATUSES = ("FetchedFresh", "FromCache", "NotFound", "TransportError")

# What one reference.run() pass takes on the host this benchmark was built
# on (2 vCPUs of an Intel Xeon under KVM) in its fast stretches. Every
# reported time is scaled to a host that runs the reference in this long;
# see README.md. Changing this constant or reference.py changes every
# reported time.
REFERENCE_S = 0.004

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "success_rate": "ratio"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class Plan:
    """What the chain child runs and what the check expects of it."""

    steps: list[tuple[str, list[str]]]
    digests: dict[str, Path]
    manifest: list[workloads.Document] = field(default_factory=list)
    fresh: list[Path] = field(default_factory=list)
    stub: str | None = None
    prefix_stats: list[tuple[int, list[str]]] = field(default_factory=list)
    types_from: dict | None = None
    not_found: frozenset = frozenset()
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------- processes


def _cli(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run the CLI the way a user's shell would, in its own interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "lexgrade.cli", *argv], env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))


@contextlib.contextmanager
def stub_server(pages: Path):
    proc = subprocess.Popen([sys.executable, str(BENCH / "stub_server.py"), str(pages)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        yield f"http://127.0.0.1:{int(proc.stdout.readline())}"
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def warm_bytecode() -> None:
    """Import lexgrade.cli once, uncounted, so bytecode caches exist."""
    out = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                          "import lexgrade.cli", str(SRC)],
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"importing lexgrade.cli failed:\n{out.stderr}")


def stub_counters(url: str | None) -> dict | None:
    """The stub server's counts since the last call, which resets them."""
    if not url:
        return None
    with urllib.request.urlopen(f"{url}/__counters", timeout=30) as response:
        return json.loads(response.read())


def _digest(path: Path) -> str:
    """SHA-256 of a file, or of every *.txt under a directory in name order."""
    h = hashlib.sha256()
    files = sorted(path.glob("*.txt")) if path.is_dir() else [path]
    for file in files:
        if path.is_dir():
            h.update(file.name.encode() + b"\0")
        h.update(file.read_bytes())
    return h.hexdigest()


def run_step(name: str, argv: list, trace: bool, work: Path, deadline: float) -> dict:
    """One CLI command in a fresh step.py interpreter; see step.py."""
    spec, out = work / "step-spec.json", work / "step.json"
    spec.write_text(json.dumps({"name": name, "argv": [str(a) for a in argv],
                                "trace": trace, "out": str(out)}), encoding="utf-8")
    # perf_counter is the system-wide monotonic clock, so the child's
    # reading and this start time compare directly.
    start = perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "step.py"), str(SRC), str(spec)],
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"{name} process failed:\n{proc.stderr[-4000:]}")
    step = json.loads(out.read_text(encoding="utf-8"))
    if not Path(step.pop("module")).resolve().is_relative_to(SRC):
        raise BenchError(f"lexgrade.cli was not imported from {SRC}")
    # Host-speed scaling (README): set-up against the median reference pass
    # timed right after the import, the command against the median of the
    # passes that bracket it.
    before, after = step["reference_s"]
    step["raw_setup_s"] = step.pop("ready") - start
    step["setup_s"] = step["raw_setup_s"] * REFERENCE_S / statistics.median(before)
    step["scale"] = REFERENCE_S / statistics.median(before + after)
    step["raw_s"] = step["s"]
    step["s"] = step["raw_s"] * step["scale"]
    return step


def repetition(plan: Plan, work: Path, trace: bool, deadline: float) -> dict:
    """The workload's chain once, each command in its own interpreter."""
    start = perf_counter()
    for directory in plan.fresh:
        shutil.rmtree(directory, ignore_errors=True)
    stub_counters(plan.stub)  # reset the stub's counts
    steps = {name: run_step(name, argv, trace, work, deadline) for name, argv in plan.steps}
    return {
        "trace": trace,
        "steps": steps,
        "wall_s": sum(s["s"] for s in steps.values()),
        "raw_wall_s": sum(s["raw_s"] for s in steps.values()),
        "stub": stub_counters(plan.stub),
        "digests": {k: _digest(p) for k, p in plan.digests.items()},
        "elapsed_s": perf_counter() - start,
    }


def run_chain(plan: Plan, work: Path, seconds: float, trace: bool, deadline: float) -> list:
    """Whole repetitions while another should end within --seconds.

    A traced run alternates untraced and traced repetitions, so both
    sides of the tracing overhead sample the host at the same moments.
    """
    reps: list[dict] = []
    end = perf_counter() + seconds
    while (not reps or (trace and len(reps) < 2)
           or perf_counter() + statistics.fmean(r["elapsed_s"] for r in reps) <= end):
        reps.append(repetition(plan, work, trace and len(reps) % 2 == 1, deadline))
    return reps


def word_types(plan: Plan) -> int:
    """Distinct word tokens of the cleaned texts analyze reads."""
    sys.path.insert(0, str(SRC))
    from lexgrade.corpus import clean_text, directory_resolver, load_manifest
    from lexgrade.segmenter import tokenize_words

    resolve = directory_resolver(plan.types_from["texts"])
    types: set[str] = set()
    for record in load_manifest(plan.types_from["manifest"]):
        try:
            types.update(tokenize_words(clean_text(resolve(record))))
        except OSError:
            continue
    return len(types)


# ---------------------------------------------------------------- workloads


def _write_pages(pages: Path, docs, not_found=(), flaky=()) -> Path:
    pages.mkdir()
    for doc in docs:
        (pages / f"{doc.id}.html").write_text(workloads.html_page(doc), encoding="utf-8")
    (pages / "plan.json").write_text(
        json.dumps({"not_found": sorted(not_found), "flaky": sorted(flaky)}),
        encoding="utf-8")
    return pages


def _fetch_argv(manifest: Path, cache: Path, url: str) -> list:
    return ["fetch", "--manifest", manifest, "--cache", cache, "--base-url", url,
            "--delay-ms", "0", "--concurrency", CONCURRENCY]


def _analysis_steps(work: Path, manifest: Path, cache: Path) -> list:
    results = work / "results.csv"
    return [
        ("analyze", ["analyze", "--manifest", manifest, "--cache", cache, "--out", results]),
        ("stats", ["stats", "--results", results, "--out", work / "stats.csv"]),
        ("report", ["report", "--results", results, "--out", work / "report.csv"]),
    ]


@contextlib.contextmanager
def corpus_workload(name: str, rng: random.Random, work: Path, deadline: float):
    """Warm cache filled by the program's own fetch, then the timed chain."""
    if name == "corpus-closed":
        docs = workloads.closed_corpus(rng, ROOT, CORPUS_WORDS)
        tokens = [t for d in docs for t in d.tokens()]
        info = {"tokens": len(tokens), "types": len(set(tokens))}
        info["type_token_ratio"] = info["types"] / info["tokens"]
    else:
        docs, info = workloads.open_corpus(rng, ROOT, OPEN_DOCS, CORPUS_WORDS,
                                           OPEN_REGULATIONS, OPEN_DEGENERATE)
    info["documents"] = len(docs)
    manifest, cache = work / "manifest.csv", work / "cache"
    workloads.write_manifest(manifest, docs)
    with stub_server(_write_pages(work / "pages", docs)) as url:
        fetch = _fetch_argv(manifest, cache, url)
        out = _cli([str(a) for a in fetch], deadline)
        if out.returncode != 0:
            raise BenchError(f"filling the warm cache failed:\n{out.stderr[-4000:]}")
    # The server has stopped, so a request from the timed fetch cannot succeed.
    steps = [("fetch", fetch)] + _analysis_steps(work, manifest, cache)
    yield Plan(steps=steps, manifest=docs, info=info,
               digests={k: work / f"{k}.csv" for k in ("results", "stats", "report")},
               types_from={"manifest": str(manifest), "texts": str(cache)})


@contextlib.contextmanager
def stats_workload(rng: random.Random, work: Path, trace: bool):
    sys.path.insert(0, str(SRC))
    from lexgrade import __version__

    counts = {STATS_ROWS, *(PREFIX_ROWS if trace else ())}
    paths = {n: work / f"results-{n}.csv" for n in sorted(counts)}
    workloads.write_results(rng, paths, __version__)
    results = paths[STATS_ROWS]
    steps = [("stats", ["stats", "--results", results, "--out", work / "stats.csv"]),
             ("report", ["report", "--results", results, "--out", work / "report.csv"])]
    prefix = [(n, ["stats", "--results", paths[n], "--out", work / f"stats-{n}.csv"])
              for n in PREFIX_ROWS] if trace else []
    yield Plan(steps=steps, prefix_stats=prefix,
               digests={"results": results, "stats": work / "stats.csv",
                        "report": work / "report.csv"},
               info={"rows": STATS_ROWS})


@contextlib.contextmanager
def fetch_workload(rng: random.Random, work: Path):
    docs, info = workloads.open_corpus(rng, ROOT, FETCH_DOCS, FETCH_WORDS, (), 0)
    ids = [d.id for d in docs]
    chosen = rng.sample(ids, FETCH_NOT_FOUND + FETCH_FLAKY)
    not_found, flaky = frozenset(chosen[:FETCH_NOT_FOUND]), frozenset(chosen[FETCH_NOT_FOUND:])
    manifest, cache = work / "manifest.csv", work / "cache"
    workloads.write_manifest(manifest, docs)
    info["documents"] = len(docs)
    with stub_server(_write_pages(work / "pages", docs, not_found, flaky)) as url:
        yield Plan(steps=[("fetch", _fetch_argv(manifest, cache, url))], manifest=docs,
                   fresh=[cache], stub=url, digests={"cache": cache},
                   not_found=not_found, info=info)


def prepare(name: str, rng: random.Random, work: Path, trace: bool, deadline: float):
    if name == "stats-20k":
        return stats_workload(rng, work, trace)
    if name == "fetch-cold":
        return fetch_workload(rng, work)
    return corpus_workload(name, rng, work, deadline)


# ---------------------------------------------------------------- checking


@dataclass
class Outcome:
    attempted: int = 0
    # document id -> reason, for documents the program reported failed
    program_failed: dict[str, str] = field(default_factory=dict)
    # requests the stub answered with an error status
    refused_requests: int = 0
    # operation key -> problems, for outputs the check found wrong
    wrong: dict[str, list[str]] = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)
    statuses: dict[str, str] = field(default_factory=dict)

    def flag(self, key: str, problem: str) -> None:
        self.wrong.setdefault(key, []).append(problem)


def _status_lines(stderr: str) -> dict[str, str]:
    statuses = {}
    for line in stderr.splitlines():
        doc_id, sep, rest = line.partition(": ")
        if sep and rest.split(" ")[0] in STATUSES:
            statuses[doc_id] = rest.split(" ")[0]
    return statuses


def _fail_lines(stderr: str) -> dict[str, str]:
    failed = {}
    for line in stderr.splitlines():
        if line.startswith("FAIL "):
            doc_id, _, reason = line[5:].partition(": ")
            failed[doc_id] = reason
    return failed


def _check_analysis(plan: Plan, steps: dict, outcome: Outcome) -> None:
    _, raw = check.read_table(plan.digests["results"])
    rows = check.typed_rows(raw)
    outcome.rows = rows
    if "analyze" in steps:
        docs = {d.id: d for d in plan.manifest}
        failed = _fail_lines(steps["analyze"]["stderr"])
        outcome.attempted += len(docs)
        outcome.program_failed.update(failed)
        if steps["analyze"]["code"] != (1 if failed else 0):
            outcome.flag("analyze", f"analyze exited {steps['analyze']['code']}")
        if len(rows) + len(failed) != len(docs):
            outcome.flag("analyze", f"{len(rows)} rows + {len(failed)} failures "
                                    f"!= {len(docs)} manifest documents")
        for doc in plan.manifest:
            if doc.degenerate != (doc.id in failed):
                outcome.flag(doc.id, "boilerplate-only document was graded"
                             if doc.degenerate else f"analysis failed: {failed.get(doc.id)}")
        for row in rows:
            doc = docs.get(row["id"])
            if doc is None or (row["year"], row["doc_type"], row["domain"]) != (
                    doc.year, doc.doc_type, doc.domain):
                outcome.flag(row["id"], "row does not match its manifest entry")
            for problem in check.row_problems(row):
                outcome.flag(row["id"], problem)
    outcome.attempted += len(rows)
    for name in ("stats", "report"):
        if steps[name]["code"] != 0:
            outcome.flag(name, f"{name} exited {steps[name]['code']}")
    for problem in check.stats_problems(plan.digests["stats"], rows):
        outcome.flag("stats", problem)
    for problem in check.report_problems(plan.digests["report"], rows):
        outcome.flag("report", problem)


def _check_fetch(plan: Plan, step: dict, rep: dict, outcome: Outcome) -> None:
    statuses = _status_lines(step["stderr"])
    outcome.statuses = statuses
    cache = plan.digests.get("cache")
    for doc in plan.manifest:
        got = statuses.get(doc.id)
        if cache is None:  # warm cache of a corpus workload
            if got != "FromCache":
                outcome.flag(doc.id, f"warm fetch gave {got}")
            continue
        expected = "NotFound" if doc.id in plan.not_found else "FetchedFresh"
        if got != expected:
            outcome.flag(doc.id, f"fetch gave {got}, expected {expected}")
        text = cache / f"{doc.id}.txt"
        if expected == "NotFound":
            if text.exists():
                outcome.flag(doc.id, "a 404 page was cached")
        elif not text.is_file():
            outcome.flag(doc.id, "fetched text is not in the cache")
        elif text.read_text(encoding="utf-8").split() != doc.tokens():
            outcome.flag(doc.id, "cached text differs from the page's document text")
    if cache is None:
        if step["connects"]:
            outcome.flag("fetch", f"warm-cache fetch made {step['connects']} network connections")
        if step["code"] != 0:
            outcome.flag("fetch", f"warm-cache fetch exited {step['code']}")
        return
    counters = rep["stub"]
    outcome.attempted += counters["requests"]
    outcome.refused_requests = sum(
        n for status, n in counters["by_status"].items() if status != "200")
    if counters["requests"] < len(plan.manifest):
        outcome.flag("fetch", f"only {counters['requests']} requests for "
                              f"{len(plan.manifest)} documents")
    if step["code"] != (1 if plan.not_found else 0):
        outcome.flag("fetch", f"fetch exited {step['code']}")


def check_outputs(plan: Plan, reps: list[dict]) -> Outcome:
    outcome = Outcome()
    last = reps[-1]
    for rep in reps[1:]:
        if rep["digests"] != reps[0]["digests"]:
            outcome.flag("determinism", "outputs differ between repetitions")
    steps = last["steps"]
    if "fetch" in steps:
        _check_fetch(plan, steps["fetch"], last, outcome)
    if "stats" in steps:
        _check_analysis(plan, steps, outcome)
    return outcome


# ---------------------------------------------------------------- metrics


def _quantile(ordered: list[float], p: float) -> float:
    h = (len(ordered) - 1) * p
    lo = int(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def timing(samples: list[float]) -> tuple[float, float, float, int]:
    """p50, the highest percentile with >= 10 samples beyond it, that percentile, n."""
    if not samples:
        return 0.0, 0.0, 0.0, 0
    ordered = sorted(samples)
    n = len(ordered)
    pct = max((p for p in (90, 95, 99, 99.9) if n * (100 - p) / 100 >= 10), default=100)
    return _quantile(ordered, 0.5), _quantile(ordered, pct / 100), pct, n


def per_layer(plan: Plan, reps: list[dict], prefix: dict[int, float], outcome: Outcome,
              types: int) -> tuple[dict, dict]:
    by_rep: list[dict] = []
    samples: dict[str, list[float]] = {}
    for r in reps:
        if not r["trace"]:
            continue
        totals: dict[str, float] = {}
        for step in r["steps"].values():
            layers = spans.layer_totals(step["spans"], step["leaves"], step["scale"])
            for key, value in layers["totals"].items():
                totals[key] = totals.get(key, 0.0) + value
            for key, values in layers["samples"].items():
                samples.setdefault(key, []).extend(values)
        by_rep.append(totals)

    def med(key: str) -> float:
        return statistics.median(t.get(key, 0.0) for t in by_rep)

    analyzed = outcome.rows if "analyze" in dict(plan.steps) else []
    tokens = sum(r["word_count"] for r in analyzed)
    counters = reps[-1]["stub"] or {"requests": 0, "bytes": 0}
    m: dict[str, tuple[float, str]] = {
        "segmenter.count_syllables.s": (med("segmenter.count_syllables"), "s"),
        "segmenter.count_syllables.calls": (med("segmenter.count_syllables.calls"), "count"),
        "segmenter.word_types": (types, "count"),
        "segmenter.types_per_token": (types / tokens if tokens else 0.0, "ratio"),
        "segmenter.compute_metrics.s": (med("segmenter.compute_metrics"), "s"),
        "segmenter.segment_sentences.s": (med("segmenter.segment_sentences"), "s"),
        "segmenter.tokenize_words.s": (med("segmenter.tokenize_words"), "s"),
        "segmenter.sentences": (sum(r["sentence_count"] for r in analyzed), "count"),
        "segmenter.tokens": (tokens, "count"),
        "indices.linsear_write.s": (med("indices.linsear_write"), "s"),
        "indices.linsear_windows": (med("indices._sample_score.calls"), "count"),
        "indices.grade_metrics.s": (med("indices.grade_metrics"), "s"),
        "corpus.clean_text.s": (med("corpus.clean_text"), "s"),
        "corpus.load_manifest.s": (med("corpus.load_manifest"), "s"),
        "corpus.docs.attempted": (len(plan.manifest) if analyzed else 0, "count"),
        "corpus.docs.failed": (len(plan.manifest) - len(analyzed) if analyzed else 0, "count"),
        "stats.cronbach_alpha.s": (med("stats.cronbach_alpha"), "s"),
        "stats.correlation_matrix.s": (med("stats.correlation_matrix"), "s"),
        "stats.describe.s": (med("stats.describe"), "s"),
        "stats.per_year_aggregate.s": (med("stats.per_year_aggregate"), "s"),
        "cli.stats.self_s": (med("cli.stats.self"), "s"),
        "cli.results_bytes": (plan.digests["results"].stat().st_size
                              if "results" in plan.digests else 0, "bytes"),
        "fetcher.extract_text_from_html.s": (med("fetcher.extract_text_from_html"), "s"),
        "fetcher.html_bytes": (counters["bytes"], "bytes"),
        "fetcher.attempts_per_doc": (counters["requests"] / len(plan.manifest)
                                     if plan.stub else 0.0, "ratio"),
    }
    for n in PREFIX_ROWS:
        m[f"stats.cronbach_alpha.n{n}.s"] = (prefix.get(n, 0.0), "s")
    for command in ("fetch", "analyze", "stats", "report"):
        m[f"cli.{command}.s"] = (med(f"cli.{command}"), "s")
    for status in STATUSES:
        m[f"fetcher.status.{status}"] = (
            sum(s == status for s in outcome.statuses.values()), "count")
    detail = {side: [r["wall_s"] for r in reps if r["trace"] == traced]
              for side, traced in (("untraced_wall_samples_s", False),
                                   ("traced_wall_samples_s", True))}
    for key in ("corpus.analyze_document.ms", "fetcher.fetch_document.miss_ms",
                "fetcher.fetch_document.hit_ms"):
        p50, tail, pct, n = timing(samples.get(key, []))
        m[f"{key}.p50"] = (p50, "ms")
        m[f"{key}.tail"] = (tail, "ms")
        detail[key] = {"tail_pct": pct, "n": n}
    untraced = statistics.median(r["wall_s"] for r in reps if not r["trace"])
    traced_wall = statistics.median(r["wall_s"] for r in reps if r["trace"])
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_share"] = (traced_wall / untraced - 1, "ratio")
    return m, detail


def end_to_end(plan: Plan, reps: list[dict], outcome: Outcome) -> tuple:
    failed = len(set(outcome.program_failed) | set(outcome.wrong)) + outcome.refused_requests
    error_rate = failed / outcome.attempted
    setup = [s["setup_s"] for r in reps for s in r["steps"].values()]
    raw_setup = [s["raw_setup_s"] for r in reps for s in r["steps"].values()]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": max(s["rss_mb"] for r in reps for s in r["steps"].values()),
        "success_rate": 1 - error_rate,
    }
    detail = {"error_rate": error_rate, "repetitions": len(reps),
              "setup_samples_s": setup, "wall_samples_s": [r["wall_s"] for r in reps],
              "raw_setup_s": statistics.median(raw_setup),
              "raw_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
              "reference_s": statistics.median(
                  t for r in reps for s in r["steps"].values() for t in sum(s["reference_s"], []))}

    def throughput(step: str, amount: int) -> float:
        return statistics.median(amount / r["steps"][step]["s"] for r in reps)

    names = dict(plan.steps)
    if "analyze" in names:
        detail["analyze_words_per_s"] = throughput(
            "analyze", sum(r["word_count"] for r in outcome.rows))
    if "stats" in names:
        detail["stats_rows_per_s"] = throughput("stats", len(outcome.rows))
    if plan.stub:
        detail["fetch_docs_per_s"] = throughput("fetch", len(plan.manifest))
    return metrics, detail


# ---------------------------------------------------------------- main


def run(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    deadline = perf_counter() + TIME_LIMIT_S
    trace = bool(args.trace)
    warm_bytecode()
    rng = random.Random(f"{args.workload}:{args.seed}")
    with prepare(args.workload, rng, work, trace, deadline) as plan:
        start = perf_counter()
        # cronbach_alpha at growing row counts (traced stats-20k only), outside
        # the chain but inside the run's --seconds
        prefix = {}
        for n, argv in plan.prefix_stats:
            step = run_step("stats", argv, True, work, deadline)
            prefix[n] = step["scale"] * sum(end - begin for _, _, name, begin, end, _
                                            in step["spans"] if name == "stats.cronbach_alpha")
        reps = run_chain(plan, work, args.seconds - (perf_counter() - start), trace, deadline)
        outcome = check_outputs(plan, reps)
    summary = {
        "correct": not outcome.wrong,
        "attempted": outcome.attempted * len(reps),
        "failed": len(outcome.wrong) * len(reps),
    }
    detail = {"workload": args.workload, "seed": args.seed, "inputs": plan.info,
              "digests": reps[-1]["digests"],
              "wrong": outcome.wrong,
              "program_failed": outcome.program_failed,
              "refused_requests": outcome.refused_requests}
    if trace:
        types = word_types(plan) if plan.types_from else 0
        metrics, detail["timings"] = per_layer(plan, reps, prefix, outcome, types)
        detail["untraced_functions"] = sorted(
            {f for r in reps for s in r["steps"].values() for f in s.get("missing", [])})
        spans_out = RUN_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "note"],
                       "commands": [{"repetition": i, "command": name, "spans": s["spans"]}
                                    for i, r in enumerate(reps) if r["trace"]
                                    for name, s in r["steps"].items()]}, fh)
        detail["spans"] = str(spans_out.relative_to(ROOT))
    else:
        values, extra = end_to_end(plan, reps, outcome)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        detail.update(extra)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {k: u for k, (v, u) in metrics.items()}:
        raise BenchError("metrics differ from the names and units in BENCHMARK.json")
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return summary, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "lexgrade" / "cli.py", ROOT / "tests" / "synthetic.py",
                   ROOT / "tests" / "data" / "syllable_oracle.tsv"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} is missing; run from a lexgrade "
                  "checkout", file=sys.stderr)
            return 2
    (RUN_DIR / "out").mkdir(parents=True, exist_ok=True)
    work = RUN_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        summary, detail = run(args, work)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = RUN_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"summary": summary, "detail": detail}, indent=1),
                   encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
