"""Command-line pipeline: fetch, analyze, stats, report.

    lexgrade fetch   --manifest corpus.csv --cache cache/
    lexgrade analyze --manifest corpus.csv --texts cache/ --out results.csv
    lexgrade stats   --results results.csv --out stats.csv
    lexgrade report  --results results.csv --out by_year.csv

Outputs are deterministic for fixed inputs: rerunning a command writes
byte-identical files. CSV is the default format; --format json carries
the same logical content; lexgrade.results defines the results file.
Diagnostics go to stderr only.

A rerun replaces an existing regular --out file with a new file instead
of truncating it: ext4 (auto_da_alloc) flushes a truncated file to disk
on close, tens of milliseconds, and a new file is not flushed. The new
file's mode follows the umask; other hard links to the old file keep the
old bytes; a file the user may not write is not replaced, so writing it
fails as before. Symlinks (/dev/stdout among them), FIFOs and other
special files are written through. A crash loses no more than truncation
would. When analyze can grade no document, it still writes the header
with no rows, so no earlier run's rows survive in --out.

Exit codes: 0 success, 1 some documents failed, 2 configuration or
input-format errors. Network settings honour environment overrides
(LEXGRADE_BASE_URL, LEXGRADE_DELAY_MS, LEXGRADE_RETRIES,
LEXGRADE_USER_AGENT); flags win over environment. An error in a setting
names the flag or the variable its value came from.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from pathlib import Path

from . import __version__
from .corpus import analyze_corpus, directory_resolver, load_manifest
from .errors import CorpusAnalysisError, LexgradeError, ManifestError
from .indices import LINSEAR_MODES
from .results import ANALYZE_COLUMNS, analyze_row, read_results, table_text
from .stats import QUANTILE_CONVENTION, YearAggregate, corpus_statistics, per_year_aggregate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexgrade",
        description="Readability grading and corpus statistics for legal texts.",
    )
    parser.add_argument("--version", action="version", version=f"lexgrade {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch", help="download manifest documents into a cache")
    fetch.add_argument("--manifest", required=True)
    fetch.add_argument("--cache", required=True)
    fetch.add_argument("--base-url")
    fetch.add_argument("--delay-ms")
    # Accepted, never read, until the benchmark stops passing it (ROADMAP item 1).
    fetch.add_argument("--concurrency", choices=("1",), help=argparse.SUPPRESS)
    fetch.add_argument("--retries")
    fetch.set_defaults(func=_run_fetch)

    analyze = sub.add_parser("analyze", help="grade every document in a manifest")
    analyze.add_argument("--manifest", required=True)
    group = analyze.add_mutually_exclusive_group(required=True)
    group.add_argument("--texts", help="directory of <id>.txt files")
    group.add_argument("--cache", help="fetch cache directory (same layout)")
    analyze.add_argument("--out", required=True)
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.add_argument(
        "--linsear-mode", choices=LINSEAR_MODES, default="windowed"
    )
    analyze.set_defaults(func=_run_analyze)

    stats = sub.add_parser("stats", help="corpus statistics of an analyze results file")
    stats.add_argument("--results", required=True)
    stats.add_argument("--out", required=True)
    stats.add_argument("--format", choices=("csv", "json"), default="csv")
    stats.set_defaults(func=_run_stats)

    report = sub.add_parser("report", help="per-year sum-variable plot data")
    report.add_argument("--results", required=True)
    report.add_argument("--out", required=True)
    report.add_argument("--format", choices=("csv", "json"), default="csv")
    report.set_defaults(func=_run_report)

    return parser


def _fail(message: str) -> None:
    print(f"lexgrade: error: {message}", file=sys.stderr)


def _run_fetch(args: argparse.Namespace) -> int:
    # Imported here so analyze, stats and report never load the network stack.
    from .fetcher import FetchSettings, fetch_all

    records = load_manifest(args.manifest)
    settings = FetchSettings()
    for field in ("base_url", "delay_ms", "retries", "user_agent"):
        # A flag wins over its variable; an error names the one it came from.
        source, value = "--" + field.replace("_", "-"), vars(args).get(field)
        if value is None:
            source = f"LEXGRADE_{field.upper()}"
            value = os.environ.get(source)
        if value is None:
            continue
        if field in ("delay_ms", "retries"):
            try:
                value = int(value)
            except ValueError:
                raise LexgradeError(f"{source} must be an integer, got '{value}'") from None
        try:
            settings = settings._replace(**{field: value})
        except LexgradeError as exc:
            raise LexgradeError(f"{source}: {exc}") from None
    results = fetch_all(records, args.cache, settings)
    failed = [r for r in results if not r.ok]
    for result in results:
        line = f"{result.id}: {result.status.value}"
        if result.detail:
            line += f" ({result.detail})"
        print(line, file=sys.stderr)
    print(
        f"fetched {sum(r.status.value == 'FetchedFresh' for r in results)} fresh, "
        f"{sum(r.status.value == 'FromCache' for r in results)} cached, "
        f"{len(failed)} failed",
        file=sys.stderr,
    )
    return 1 if failed else 0


def _write_out(path: str, text: str) -> None:
    """Write an --out file, replacing an existing regular file (module docstring)."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    except OSError:
        pass  # absent, or not ours to unlink: the write below decides
    Path(path).write_text(text, encoding="utf-8")


def _run_analyze(args: argparse.Namespace) -> int:
    records = load_manifest(args.manifest)
    texts_dir = args.texts or args.cache
    if not Path(texts_dir).is_dir():
        raise ManifestError(f"texts directory '{texts_dir}' does not exist")

    meta = {"lexgrade_version": __version__, "linsear_mode": args.linsear_mode}
    try:
        report = analyze_corpus(
            records, directory_resolver(texts_dir), mode=args.linsear_mode
        )
    except CorpusAnalysisError as exc:
        # A header with no rows, so stats and report refuse this run's output
        # instead of reading an earlier run's.
        _write_out(args.out, table_text(args.format, meta, ANALYZE_COLUMNS, []))
        _fail(str(exc))
        return 1

    rows = [analyze_row(r) for r in report.rows]
    _write_out(args.out, table_text(args.format, meta, ANALYZE_COLUMNS, rows))

    for failure in report.failures:
        print(f"FAIL {failure.id}: {failure.reason}", file=sys.stderr)
    print(
        f"analyzed {len(report.rows)} of {len(records)} documents",
        file=sys.stderr,
    )
    return 1 if report.failures else 0


def _write_stats(path: str, fmt: str, payload: dict) -> None:
    if fmt == "json":
        _write_out(path, json.dumps(payload, indent=2) + "\n")
        return
    rows = [("meta", key, "", value) for key, value in payload["meta"].items()]
    for index, cells in payload["summary"].items():
        rows += (("summary", index, *cell) for cell in cells.items())
    if payload["correlations"] is not None:
        labels = payload["correlations"]["labels"]
        for label, row in zip(labels, payload["correlations"]["values"]):
            rows += (("correlations", label, *cell) for cell in zip(labels, row))
    if payload["correlations_note"]:
        rows.append(("note", "correlations", "", payload["correlations_note"]))
    if payload["alpha"] is not None:
        rows.append(("alpha", "fk_smog_ari", "", payload["alpha"]))
    if payload["alpha_note"]:
        rows.append(("note", "alpha", "", payload["alpha_note"]))
    _write_out(path, table_text("csv", {}, ("section", "name", "field", "value"), rows))


def _run_stats(args: argparse.Namespace) -> int:
    meta, columns = read_results(args.results)
    n = len(columns["sum_variable"])
    result = corpus_statistics(columns)
    payload = {
        "meta": {
            "tool_version": __version__,
            "linsear_mode": meta.get("linsear_mode", "unspecified"),
            "quantile_convention": QUANTILE_CONVENTION,
            "n_documents": n,
        },
        "summary": {label: s._asdict() for label, s in result.summary.items()},
        "correlations": result.correlations and result.correlations._asdict(),
        "correlations_note": result.correlations_note,
        "alpha": result.alpha,
        "alpha_note": result.alpha_note,
    }
    _write_stats(args.out, args.format, payload)
    print(f"stats over {n} documents written to {args.out}", file=sys.stderr)
    return 0


def _run_report(args: argparse.Namespace) -> int:
    meta, columns = read_results(args.results)
    aggregate = per_year_aggregate(columns)
    out_meta = {"lexgrade_version": __version__, "value": "sum_variable"}
    _write_out(args.out, table_text(args.format, out_meta, YearAggregate._fields, aggregate))
    print(f"{len(aggregate)} year rows written to {args.out}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LexgradeError, OSError) as exc:
        _fail(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
