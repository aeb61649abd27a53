"""Command-line pipeline: fetch, analyze, stats, report.

    lexgrade fetch   --manifest corpus.csv --cache cache/
    lexgrade analyze --manifest corpus.csv --texts cache/ --out results.csv
    lexgrade stats   --results results.csv --out stats.csv
    lexgrade report  --results results.csv --out by_year.csv

Outputs are deterministic for fixed inputs: rerunning a command writes
byte-identical files. CSV is the default format; --format json carries
the same logical content. Result files are self-describing (tool
version and linsear mode ride along as comment lines / a meta object)
so downstream stats stay auditable. Diagnostics go to stderr only.

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
LEXGRADE_USER_AGENT); flags win over environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
from itertools import repeat
from operator import methodcaller
from pathlib import Path

from . import __version__
from .corpus import analyze_corpus, directory_resolver, load_manifest
from .errors import (
    CorpusAnalysisError,
    LexgradeError,
    ManifestError,
    ResultsFormatError,
)
from .indices import GRADE_FIELDS, LINSEAR_MODES, GradeVector
from .segmenter import TextMetrics
from .stats import QUANTILE_CONVENTION, YearAggregate, corpus_statistics, per_year_aggregate

#: The columns of an analyze results file: the manifest's, the counts,
#: the two counts that split word_count, the grades.
ANALYZE_COLUMNS = (
    "id", "doc_type", "year", "domain", *TextMetrics._fields,
    "easy_word_count", "hard_word_count", *GradeVector._fields,
)
_WIDTH = len(ANALYZE_COLUMNS)
_HEADER = ",".join(ANALYZE_COLUMNS)
_COLUMN_SET = frozenset(ANALYZE_COLUMNS)
#: The numeric cells that follow id, doc_type, year and domain in a row.
_NUMERIC = _WIDTH - 4


#: Per ANALYZE_COLUMNS entry, the types its values may have: None for a
#: text column, int for an integer column, int or float for sum_variable
#: (a JSON true is a bool, so it never passes as 1).
_KINDS = tuple(
    None if column in ("id", "doc_type", "domain")
    else {int, float} if column == "sum_variable"
    else {int}
    for column in ANALYZE_COLUMNS
)

#: Per range-checked column: its bounds and what an error says is expected.
#: A float holds every integer up to 2**53 exactly: sum_variable is a float
#: that must equal (g1+g2+g3)/3, and stats and report print floats. A far
#: larger grade overflows that division.
_RANGES = (
    ("year", 1000, 9999, "a 4-digit year"),
    *((f, -2**53, 2**53, "a grade between -2**53 and 2**53") for f in GRADE_FIELDS),
)

_SOURCES = ("word_count", "polysyllable_count", *GRADE_FIELDS[:3])
_DERIVED = ("hard_word_count", "easy_word_count", "sum_variable")


def _derived(words, polysyllables, fk, smog, ari) -> tuple[list, list, list]:
    """The _DERIVED columns, from the _SOURCES columns, as analyze computes them."""
    return (
        polysyllables,
        [w - p for w, p in zip(words, polysyllables)],
        [(a + b + c) / 3 for a, b, c in zip(fk, smog, ari)],
    )


def _json_cells(cells) -> list:
    # The join puts in N-1 commas, and a list of N numbers holds exactly N-1
    # commas, none inside a number: so when _column finds N numbers, no cell
    # held a comma and each cell was one JSON number.
    return json.loads("[" + ",".join(cells) + "]")


def _column(cells, kinds, parse) -> list | None:
    """One column's values, or None when a cell is not one value of kinds."""
    if kinds is None:
        return list(cells)
    try:
        values = parse(cells)
    except (ValueError, RecursionError):
        return None
    if len(values) == len(cells) and set(map(type, values)) <= kinds:
        return values
    return None


def _env(name: str, fallback: str | None) -> str | None:
    return os.environ.get(f"LEXGRADE_{name}", fallback)


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
    fetch.add_argument("--base-url", default=_env("BASE_URL", None))
    fetch.add_argument("--delay-ms", default=_env("DELAY_MS", "1000"))
    # Accepted, never read, until the benchmark stops passing it (ROADMAP item 1).
    fetch.add_argument("--concurrency", choices=("1",), help=argparse.SUPPRESS)
    fetch.add_argument("--retries", default=_env("RETRIES", "3"))
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


def _int_setting(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise LexgradeError(f"{name} must be an integer, got '{value}'") from None


def _run_fetch(args: argparse.Namespace) -> int:
    # Imported here so analyze, stats and report never load the network stack.
    from .fetcher import DEFAULT_BASE_URL, FetchSettings, fetch_all

    records = load_manifest(args.manifest)
    settings = FetchSettings(
        base_url=DEFAULT_BASE_URL if args.base_url is None else args.base_url,
        delay_ms=_int_setting("--delay-ms", args.delay_ms),
        retries=_int_setting("--retries", args.retries),
        user_agent=_env("USER_AGENT", FetchSettings().user_agent),
    )
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


def _grade_row(row) -> tuple:
    """One ANALYZE_COLUMNS row."""
    record, m = row.record, row.metrics
    return (
        record.id, record.doc_type.value, record.year, record.domain.value, *m,
        m.word_count - m.polysyllable_count, m.polysyllable_count, *row.grades,
    )


def _write_out(path: str, text: str) -> None:
    """Write an --out file, replacing an existing regular file (module docstring)."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    except OSError:
        pass  # absent, or not ours to unlink: the write below decides
    Path(path).write_text(text, encoding="utf-8")


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _write_table(path: str, fmt: str, meta: dict, columns, rows) -> None:
    """Write rows, each a sequence of values in columns order, as CSV or JSON."""
    if fmt == "json":
        rows = [dict(zip(columns, row)) for row in rows]
        _write_out(path, json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n")
        return
    head = "".join(f"# {key}: {value}\n" for key, value in meta.items())
    _write_out(path, head + _csv_text([columns, *rows]))


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
        _write_table(args.out, args.format, meta, ANALYZE_COLUMNS, [])
        _fail(str(exc))
        return 1

    rows = [_grade_row(r) for r in report.rows]
    _write_table(args.out, args.format, meta, ANALYZE_COLUMNS, rows)

    for failure in report.failures:
        print(f"FAIL {failure.id}: {failure.reason}", file=sys.stderr)
    print(
        f"analyzed {len(report.rows)} of {len(records)} documents",
        file=sys.stderr,
    )
    return 1 if report.failures else 0


def _csv_rows(path: str, text: str) -> tuple[dict, list[str], list[int]]:
    """Meta, the data rows (each of _WIDTH cells) and each row's line number, from CSV text."""
    lines = text.split("\n")
    if '"' in text:
        number = next(n for n, line in enumerate(lines, 1) if '"' in line)
        raise ResultsFormatError(
            f"{path} line {number}: a '\"' is not allowed (analyze writes no quoted fields)"
        )
    meta = {}
    for line in filter(methodcaller("startswith", "#"), lines):
        key, colon, value = line.lstrip("#").strip().partition(":")
        if colon:
            meta[key.strip()] = value.strip()
    line_numbers = [n for n, line in enumerate(lines, 1) if line and line[0] != "#"]
    data = [lines[n - 1] for n in line_numbers]
    if not data:
        raise ResultsFormatError(f"{path}: no header row")

    limit = csv.field_size_limit()
    commas = list(map(str.count, data, repeat(",")))
    if (
        data[0] != _HEADER
        or commas.count(_WIDTH - 1) != len(commas)
        or max(map(len, data)) > limit
    ):
        # Name the first bad line; in a line, an over-long field comes first.
        for i, (number, line) in enumerate(zip(line_numbers, data)):
            fields = line.split(",")
            if max(map(len, fields)) > limit:
                raise ResultsFormatError(
                    f"{path} line {number}: field larger than field limit ({limit})"
                )
            if i == 0 and line != _HEADER:
                raise ResultsFormatError(
                    f"{path}: header does not match an analyze results file"
                )
            if len(fields) != _WIDTH:
                raise ResultsFormatError(
                    f"{path} line {number}: expected {_WIDTH} fields, got {len(fields)}"
                )
    return meta, data[1:], line_numbers[1:]


def _csv_values(rows: list[str]) -> list[list] | None:
    """Every column's values from rows of _WIDTH cells, or None when there is
    no row or a cell is not one value of its column's kinds."""
    if not rows:
        return None
    # id, doc_type, year, domain and the tail of numeric cells; _read_results
    # says why one parse of the joined tails finds each cell's own value.
    ids, doc_types, years, domains, tails = zip(*map(str.split, rows, repeat(","), repeat(4)))
    try:
        years, numbers = _json_cells(years), _json_cells(tails)
    except (ValueError, RecursionError):
        return None
    if len(years) != len(rows) or len(numbers) != _NUMERIC * len(rows):
        return None
    cells = [ids, doc_types, years, domains, *(numbers[i::_NUMERIC] for i in range(_NUMERIC))]
    values = list(map(_column, cells, _KINDS, repeat(list)))
    return None if None in values else values


def _read_results(path: str) -> tuple[dict, dict[str, list]]:
    """Read an analyze results file (CSV or JSON): meta and one typed list per column.

    CSV: `# key: value` lines anywhere are meta, blank lines are skipped,
    and every other line is the header or a row of comma-separated
    fields, each within csv.field_size_limit(). A file holding a `"` is
    refused: the manifest admits no id that analyze would quote. JSON: an
    object with a 'meta' object and a 'rows' list of objects keyed by
    ANALYZE_COLUMNS.

    Numbers are JSON numbers in both formats: one JSON integer per cell of
    an integer column, one JSON integer or float (never a bool) per
    sum_variable cell. Each CSV row is split once, at its first four
    commas, and one json.loads reads the file's year cells, one its
    numeric tails, each joined by commas. N tails hold (_NUMERIC - 1) * N
    commas and the join adds N - 1, so _NUMERIC * N values mean every
    comma stood between two values: each cell was one JSON value. When a
    read fails, a count is off or a value is of the wrong kind, each
    column is read by its own json.loads and the first bad cell is named.

    Every row is checked: cell types, 4-digit years, grades within
    2**53, and the columns that analyze derives from others. Errors name
    the file and the line (CSV) or row (JSON) of the first bad cell.
    """
    p = Path(path)
    if not p.exists():
        raise ResultsFormatError(f"results file '{path}' does not exist")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ResultsFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if p.suffix.lower() == ".json":
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ResultsFormatError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict) or "rows" not in payload:
            raise ResultsFormatError(f"{path}: expected an object with 'rows'")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise ResultsFormatError(f"{path}: 'meta' must be an object")
        if not isinstance(payload["rows"], list):
            raise ResultsFormatError(f"{path}: 'rows' must be a list")
        rows = []
        for number, raw in enumerate(payload["rows"], start=1):
            if not isinstance(raw, dict) or raw.keys() != _COLUMN_SET:
                raise ResultsFormatError(f"{path} row {number}: wrong columns")
            rows.append([raw[column] for column in ANALYZE_COLUMNS])
        unit, parse, cells, numbers = "row", list, list(zip(*rows)), range(1, len(rows) + 1)
        values = None
    else:
        meta, rows, numbers = _csv_rows(path, text)
        unit, parse, values = "line", _json_cells, _csv_values(rows)
        if values is None:
            # A bad cell: split every cell out, so the search below can name it.
            flat = ",".join(rows).split(",") if rows else []
            cells = [flat[i::_WIDTH] for i in range(_WIDTH)]

    if not numbers:
        raise ResultsFormatError(f"{path}: no result rows")
    if values is None:
        values = list(map(_column, cells, _KINDS, repeat(parse)))
    if None in values:
        # A column fails exactly when one of its cells does. Each failing
        # column is searched alone; the first bad cell in file order wins.
        row, i = min(
            (next(r for r, c in enumerate(cells[i]) if not _column([c], kinds, parse)), i)
            for i, (kinds, column) in enumerate(zip(_KINDS, values)) if column is None
        )
        raise ResultsFormatError(
            f"{path} {unit} {numbers[row]}: column '{ANALYZE_COLUMNS[i]}' "
            f"has non-numeric value {cells[i][row]!r}"
        )
    columns = dict(zip(ANALYZE_COLUMNS, values))

    # Years and grades must be in range before any arithmetic on them, and
    # the derived columns must agree with the columns they come from.
    sources = [columns[c] for c in _SOURCES]
    if not all(
        low <= min(columns[c]) and max(columns[c]) <= high for c, low, high, _ in _RANGES
    ) or any(columns[c] != e for c, e in zip(_DERIVED, _derived(*sources))):
        # Name the first bad row in file order.
        for r, number in enumerate(numbers):
            wrong = [(c, what) for c, low, high, what in _RANGES
                     if not low <= columns[c][r] <= high]
            if not wrong:
                derived = _derived(*(s[r:r + 1] for s in sources))
                wrong = [(c, e) for c, (e,) in zip(_DERIVED, derived) if columns[c][r] != e]
            if wrong:
                column, expected = wrong[0]
                raise ResultsFormatError(
                    f"{path} {unit} {number}: column '{column}' "
                    f"has value {columns[column][r]}, expected {expected}"
                )
    return meta, columns


def _write_stats(path: str, fmt: str, payload: dict) -> None:
    if fmt == "json":
        _write_out(path, json.dumps(payload, indent=2) + "\n")
        return
    rows = [("section", "name", "field", "value")]
    rows += (("meta", key, "", value) for key, value in payload["meta"].items())
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
    _write_out(path, _csv_text(rows))


def _run_stats(args: argparse.Namespace) -> int:
    meta, columns = _read_results(args.results)
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
    meta, columns = _read_results(args.results)
    aggregate = per_year_aggregate(columns)
    out_meta = {"lexgrade_version": __version__, "value": "sum_variable"}
    _write_table(args.out, args.format, out_meta, YearAggregate._fields, aggregate)
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
