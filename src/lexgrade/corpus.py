"""Corpus model and batch analysis.

A corpus is described by a manifest (CSV or JSON) with one row per
document: id, doc_type, year, title, domain, source. Texts are resolved
through a pluggable callable so the same pipeline works on a local
directory or a fetch cache. Documents that fail are reported in a
failures list, never silently dropped: rows + failures always add up to
the manifest length.

analyze_document grades a text's kept lines: those _prose_lines leaves
once Official Journal boilerplate is dropped, joined by newlines.
clean_text is their display form and holds the same tokens. It changes
only whitespace, as str.split defines it, and segmentation starts with
NFC and str.split; a newline composes with nothing, so both are NFC.
"""

from __future__ import annotations

import csv
import io
import json
import re
import unicodedata
from enum import Enum
from itertools import chain, groupby
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .errors import CorpusAnalysisError, DegenerateTextError, ManifestError
from .indices import GradeVector, grade_metrics
from .segmenter import TextMetrics

__all__ = [
    "DocType",
    "Domain",
    "DocumentRecord",
    "ReportRow",
    "Failure",
    "CorpusReport",
    "MANIFEST_FIELDS",
    "load_manifest",
    "clean_text",
    "analyze_document",
    "analyze_corpus",
    "directory_resolver",
]


class DocType(Enum):
    """Document types admitted to the corpus; anything else is rejected."""

    DIRECTIVE = "Directive"
    REGULATION = "Regulation"
    DECISION = "Decision"
    COM = "COM"
    SWD = "SWD"
    RECOMMENDATION = "Recommendation"
    JOIN = "JOIN"


class Domain(Enum):
    """The five digital-single-market policy domains."""

    GENERAL_RULES = "GeneralRules"
    ELECTRONIC_COMMUNICATIONS = "ElectronicCommunications"
    PERSONAL_DATA_PRIVACY = "PersonalDataPrivacy"
    COPYRIGHT_AUDIOVISUAL = "CopyrightAudiovisual"
    DATA_ECONOMY_PROTECTION = "DataEconomyProtection"


MANIFEST_FIELDS = ("id", "doc_type", "year", "title", "domain", "source")

_DOC_TYPES = {member.value: member for member in DocType}
_DOMAINS = {member.value: member for member in Domain}


class DocumentRecord(NamedTuple):
    id: str
    doc_type: DocType
    year: int
    title: str
    domain: Domain
    source: str


class ReportRow(NamedTuple):
    record: DocumentRecord
    metrics: TextMetrics
    grades: GradeVector


class Failure(NamedTuple):
    id: str
    reason: str


class CorpusReport(NamedTuple):
    """Per-document results: graded rows and failures, in manifest order.

    Like every record in lexgrade, a CorpusReport is a NamedTuple: it
    compares as a tuple and _asdict() gives its fields. Corpus-level
    statistics over the rows' grades come from stats.corpus_statistics
    and stats.per_year_aggregate. Both take columns, not rows: transpose
    the rows' GradeVectors once, dict(zip(GRADE_FIELDS, zip(*grades)))
    (see the stats module docstring); per_year_aggregate also needs a
    "year" column. results.read_results gives every column of a results
    file that analyze wrote from such rows.
    """

    rows: list[ReportRow]
    failures: list[Failure]


def _parse_record(raw: dict, where: str, seen_ids: set[str]) -> DocumentRecord:
    missing = [k for k in MANIFEST_FIELDS if k not in raw or raw[k] is None]
    if missing:
        raise ManifestError(f"{where}: missing field(s) {', '.join(missing)}")
    extra = [k for k in raw if k not in MANIFEST_FIELDS]
    if extra:
        raise ManifestError(f"{where}: unknown field(s) {', '.join(sorted(extra))}")

    doc_id = str(raw["id"]).strip()
    if not doc_id:
        raise ManifestError(f"{where}: id must be non-empty")
    if "\0" in doc_id:
        # No file name can hold a NUL: the text and cache paths come from ids.
        raise ManifestError(f"{where}: id must not hold a NUL character")
    if not set(',"\r\n').isdisjoint(doc_id) or doc_id[0] == "#":
        # analyze would quote such an id, or stats would read its results
        # row as a `# key: value` metadata line.
        raise ManifestError(
            f"{where}: id {doc_id!r} must not hold a comma, a quote, CR or LF,"
            " or start with '#'"
        )
    if doc_id in seen_ids:
        raise ManifestError(f"{where}: duplicate id '{doc_id}'")

    doc_type_raw = str(raw["doc_type"]).strip()
    if doc_type_raw not in _DOC_TYPES:
        allowed = ", ".join(m.value for m in DocType)
        raise ManifestError(
            f"{where}: doc_type '{doc_type_raw}' is not admitted; "
            f"the corpus accepts only: {allowed}"
        )

    domain_raw = str(raw["domain"]).strip()
    if domain_raw not in _DOMAINS:
        allowed = ", ".join(m.value for m in Domain)
        raise ManifestError(
            f"{where}: domain '{domain_raw}' is unknown; expected one of: {allowed}"
        )

    year_raw = str(raw["year"]).strip()
    # The same 1000-9999 range that stats and report accept.
    if not (re.fullmatch("[0-9]{4}", year_raw) and int(year_raw) >= 1000):
        raise ManifestError(f"{where}: year '{year_raw}' is not a 4-digit year")

    return DocumentRecord(
        id=doc_id,
        doc_type=_DOC_TYPES[doc_type_raw],
        year=int(year_raw),
        title=str(raw["title"]),
        domain=_DOMAINS[domain_raw],
        source=str(raw["source"]),
    )


def load_manifest(path: str | Path) -> list[DocumentRecord]:
    """Load and validate a manifest file (.csv or .json, UTF-8).

    CSV needs exactly the header id,doc_type,year,title,domain,source and
    no NUL; JSON is a list of objects with the same keys. Errors, csv
    module ones included, carry the row number (CSV rows count from 2,
    after the header), and a NUL its line number.

    An id is stripped and must be non-empty and unique. It must not hold
    a NUL, since it names a file, nor a comma, a quote, CR or LF, nor
    start with '#': analyze then writes every id as a plain CSV cell, and
    the results reader needs no quoting.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".csv", ".json"):
        raise ManifestError(f"{path}: unsupported manifest format '{suffix}'")
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc.reason})") from None
    records: list[DocumentRecord] = []
    seen: set[str] = set()

    if suffix == ".csv":
        if "\0" in text:
            # csv itself refuses a NUL on Python 3.10 only: say the same on all.
            line = text.count("\n", 0, text.index("\0")) + 1
            raise ManifestError(f"{path} line {line}: a NUL character is not allowed")
        reader = csv.DictReader(io.StringIO(text, newline=""))
        i = 0  # the last row read; the header is row 1
        try:
            if reader.fieldnames is None:
                raise ManifestError(f"{path}: empty manifest")
            if sorted(reader.fieldnames) != sorted(MANIFEST_FIELDS):
                raise ManifestError(
                    f"{path}: header must be exactly {', '.join(MANIFEST_FIELDS)}"
                    f" (got {', '.join(reader.fieldnames)})"
                )
            i = 1
            for i, raw in enumerate(reader, start=2):
                if None in raw or None in raw.values():
                    raise ManifestError(f"{path} row {i}: wrong number of fields")
                record = _parse_record(raw, f"{path} row {i}", seen)
                seen.add(record.id)
                records.append(record)
        except csv.Error as exc:
            raise ManifestError(f"{path} row {i + 1}: {exc}") from None
    else:
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ManifestError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(data, list):
            raise ManifestError(f"{path}: expected a JSON list of objects")
        for i, raw in enumerate(data, start=1):
            if not isinstance(raw, dict):
                raise ManifestError(f"{path} entry {i}: expected an object")
            record = _parse_record(raw, f"{path} entry {i}", seen)
            seen.add(record.id)
            records.append(record)

    return records


# Mastheads and page furniture of Official Journal layouts; such lines
# are dropped because they distort sentence counts. Furniture fills its
# line, so one anchored match of its shapes stops at the first other
# character; a masthead may sit inside a line, so it stays a search (one
# search of all four would try every shape at every position).
_FURNITURE = re.compile(r"\s*(?:\d{1,2}\.\d{1,2}\.\d{4}\s+EN|EN|[LC]\s?\d+/\d+)\s*$").match
_MASTHEAD = re.compile(r"Official Journal of the European (?:Union|Communities)").search

# C0 controls other than tab and newline, and DEL, each become a space.
_CONTROL = bytes.maketrans(
    bytes([*range(0x00, 0x09), *range(0x0B, 0x20), 0x7F]), b" " * 31
)


def _prose_lines(raw: str) -> list[str]:
    """The kept lines of a raw text: its lines after normalization, less
    boilerplate ones.

    After NFC normalization, CRLF and lone CR become newlines; then every
    C0 control character other than tab and newline (U+0000-U+0008,
    U+000B-U+001F) and DEL (U+007F) becomes a space. The control map runs
    on the UTF-8 bytes: a byte below 0x80 never occurs inside a
    multi-byte sequence, so one byte table is exact, and it keeps
    non-ASCII text off str.translate's per-character dict lookups.
    surrogatepass carries lone surrogates through unchanged.
    """
    text = unicodedata.normalize("NFC", raw).replace("\r\n", "\n").replace("\r", "\n")
    text = text.encode("utf-8", "surrogatepass").translate(_CONTROL)
    text = text.decode("utf-8", "surrogatepass")
    return [line for line in text.split("\n") if not (_FURNITURE(line) or _MASTHEAD(line))]


def clean_text(raw: str) -> str:
    """The display form of a raw text's kept lines (module docstring).

    Whitespace runs collapse to single spaces, and blank lines become
    paragraph breaks, one blank line between paragraphs. Idempotent.
    """
    # A paragraph is the words of a run of non-blank lines.
    runs = groupby(map(str.split, _prose_lines(raw)), bool)
    return "\n\n".join(" ".join(chain.from_iterable(run)) for nonblank, run in runs if nonblank)


def analyze_document(
    record: DocumentRecord,
    text: str,
    mode: str = "windowed",
) -> tuple[TextMetrics, GradeVector]:
    """Count and grade one document from its kept lines.

    The result equals grade_metrics(clean_text(text), mode), with no
    display text built (module docstring). Raises DegenerateTextError
    naming the document when the kept lines have no measurable prose.
    """
    try:
        return grade_metrics("\n".join(_prose_lines(text)), mode)
    except DegenerateTextError as exc:
        raise DegenerateTextError(f"document '{record.id}': {exc}") from exc


def directory_resolver(texts_dir: str | Path) -> Callable[[DocumentRecord], str]:
    """Resolve document texts from a directory of <id>.txt files."""
    base = Path(texts_dir)

    def resolve(record: DocumentRecord) -> str:
        return (base / f"{record.id}.txt").read_text(encoding="utf-8")

    return resolve


def analyze_corpus(
    records: Sequence[DocumentRecord],
    resolver: Callable[[DocumentRecord], str],
    mode: str = "windowed",
) -> CorpusReport:
    """Analyze every manifest record into graded rows and failures.

    Row order follows the manifest. Documents whose text cannot be
    resolved or graded land in the failures list; the run is fatal only
    when no document succeeds.
    """
    rows: list[ReportRow] = []
    failures: list[Failure] = []
    for record in records:
        try:
            text = resolver(record)
            metrics, grades = analyze_document(record, text, mode)
        except (DegenerateTextError, OSError, LookupError, UnicodeError) as exc:
            failures.append(Failure(id=record.id, reason=str(exc)))
            continue
        rows.append(ReportRow(record=record, metrics=metrics, grades=grades))

    if not rows:
        raise CorpusAnalysisError(
            "no document could be analyzed; "
            + "; ".join(f"{f.id}: {f.reason}" for f in failures)
        )

    return CorpusReport(rows=rows, failures=failures)
