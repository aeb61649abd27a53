"""Readability grading and corpus statistics for legal and policy texts."""

__version__ = "0.1.0"

from .errors import (
    CorpusAnalysisError,
    DegenerateTextError,
    LexgradeError,
    MalformedCelexError,
    ManifestError,
    ResultsFormatError,
    StatisticsError,
)
from .segmenter import TextMetrics, compute_metrics, count_syllables, scan
from .indices import GradeVector, grade_all, linsear_write
from .corpus import (
    CorpusReport,
    DocumentRecord,
    analyze_corpus,
    analyze_document,
    clean_text,
    load_manifest,
)
from .fetcher import FetchResult, FetchSettings, fetch_all, fetch_document

__all__ = [
    "__version__",
    "LexgradeError",
    "DegenerateTextError",
    "StatisticsError",
    "ManifestError",
    "CorpusAnalysisError",
    "MalformedCelexError",
    "ResultsFormatError",
    "TextMetrics",
    "compute_metrics",
    "count_syllables",
    "scan",
    "GradeVector",
    "grade_all",
    "linsear_write",
    "DocumentRecord",
    "CorpusReport",
    "load_manifest",
    "clean_text",
    "analyze_document",
    "analyze_corpus",
    "FetchSettings",
    "FetchResult",
    "fetch_document",
    "fetch_all",
]
