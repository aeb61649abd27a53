"""Exception types shared across the package."""


class LexgradeError(Exception):
    """Base class for all package-specific errors."""


class DegenerateTextError(LexgradeError):
    """Raised when a text has no measurable prose (no sentences or words)."""


class StatisticsError(LexgradeError):
    """Base class for statistical precondition failures."""


class ConstantInputError(StatisticsError):
    """A vector is constant, so the requested coefficient is undefined."""


class DegenerateVarianceError(StatisticsError):
    """Total-score variance is zero, so Cronbach's alpha is undefined."""


class ManifestError(LexgradeError):
    """A corpus manifest failed validation."""


class MalformedCelexError(LexgradeError):
    """An identifier does not have the CELEX shape."""


class ResultsFormatError(LexgradeError):
    """A results file is malformed or incomplete."""
