"""Readability grading and corpus statistics for legal and policy texts."""

__version__ = "0.1.0"
