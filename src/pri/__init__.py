"""Probe-based detection of interest profiling in search-engine adverts."""

__version__ = "0.1.0"
