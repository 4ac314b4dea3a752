"""Shared small utilities: statistics, ASCII tables, duration formatting."""

from repro.util.stats import geomean, mean
from repro.util.tables import format_table

__all__ = ["geomean", "mean", "format_table"]
