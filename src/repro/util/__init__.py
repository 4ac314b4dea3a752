"""Shared small utilities: statistics, ASCII tables, duration formatting,
a fork pool, the on-disk JSON entry store (:mod:`~repro.util.jsonstore`)
and the one schema walker every JSON artifact reader calls
(:mod:`~repro.util.schema`)."""

from repro.util.stats import geomean, mean
from repro.util.tables import format_table

__all__ = ["geomean", "mean", "format_table"]
