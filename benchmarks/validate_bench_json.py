"""Validate the machine-readable bench emitters' JSON schemas.

Each ``--schema`` is one table of ``{field: (types, rule)}`` below, and
one walker, :meth:`Schema.__call__`, checks a document against it: ``bench``
(default) for the benchmark suite's ``--json PATH`` rows, ``sweep`` for
``SweepReport.rows()``, ``serving`` for ``ServingReport.row()``,
``obs-trace`` for ``python -m repro.obs export`` traces (``--min-rows``
counts their slices, the non-metadata events) and ``obs-metrics`` for
``MetricsRegistry.snapshot()``.  Files are strict JSON: a missing value
is ``null``, never a bare ``NaN`` or ``Infinity``.  This CI tripwire
fails loudly on a missing, empty or non-strict file or a row off schema,
and it reports foreign input as a violation instead of raising.

Usage:  python benchmarks/validate_bench_json.py PATH [--min-rows N]
          [--schema bench|sweep|serving|obs-trace|obs-metrics]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

#: a types tuple holding NULL makes its field nullable; bool is only
#: accepted where it is listed explicitly (it subclasses int)
NULL = type(None)
NUMBER = (int, float)
NUMBER_OR_NULL = (int, float, NULL)


class Rule(NamedTuple):
    """A ``test`` that a value or object must pass, and ``what`` it asks."""

    what: str
    test: Callable[[object], bool]


POSITIVE = Rule("positive", lambda v: v > 0)
NON_NEGATIVE = Rule(">= 0", lambda v: v >= 0)
FRACTION = Rule("in [0, 1]", lambda v: 0 <= v <= 1)
NON_EMPTY = Rule("a non-empty string", lambda s: bool(s.strip()))


def null_together(*group: str) -> Rule:
    return Rule(f"{' and '.join(group)} must be null together",
                lambda row: len({row[name] is None for name in group}) == 1)


class Table(NamedTuple):
    """One object shape: ``{field: (types, rule)}`` plus object rules."""

    fields: dict[str, tuple[tuple, Rule | None]]
    rules: tuple[Rule, ...] = ()
    #: whether an object of this shape counts towards ``--min-rows``
    counted: bool = True


class Schema(NamedTuple):
    """Called on a document, checks its rows, a top-level list or the
    ``key`` field of a ``top`` object, against ``rows[row[tag]]``."""

    noun: str
    unit: str
    rows: dict[str | None, Table]
    #: reject row fields the table does not name (a top level never does)
    closed: bool = True
    tag: str | None = None
    top: Table | None = None
    key: str | None = None
    #: the sort keys of well-formed rows must not decrease
    order: Callable[[dict], tuple] | None = None

    def __call__(self, doc: object, min_rows: int = 1) -> list[str]:
        """The walker: return the violations in ``doc`` (empty == valid)."""
        if not isinstance(doc, dict if self.key else list):
            shape = "an object" if self.key else "a list"
            return [f"top-level JSON must be {shape}, "
                    f"got {type(doc).__name__}"]
        if self.key:
            errors = _check("top-level JSON", doc, self.top, closed=False)
            if errors:
                return errors
            doc = doc[self.key]
        errors, n, last = [], 0, None
        for i, row in enumerate(doc):
            where = f"{self.noun} {i}"
            if not isinstance(row, dict):
                errors.append(f"{where}: not an object: {row!r}")
                continue
            variant = row.get(self.tag) if self.tag else None
            # None keys an untagged table; an unhashable tag is never looked up
            table = (self.rows.get(variant)
                     if isinstance(variant, (str, NULL)) else None)
            if table is None:
                errors.append(f"{where}: unknown {self.tag} {variant!r} "
                              f"(allowed: {list(self.rows)})")
                continue
            n += table.counted
            row_errors = _check(where, row, table, self.closed)
            errors += row_errors
            if self.order and not row_errors:
                key = self.order(row)
                if last is not None and key < last:
                    errors.append(f"{where}: out of order, sort key {key} "
                                  f"after {last}")
                last = key
        if n < min_rows:
            errors.append(f"expected >= {min_rows} {self.unit}, got {n}")
        return errors


def _check(where: str, obj: dict, table: Table, closed: bool) -> list[str]:
    """Violations of one object against one table."""
    errors = []
    extra = set(obj) - set(table.fields)
    if closed and extra:
        errors.append(f"{where}: unknown fields {sorted(extra, key=str)}")
    for name, (types, rule) in table.fields.items():
        if name not in obj:
            errors.append(f"{where}: missing field {name!r}")
            continue
        value = obj[name]
        if not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types):
            errors.append(f"{where}: field {name!r} has wrong type "
                          f"{type(value).__name__}")
        elif value is not None and rule is not None and not rule.test(value):
            errors.append(f"{where}: field {name!r} must be {rule.what}, "
                          f"got {value!r}")
    return errors or [f"{where}: {rule.what}" for rule in table.rules
                      if not rule.test(obj)]


validate_rows = Schema("row", "bench rows", {None: Table({
    "bench": ((str,), NON_EMPTY),
    "config": ((str,), NON_EMPTY),
    "time_s": (NUMBER, POSITIVE),
})})

validate_sweep_rows = Schema("row", "sweep rows", {None: Table({
    "name": ((str,), None),
    "kernel": ((str,), None),
    "shape": ((str,), None),
    "default_ms": (NUMBER_OR_NULL, None),
    "tuned_ms": (NUMBER, POSITIVE),
    "speedup": (NUMBER_OR_NULL, None),
    "n_simulated": ((int,), None),
    "from_cache": ((bool,), None),
    "deduped_from": ((str, NULL), None),
    "best": ((dict,), None),
    # a cache hit without a recorded baseline nulls BOTH fields: one
    # null side means the emitter fabricated the other
}, rules=(null_together("default_ms", "speedup"),))})

validate_serving_rows = Schema("row", "serving rows", {None: Table({
    "scenario": ((str,), NON_EMPTY),
    "method": ((str,), NON_EMPTY),
    "policy": ((str,), NON_EMPTY),
    "n_requests": ((int,), POSITIVE),
    "makespan_s": (NUMBER, POSITIVE),
    "throughput_rps": (NUMBER, POSITIVE),
    "output_tok_per_s": (NUMBER, POSITIVE),
    "ttft_p50_s": (NUMBER, POSITIVE),
    "ttft_p99_s": (NUMBER, POSITIVE),
    "tpot_p50_s": (NUMBER_OR_NULL, None),
    "tpot_p99_s": (NUMBER_OR_NULL, None),
    "queue_depth_p50": (NUMBER, None),
    "queue_depth_max": ((int,), None),
    "slo_attainment": (NUMBER, FRACTION),
    "queue_wait_p50_s": (NUMBER, NON_NEGATIVE),
    "queue_wait_p99_s": (NUMBER, NON_NEGATIVE),
    "preempt_stall_p99_s": (NUMBER, NON_NEGATIVE),
    "n_preemptions": ((int,), NON_NEGATIVE),
    "recompute_tokens": ((int,), NON_NEGATIVE),
    "pool_occupancy_p50": (NUMBER_OR_NULL, FRACTION),
    "pool_occupancy_max": (NUMBER_OR_NULL, FRACTION),
    # TPOT is null exactly when no request decoded, pool occupancy
    # exactly when the run had no KV pool
}, rules=(null_together("tpot_p50_s", "tpot_p99_s"),
          null_together("pool_occupancy_p50", "pool_occupancy_max")))})

#: event names by ``cat``, pinned since Perfetto users grep for them
#: (``idle`` is engine-level and never appears on a request track)
NAMES = {
    "phase": ("queue", "prefill", "decode", "preempt-stall"),
    "engine": ("prefill", "decode", "idle",
               "watermark_above", "watermark_below"),
}
_EVENT = {"ph": ((str,), None), "ts": (NUMBER, NON_NEGATIVE)}
_SLICE = {**_EVENT, "name": ((str,), NON_EMPTY)}

#: events by ``ph`` (metadata, slice, counter, instant) with free pid,
#: tid and other fields, sorted as the exporter sorts them
validate_obs_trace = Schema("event", "slices", {
    "M": Table({
        **_EVENT,
        "name": ((str,), Rule("process_name or thread_name",
                              lambda v: v in ("process_name", "thread_name"))),
        "args": ((dict,), Rule("an object with a non-empty string name",
                               lambda args: isinstance(args.get("name"), str)
                               and bool(args["name"].strip()))),
    }, counted=False),
    "X": Table({
        **_SLICE,
        "dur": (NUMBER, NON_NEGATIVE),
        "cat": ((str,), NON_EMPTY),
    }, rules=(Rule("named from the vocabulary of its cat",
                   lambda e: e["cat"] not in NAMES
                   or e["name"] in NAMES[e["cat"]]),)),
    "C": Table({
        **_SLICE,
        "args": ((dict,), Rule("a non-empty object of numbers",
                               lambda args: bool(args) and all(
                                   isinstance(v, NUMBER)
                                   and not isinstance(v, bool)
                                   for v in args.values()))),
    }),
    "i": Table(_SLICE, rules=(Rule("named from the engine vocabulary",
                                   lambda e: e.get("cat") != "engine"
                                   or e["name"] in NAMES["engine"]),)),
}, closed=False, tag="ph", top=Table({"traceEvents": ((list,), None)}),
    key="traceEvents",
    # metadata first, then slices by non-decreasing ts
    order=lambda event: (0, 0) if event["ph"] == "M" else (1, event["ts"]))

QUANTILES = ("max", "p50", "p90", "p99")
_METRIC = {
    "name": ((str,), NON_EMPTY),
    "type": ((str,), None),
    "labels": ((dict,), Rule("an object of strings", lambda labels: all(
        isinstance(k, str) and isinstance(v, str)
        for k, v in labels.items()))),
}

#: metrics by ``type``, each with exactly the fields of its table, sorted
#: by (name, labels) so reruns diff cleanly
validate_obs_metrics = Schema("metric", "metrics", {
    "counter": Table({**_METRIC, "value": ((int,), NON_NEGATIVE)}),
    "gauge": Table({**_METRIC, "value": (NUMBER_OR_NULL, None)}),
    "histogram": Table({
        **_METRIC,
        "count": ((int,), NON_NEGATIVE),
        **{q: (NUMBER_OR_NULL, None) for q in QUANTILES},
    }, rules=(Rule(f"{', '.join(QUANTILES)} must be null together, "
                   f"exactly when count is 0",
                   lambda h: all((h[q] is None) == (h["count"] == 0)
                                 for q in QUANTILES)),)),
}, tag="type", top=Table({
    "format": ((str,), Rule("'repro-obs-metrics/1'",
                            lambda v: v == "repro-obs-metrics/1")),
    "metrics": ((list,), None),
}), key="metrics",
    order=lambda metric: (metric["name"], sorted(metric["labels"].items())))

SCHEMAS = {"bench": validate_rows, "sweep": validate_sweep_rows,
           "serving": validate_serving_rows, "obs-trace": validate_obs_trace,
           "obs-metrics": validate_obs_metrics}


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite JSON constant {token!r} is not allowed; "
                     f"emit null instead")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="JSON file emitted by --json or "
                                     "REPRO_SWEEP_ROWS")
    parser.add_argument("--min-rows", type=int, default=1,
                        help="minimum number of rows")
    parser.add_argument("--schema", choices=tuple(SCHEMAS), default="bench",
                        help="row shape to validate (default: bench)")
    args = parser.parse_args(argv)

    try:
        with open(args.path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        print(f"FAIL: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"FAIL: {args.path} is not valid strict JSON: {exc}",
              file=sys.stderr)
        return 1

    schema = SCHEMAS[args.schema]
    errors = schema(doc, args.min_rows)
    if errors:
        for err in errors:
            print(f"FAIL: {err}", file=sys.stderr)
        return 1
    rows = doc[schema.key] if schema.key else doc
    print(f"OK: {args.path} — {len(rows)} {schema.noun}s, schema valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
