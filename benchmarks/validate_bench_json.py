"""Validate the machine-readable bench emitters' JSON schemas.

Each ``--schema`` is one table of ``{field: (types, rule)}`` below, which
the walker every artifact reader shares (:mod:`repro.util.schema`) checks
a document against: ``bench`` (default) for the suite's ``--json`` rows,
``sweep`` for ``SweepReport.rows()``, ``serving`` for
``ServingReport.row()``, ``obs-trace`` for ``python -m repro.obs export``
traces (``--min-rows`` counts their slices, the non-metadata events) and
``obs-metrics`` for ``MetricsRegistry.snapshot()``.  Files are strict
JSON: a missing value is ``null``, never a bare ``NaN`` or ``Infinity``.
This CI tripwire fails loudly on a missing, empty or non-strict file or
a row off schema, and it reports foreign input as a violation instead of
raising.

Usage:  PYTHONPATH=src python benchmarks/validate_bench_json.py PATH
          [--min-rows N] [--schema bench|sweep|serving|obs-trace|obs-metrics]
(``PYTHONPATH=src`` makes ``repro`` importable; an install does too.)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.util.schema import (
    NON_EMPTY,
    NON_NEGATIVE,
    NULL,
    Rule,
    Schema,
    Table,
    reject_constant,
)

NUMBER = (int, float)
NUMBER_OR_NULL = (int, float, NULL)
POSITIVE = Rule("positive", lambda v: v > 0)
FRACTION = Rule("in [0, 1]", lambda v: 0 <= v <= 1)


def null_together(*group: str) -> Rule:
    return Rule(f"{' and '.join(group)} must be null together",
                lambda row: len({row[name] is None for name in group}) == 1)


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
        "args": ((dict,), Table({"name": ((str,), NON_EMPTY)})),
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
            doc = json.load(fh, parse_constant=reject_constant)
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
