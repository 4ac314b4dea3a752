"""Every rule of every ``benchmarks/validate_bench_json.py`` schema fires,
and the validator reports foreign input instead of raising.

Each schema gets one valid document built from its real producer where
one exists (``ServingReport.row()``, ``SweepReport.rows()``,
``to_perfetto`` and ``MetricsRegistry.snapshot()``) and a table of
single mutations, each of which must draw at least one violation.
"""

from __future__ import annotations

import copy
import json

import pytest

from benchmarks.validate_bench_json import (
    main,
    validate_obs_metrics,
    validate_obs_trace,
    validate_rows,
    validate_serving_rows,
    validate_sweep_rows,
)
from repro.models.configs import ModelConfig
from repro.obs import Recorder, to_perfetto
from repro.obs.metrics import MetricsRegistry
from repro.serve.kv import KVCacheConfig
from repro.serve.metrics import summarize
from repro.serve.scheduler import ServerConfig, serve
from repro.serve.workload import generate_requests
from repro.tuner.search import TuneResult
from repro.tuner.sweep import SweepEntry, SweepReport
from tests.conftest import AffineTable

VALIDATE = {
    "bench": validate_rows,
    "sweep": validate_sweep_rows,
    "serving": validate_serving_rows,
    "obs-trace": validate_obs_trace,
    "obs-metrics": validate_obs_metrics,
}

TINY = ModelConfig("tiny", n_layers=4, hidden=512, heads=4, head_dim=128,
                   intermediate=2048, batch=1, seq_len=2048)

#: a small pool under naive admission: the run preempts, so its trace
#: carries pool counter samples and watermark instants
THRASH_KV = KVCacheConfig(block_tokens=16, pool_blocks=40,
                          admission="naive", victim="longest-context")

#: foreign values written into every field of every valid document
FOREIGN = (None, -1, 0, 1.5, True, "", "x", [], {})

DROP = object()


def _sweep_rows() -> list[dict]:
    def result(default_time, from_cache):
        return TuneResult(best={"block_m": 128, "block_n": 256},
                          best_time=1.0e-4, best_config=None,
                          default_time=default_time, n_candidates=8,
                          n_pruned=3, n_pruned_dynamic=0,
                          n_simulated=0 if from_cache else 5,
                          from_cache=from_cache, strategy="exhaustive")

    searched = result(1.2e-4, from_cache=False)
    return SweepReport([
        SweepEntry("MLP-1", "ag_gemm", "m1024", "key-1", searched),
        SweepEntry("MLP-1 alias", "ag_gemm", "m1024", "key-1", searched,
                   deduped_from="MLP-1"),
        # a cache hit without a recorded baseline: the null form
        SweepEntry("legacy", "gemm_rs", "m2048", "key-2",
                   result(None, from_cache=True)),
    ]).rows()


def _trace(recorder: Recorder) -> dict:
    """The run's exported trace, cut to the first event of each
    (ph, cat, name): still metadata first and sorted by ``ts``."""
    trace = to_perfetto(recorder)
    seen, events = set(), []
    for event in trace["traceEvents"]:
        key = (event["ph"], event.get("cat"), event["name"])
        if key not in seen:
            seen.add(key)
            events.append(event)
    return dict(trace, traceEvents=events)


def _metrics() -> dict:
    reg = MetricsRegistry()
    reg.counter("requests_total", scenario="chat").inc(3)
    reg.gauge("makespan_s").set(2.5)
    reg.gauge("pool_blocks")                 # never set: null
    reg.histogram("empty_s")                 # count 0: null quantiles
    latency = reg.histogram("latency_s")
    latency.observe(1.0)
    latency.observe_repeat(3.0, 4)
    return reg.snapshot()


@pytest.fixture(scope="module")
def docs() -> dict:
    reqs = generate_requests("chat", 12, seed=5)
    recorder = Recorder()
    pooled = serve(reqs, TINY, "tilelink", AffineTable(),
                   ServerConfig(max_batch=8), kv=THRASH_KV,
                   recorder=recorder)
    plain = serve(reqs, TINY, "torch", AffineTable(),
                  ServerConfig(max_batch=8))
    built = {
        "bench": [{"bench": "Figure 8", "config": "MLP-1/TileLink",
                   "time_s": 1.2e-4},
                  {"bench": "Serving perf", "config": "chat/tilelink/wall",
                   "time_s": 1.5}],
        "sweep": _sweep_rows(),
        "serving": [summarize(pooled, "chat", "tilelink").row(),
                    summarize(plain, "chat", "torch").row()],
        "obs-trace": _trace(recorder),
        "obs-metrics": _metrics(),
    }
    # what a reader of the file sees: strict JSON, lists not tuples
    return {schema: json.loads(json.dumps(doc, allow_nan=False))
            for schema, doc in built.items()}


def _set(target, **changes) -> None:
    for key, value in changes.items():
        if value is DROP:
            del target[key]
        else:
            target[key] = value


def _event(doc: dict, ph: str, cat: str | None = None) -> dict:
    return next(e for e in doc["traceEvents"]
                if e["ph"] == ph and (cat is None or e.get("cat") == cat))


def _metric(doc: dict, name: str) -> dict:
    return next(m for m in doc["metrics"] if m["name"] == name)


def _unsort_slices(doc: dict) -> None:
    events = doc["traceEvents"]
    i = next(i for i in range(len(events) - 1)
             if events[i]["ph"] != "M"
             and events[i]["ts"] < events[i + 1]["ts"])
    events[i], events[i + 1] = events[i + 1], events[i]


def _metadata_last(doc: dict) -> None:
    doc["traceEvents"].append(doc["traceEvents"].pop(0))


def _swap(rows: list) -> None:
    rows[0], rows[1] = rows[1], rows[0]


MUTATIONS = {
    "bench": {
        "unknown field": lambda d: _set(d[0], surprise=1),
        "missing field": lambda d: _set(d[0], config=DROP),
        "wrong type": lambda d: _set(d[0], time_s="1e-4"),
        "true for a number": lambda d: _set(d[0], time_s=True),
        "null": lambda d: _set(d[0], bench=None),
        "zero time": lambda d: _set(d[0], time_s=0.0),
        "negative time": lambda d: _set(d[1], time_s=-1e-6),
        "blank bench": lambda d: _set(d[0], bench=" "),
        "empty config": lambda d: _set(d[1], config=""),
        "row not an object": lambda d: d.__setitem__(1, 5),
    },
    "sweep": {
        "unknown field": lambda d: _set(d[0], surprise=1),
        "missing field": lambda d: _set(d[0], best=DROP),
        "wrong type": lambda d: _set(d[0], kernel=3),
        "true for an int": lambda d: _set(d[0], n_simulated=True),
        "float for an int": lambda d: _set(d[0], n_simulated=1.5),
        "int for a bool": lambda d: _set(d[0], from_cache=1),
        "null": lambda d: _set(d[0], tuned_ms=None),
        "zero tuned_ms": lambda d: _set(d[1], tuned_ms=0.0),
        "negative tuned_ms": lambda d: _set(d[0], tuned_ms=-1.0),
        "null default_ms alone": lambda d: _set(d[0], default_ms=None),
        "null speedup alone": lambda d: _set(d[0], speedup=None),
        "numeric default_ms alone": lambda d: _set(d[2], default_ms=1.0),
        "deduped_from not a string": lambda d: _set(d[1], deduped_from=3),
        "best not an object": lambda d: _set(d[0], best=[128]),
        "row not an object": lambda d: d.__setitem__(0, "row"),
    },
    "serving": {
        "unknown field": lambda d: _set(d[0], surprise=1),
        "missing field": lambda d: _set(d[0], policy=DROP),
        "wrong type": lambda d: _set(d[0], policy=1),
        "true for an int": lambda d: _set(d[0], n_requests=True),
        "float for an int": lambda d: _set(d[0], queue_depth_max=1.5),
        "null": lambda d: _set(d[0], ttft_p50_s=None),
        "blank scenario": lambda d: _set(d[0], scenario=" "),
        "empty method": lambda d: _set(d[0], method=""),
        "empty policy": lambda d: _set(d[1], policy=""),
        **{f"zero {field}": (lambda d, f=field: _set(d[0], **{f: 0}))
           for field in ("n_requests", "makespan_s", "throughput_rps",
                         "output_tok_per_s", "ttft_p50_s", "ttft_p99_s")},
        "slo above 1": lambda d: _set(d[0], slo_attainment=1.5),
        "slo below 0": lambda d: _set(d[0], slo_attainment=-0.1),
        "pool p50 above 1": lambda d: _set(d[0], pool_occupancy_p50=1.2),
        "pool max above 1": lambda d: _set(d[0], pool_occupancy_max=1.2),
        "pool p50 below 0": lambda d: _set(d[0], pool_occupancy_p50=-0.5),
        **{f"negative {field}": (lambda d, f=field: _set(d[0], **{f: -1}))
           for field in ("queue_wait_p50_s", "queue_wait_p99_s",
                         "preempt_stall_p99_s", "n_preemptions",
                         "recompute_tokens")},
        "null tpot p50 alone": lambda d: _set(d[0], tpot_p50_s=None),
        "null tpot p99 alone": lambda d: _set(d[0], tpot_p99_s=None),
        "null pool p50 alone": lambda d: _set(d[0], pool_occupancy_p50=None),
        "pool max without a pool": lambda d: _set(d[1],
                                                  pool_occupancy_max=0.5),
        "row not an object": lambda d: d.__setitem__(1, []),
    },
    "obs-trace": {
        "traceEvents missing": lambda d: _set(d, traceEvents=DROP),
        "traceEvents not a list": lambda d: _set(d, traceEvents={}),
        "event not an object": lambda d: d["traceEvents"].__setitem__(1, 5),
        "unknown ph": lambda d: _set(_event(d, "X", "engine"), ph="B"),
        "ph missing": lambda d: _set(_event(d, "C"), ph=DROP),
        "ph not a string": lambda d: _set(_event(d, "X", "phase"), ph=["X"]),
        "negative ts": lambda d: _set(_event(d, "X", "engine"), ts=-1),
        "ts missing": lambda d: _set(_event(d, "M"), ts=DROP),
        "ts a string": lambda d: _set(_event(d, "i"), ts="0"),
        "true for ts": lambda d: _set(_event(d, "C"), ts=True),
        "metadata name": lambda d: _set(_event(d, "M"),
                                        name="process_labels"),
        "metadata args.name blank": lambda d: _set(_event(d, "M"),
                                                   args={"name": " "}),
        "metadata args missing": lambda d: _set(_event(d, "M"), args=DROP),
        "metadata after a slice": _metadata_last,
        "unsorted slice": _unsort_slices,
        "empty slice name": lambda d: _set(_event(d, "X", "phase"), name=""),
        "slice name missing": lambda d: _set(_event(d, "X", "engine"),
                                             name=DROP),
        "negative dur": lambda d: _set(_event(d, "X", "phase"), dur=-1.0),
        "dur missing": lambda d: _set(_event(d, "X", "engine"), dur=DROP),
        "dur a string": lambda d: _set(_event(d, "X", "engine"), dur="1"),
        "empty cat": lambda d: _set(_event(d, "X", "phase"), cat=""),
        "cat missing": lambda d: _set(_event(d, "X", "engine"), cat=DROP),
        "phase outside its vocabulary": lambda d: _set(
            _event(d, "X", "phase"), name="sleep"),
        "engine slice outside its vocabulary": lambda d: _set(
            _event(d, "X", "engine"), name="nap"),
        "engine instant outside its vocabulary": lambda d: _set(
            _event(d, "i", "engine"), name="watermark_sideways"),
        "empty counter args": lambda d: _set(_event(d, "C"), args={}),
        "non-numeric counter arg": lambda d: _set(_event(d, "C"),
                                                  args={"blocks": "x"}),
        "true for a counter arg": lambda d: _set(_event(d, "C"),
                                                 args={"blocks": True}),
        "counter args missing": lambda d: _set(_event(d, "C"), args=DROP),
    },
    "obs-metrics": {
        "wrong format": lambda d: _set(d, format="repro-obs-metrics/2"),
        "format missing": lambda d: _set(d, format=DROP),
        "metrics not a list": lambda d: _set(d, metrics={}),
        "metric not an object": lambda d: d["metrics"].__setitem__(0, 1),
        "unsorted metric": lambda d: _swap(d["metrics"]),
        "unknown field": lambda d: _set(_metric(d, "makespan_s"), unit="s"),
        "missing field": lambda d: _set(_metric(d, "pool_blocks"),
                                        value=DROP),
        "unknown type": lambda d: _set(_metric(d, "makespan_s"),
                                       type="summary"),
        "type missing": lambda d: _set(_metric(d, "makespan_s"), type=DROP),
        "blank name": lambda d: _set(_metric(d, "makespan_s"), name=" "),
        "name missing": lambda d: _set(_metric(d, "empty_s"), name=DROP),
        "non-string label": lambda d: _set(_metric(d, "requests_total"),
                                           labels={"scenario": 1}),
        "labels not an object": lambda d: _set(_metric(d, "makespan_s"),
                                               labels=["chat"]),
        "negative counter": lambda d: _set(_metric(d, "requests_total"),
                                           value=-1),
        "float counter": lambda d: _set(_metric(d, "requests_total"),
                                        value=1.5),
        "true for a counter": lambda d: _set(_metric(d, "requests_total"),
                                             value=True),
        "null counter": lambda d: _set(_metric(d, "requests_total"),
                                       value=None),
        "string gauge": lambda d: _set(_metric(d, "makespan_s"), value="x"),
        "negative count": lambda d: _set(_metric(d, "latency_s"), count=-1),
        "true for a count": lambda d: _set(_metric(d, "latency_s"),
                                           count=True),
        "null count": lambda d: _set(_metric(d, "empty_s"), count=None),
        "string quantile": lambda d: _set(_metric(d, "latency_s"), p90="x"),
        "count 0 with a numeric quantile": lambda d: _set(
            _metric(d, "empty_s"), p50=1.0),
        "count 0 with numeric quantiles": lambda d: _set(
            _metric(d, "empty_s"), max=1.0, p50=1.0, p90=1.0, p99=1.0),
        "count 5 with a null quantile": lambda d: _set(
            _metric(d, "latency_s"), p99=None),
        "count 5 with null quantiles": lambda d: _set(
            _metric(d, "latency_s"), max=None, p50=None, p90=None,
            p99=None),
    },
}


def test_valid_documents_pass(docs):
    for schema, validate in VALIDATE.items():
        assert validate(docs[schema]) == [], schema


@pytest.mark.parametrize("schema, mutate", [
    pytest.param(schema, mutate, id=f"{schema}: {name}")
    for schema, table in MUTATIONS.items()
    for name, mutate in table.items()])
def test_every_rule_fires(docs, schema, mutate):
    doc = copy.deepcopy(docs[schema])
    mutate(doc)
    assert VALIDATE[schema](doc) != []


@pytest.mark.parametrize("schema", VALIDATE)
def test_top_level_shape_and_row_count_are_checked(docs, schema):
    validate = VALIDATE[schema]
    doc = docs[schema]
    assert validate({} if isinstance(doc, list) else []) != []
    assert validate(doc, min_rows=10**6) != []


def _paths(node, path=()):
    """Every (container path, key) of a JSON document, at any depth."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path, key
        yield from _paths(child, path + (key,))


@pytest.mark.parametrize("schema", VALIDATE)
def test_foreign_values_never_raise(docs, schema):
    validate = VALIDATE[schema]
    for value in FOREIGN:
        assert isinstance(validate(value), list)
    for path, key in _paths(docs[schema]):
        for value in FOREIGN:
            doc = copy.deepcopy(docs[schema])
            target = doc
            for step in path:
                target = target[step]
            target[key] = value
            assert isinstance(validate(doc), list), (path, key, value)


@pytest.mark.parametrize("schema", VALIDATE)
def test_cli_accepts_a_valid_file(docs, schema, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(docs[schema]))
    assert main([str(path), "--schema", schema]) == 0
    assert capsys.readouterr().out.startswith("OK:")


def test_cli_rejects_a_bare_nan(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('[{"bench": "b", "config": "c", "time_s": NaN}]')
    assert main([str(path)]) == 1
    assert "not valid strict JSON" in capsys.readouterr().err


def test_cli_reports_a_missing_file(tmp_path, capsys):
    assert main([str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("mtype", [[], {}])
def test_cli_reports_an_unhashable_metric_type(docs, mtype, tmp_path,
                                               capsys):
    doc = copy.deepcopy(docs["obs-metrics"])
    doc["metrics"][0]["type"] = mtype
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), "--schema", "obs-metrics"]) == 1
    assert "FAIL:" in capsys.readouterr().err
