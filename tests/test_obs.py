"""Tests for the unified observability layer (repro.obs).

The load-bearing contract is *non-perturbation*: attaching a recorder
to the serving engine or the tuner must leave every output bit
unchanged — recording is read-only tuple appends.  The suite pins that
on seeded workloads (including a thrashing KV config that exercises
preemption, recompute and watermark crossings), then covers the
derived views (phase attribution, request timelines, slowest-K), the
metrics registry, the Perfetto exporter (validated by the same
``validate_bench_json`` schemas CI runs), the recording file format,
and the CLI end-to-end.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.validate_bench_json import (
    validate_obs_metrics,
    validate_obs_trace,
)
from repro.errors import ObsError, ServeError
from repro.models.configs import ModelConfig
from repro.obs import (
    EVENT_FIELDS,
    PHASES,
    Recorder,
    build_metrics,
    load,
    phase_attribution,
    request_timelines,
    save_sim_recording,
    sim_recording,
    slowest_requests,
    span_attribution,
    to_perfetto,
    write_trace,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.metrics import MetricsRegistry
from repro.serve.kv import KVCacheConfig
from repro.serve.samples import StepStats
from repro.serve.scheduler import ServerConfig, serve
from repro.serve.workload import generate_requests
from tests.conftest import AffineTable

TINY = ModelConfig("tiny", n_layers=4, hidden=512, heads=4, head_dim=128,
                   intermediate=2048, batch=1, seq_len=2048)

TABLE = AffineTable()

#: A thrashing config: small pool + naive admission, so the recording
#: covers preemption, recompute, re-admission and watermark crossings.
THRASH_KV = dict(block_tokens=16, pool_blocks=120, admission="naive",
                 victim="longest-context")


def _serve(reqs, *, kv=None, recorder=None, **server_kw):
    return serve(reqs, TINY, "tilelink", TABLE, ServerConfig(**server_kw),
                 kv=KVCacheConfig(**kv) if kv else None, recorder=recorder)


def _record(scenario="chat", n=300, seed=5, kv=THRASH_KV, **server_kw):
    server_kw.setdefault("max_batch", 32)
    reqs = generate_requests(scenario, n, seed=seed)
    recorder = Recorder()
    res = _serve(reqs, kv=kv, recorder=recorder, **server_kw)
    return res, recorder


def _result_tuple(res):
    return ([(l.request.rid, l.queue_wait_s, l.first_token_s, l.finish_s,
              l.n_preemptions, l.recompute_tokens, l.preempt_stall_s)
             for l in res.logs],
            res.makespan_s, res.n_prefill_steps, res.n_decode_steps,
            res.n_preemptions, res.recompute_tokens,
            res.queue_depth, res.batch_size, res.pool_occupancy)


# ------------------------------------------------------------ identity

@pytest.mark.parametrize("kv", [None, THRASH_KV],
                         ids=["no-pool", "thrashing-pool"])
def test_recorder_does_not_perturb_the_engine(kv):
    reqs = generate_requests("chat", 300, seed=5)
    plain = _serve(reqs, kv=kv, max_batch=32)
    recorder = Recorder()
    recorded = _serve(reqs, kv=kv, recorder=recorder, max_batch=32)
    assert _result_tuple(recorded) == _result_tuple(plain)
    assert recorded == plain
    assert len(recorder.events) > 2 * len(reqs)   # a real recording


def test_engine_refuses_a_reused_recorder():
    _, recorder = _record(n=20)
    with pytest.raises(ServeError, match="already holds events"):
        _serve(generate_requests("chat", 20, seed=5), recorder=recorder)


# ------------------------------------------------------- serve views

def test_phase_attribution_partitions_the_makespan():
    res, recorder = _record()
    attr = phase_attribution(recorder.recording())
    engine = attr["engine_s"]
    assert set(engine) == {"prefill", "decode", "idle"}
    # prefill+decode+idle partition the makespan by construction: the
    # engine clock only ever advances inside one of the three
    assert attr["coverage"] == pytest.approx(1.0, abs=1e-9)
    assert attr["makespan_s"] == pytest.approx(res.makespan_s)
    counts = attr["counts"]
    assert counts["requests"] == counts["finished"] == len(res.logs)
    assert counts["prefill_steps"] == res.n_prefill_steps
    assert counts["decode_steps"] == res.n_decode_steps
    assert counts["preemptions"] == res.n_preemptions > 0


def test_request_timelines_match_the_result_logs():
    res, recorder = _record()
    reqs = request_timelines(recorder.recording())
    assert len(reqs) == len(res.logs)
    for log in res.logs:
        r = reqs[log.request.rid]
        assert r["first_token"] == pytest.approx(
            log.request.arrival_s + log.ttft_s)
        assert r["finish"] == pytest.approx(log.finish_s)
        assert r["queue_wait"] == pytest.approx(log.queue_wait_s)
        assert r["n_preemptions"] == log.n_preemptions
        assert r["preempt_stall"] == pytest.approx(log.preempt_stall_s)
        # segments use the PHASES vocabulary (idle is engine-level),
        # are time-ordered and non-overlapping
        phases = [p for p, _, _ in r["segments"]]
        assert set(phases) <= set(PHASES) - {"idle"}
        bounds = [t for _, t0, t1 in r["segments"] for t in (t0, t1)]
        assert bounds == sorted(bounds)


def test_slowest_requests_orders_by_latency():
    _, recorder = _record(n=100)
    rows = slowest_requests(recorder.recording(), k=7)
    assert len(rows) == 7
    latencies = [r["latency"] for r in rows]
    assert latencies == sorted(latencies, reverse=True)
    with pytest.raises(ObsError):
        slowest_requests(recorder.recording(), k=0)


def test_serve_views_reject_wrong_kind():
    rec = sim_recording([(0, "compute", "gemm", 0.0, 1.0)])
    with pytest.raises(ObsError, match="needs a 'serve' recording"):
        phase_attribution(rec)
    with pytest.raises(ObsError, match="needs a 'spans' recording"):
        span_attribution(rec)


# ------------------------------------------------- recording file format

def test_save_load_roundtrip(tmp_path):
    _, recorder = _record(n=80)
    path = tmp_path / "run.json"
    recorder.save(path)
    rec = load(path)
    assert rec.kind == "serve"
    assert rec.events == recorder.recording().events
    assert rec.meta["model"] == "tiny"
    assert rec.meta["n_requests"] == 80


def test_load_rejects_malformed_recordings(tmp_path):
    path = tmp_path / "bad.json"

    def dump(payload):
        path.write_text(json.dumps(payload))
        return path

    with pytest.raises(ObsError, match="cannot read"):
        load(tmp_path / "missing.json")
    with pytest.raises(ObsError, match="format"):
        load(dump({"format": "repro-obs/999", "kind": "serve"}))
    with pytest.raises(ObsError, match="unknown kind"):
        load(dump({"format": "repro-obs/1", "kind": "metrics"}))
    with pytest.raises(ObsError, match="unknown event kind"):
        load(dump({"format": "repro-obs/1", "kind": "serve",
                   "events": [["teleport", 0.0]]}))
    with pytest.raises(ObsError, match="unknown event kind"):
        load(dump({"format": "repro-obs/1", "kind": "serve",
                   "events": [[["finish"], 1.0, 3]]}))
    with pytest.raises(ObsError, match="expected fields"):
        load(dump({"format": "repro-obs/1", "kind": "serve",
                   "events": [["finish", 1.0]]}))
    with pytest.raises(ObsError, match="finite number"):
        load(dump({"format": "repro-obs/1", "kind": "serve",
                   "events": [["finish", None, 3]]}))
    with pytest.raises(ObsError, match="non-finite"):
        path.write_text('{"format": "repro-obs/1", "kind": "serve", '
                        '"events": [["finish", NaN, 3]]}')
        load(path)
    with pytest.raises(ObsError, match="start <= end"):
        load(dump({"format": "repro-obs/1", "kind": "sim",
                   "intervals": [[0, "compute", "gemm", 2.0, 1.0]]}))
    with pytest.raises(ObsError, match="'meta.t0' has wrong type str"):
        load(dump({"format": "repro-obs/1", "kind": "serve",
                   "meta": {"t0": "x", "t1": 1.0}}))
    with pytest.raises(ObsError, match="t0 <= t1"):
        load(dump({"format": "repro-obs/1", "kind": "serve",
                   "meta": {"t0": 2.0, "t1": 1.0}}))
    with pytest.raises(ObsError, match="not valid JSON"):
        path.write_bytes(b"\xff\xfe{}")          # not UTF-8
        load(path)


def test_event_fields_cover_every_emitted_kind():
    _, recorder = _record(n=60)
    for event in recorder.events:
        fields = EVENT_FIELDS[event[0]]
        assert len(event) == 1 + len(fields)


# ------------------------------------------------------------- metrics

def test_metrics_registry_get_or_create_and_conflicts():
    reg = MetricsRegistry()
    c = reg.counter("requests", scenario="chat")
    assert reg.counter("requests", scenario="chat") is c
    assert reg.counter("requests", scenario="rag") is not c
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ObsError, match="must be >= 0"):
        c.inc(-1)
    with pytest.raises(ObsError, match="already registered as a counter"):
        reg.gauge("requests", scenario="chat")
    with pytest.raises(ObsError, match="non-empty"):
        reg.counter("")


def test_histogram_snapshot_nulls_together():
    reg = MetricsRegistry()
    reg.histogram("empty")
    h = reg.histogram("full")
    h.observe(1.0)
    h.observe_repeat(3.0, 4)
    snap = reg.snapshot()
    assert validate_obs_metrics(snap) == []
    by_name = {m["name"]: m for m in snap["metrics"]}
    empty, full = by_name["empty"], by_name["full"]
    assert empty["count"] == 0
    assert (empty["max"], empty["p50"], empty["p90"], empty["p99"]) == \
        (None, None, None, None)
    assert full["count"] == 5
    assert full["max"] == 3.0


def test_histogram_adopts_stepstats_counts():
    stats = StepStats.of([2, 2, 7, 7, 7, 9])
    reg = MetricsRegistry()
    reg.histogram("adopted").merge_counts(stats.counts())
    snap = reg.snapshot()["metrics"][0]
    assert snap["count"] == 6
    assert snap["max"] == 9
    assert snap["p50"] == stats.percentile(50)   # bit-identical


def test_build_metrics_from_a_serving_recording():
    res, recorder = _record()
    snap = build_metrics(recorder.recording()).snapshot()
    assert validate_obs_metrics(snap) == []
    by = {(m["name"], tuple(sorted(m["labels"].items()))): m
          for m in snap["metrics"]}
    assert by[("requests_total", ())]["value"] == len(res.logs)
    assert by[("preemptions_total", ())]["value"] == res.n_preemptions
    assert by[("decode_steps_total", ())]["value"] == res.n_decode_steps
    assert by[("request_latency_s", ())]["count"] == len(res.logs)
    assert by[("makespan_s", ())]["value"] == pytest.approx(res.makespan_s)


# ------------------------------------------------------------- export

def test_serve_trace_validates_and_caps_tracks():
    _, recorder = _record(n=100)
    trace = to_perfetto(recorder)
    assert validate_obs_trace(trace) == []
    rids = {e["tid"] for e in trace["traceEvents"]
            if e.get("pid") == 2 and e["ph"] == "X"}
    assert len(rids) == 100
    capped = to_perfetto(recorder.recording(), max_request_tracks=10)
    assert validate_obs_trace(capped) == []
    kept = {e["tid"] for e in capped["traceEvents"]
            if e.get("pid") == 2 and e["ph"] == "X"}
    assert len(kept) == 10
    # the cap keeps the slowest requests
    slow = {r["rid"] for r in slowest_requests(recorder.recording(), k=10)}
    assert kept == slow
    # the thrashing pool produced counter samples and watermark instants
    phs = {e["ph"] for e in trace["traceEvents"]}
    assert {"M", "X", "C", "i"} <= phs


def test_sim_trace_roundtrip_and_export(tmp_path):
    intervals = [(0, "compute", "gemm", 0.0, 2.0),
                 (0, "comm", "ag", 0.5, 1.5),
                 (1, "compute", "gemm", 0.0, 1.0)]
    path = tmp_path / "sim.json"
    save_sim_recording(path, intervals, meta={"kernel": "toy"})
    rec = load(path)
    assert rec.kind == "sim"
    assert rec.intervals == [tuple(iv) for iv in intervals]
    trace = to_perfetto(rec)
    assert validate_obs_trace(trace) == []
    # one process per rank, one thread per category
    pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert pids == {1, 2}
    with pytest.raises(ObsError, match="at least one"):
        sim_recording([])


def test_span_trace_export(tmp_path):
    recorder = Recorder()
    with recorder.timed("simulate", "toy:default"):
        pass
    recorder.span(1.0, 2.0, "prune", "toy:3/10")
    trace = to_perfetto(recorder)
    assert validate_obs_trace(trace) == []
    attr = span_attribution(recorder.recording())
    assert attr["prune"]["total_s"] == pytest.approx(1.0)
    assert attr["simulate"]["count"] == 1
    snap = build_metrics(recorder.recording()).snapshot()
    assert validate_obs_metrics(snap) == []
    empty = Recorder()
    with pytest.raises(ObsError, match="no span events"):
        to_perfetto(empty)


def test_write_trace_is_strict_json(tmp_path):
    _, recorder = _record(n=40)
    path = tmp_path / "trace.json"
    write_trace(path, recorder)
    with open(path) as fh:
        trace = json.load(fh, parse_constant=lambda t: 1 / 0)
    assert validate_obs_trace(trace) == []


# -------------------------------------------------------- tuner spans

def test_tuner_sweep_records_spans_without_perturbing(tmp_path):
    from repro.kernels.ag_gemm import ag_gemm_tune_task
    from repro.tuner.cache import TuneCache
    from repro.tuner.sweep import sweep

    task = ag_gemm_tune_task(1024, 256, 512, world=4)

    def run(cache_path, recorder=None):
        cache = TuneCache(cache_path)
        return sweep([task, task], world=4, max_trials=3,
                     cache=cache, recorder=recorder)

    recorder = Recorder()
    plain = run(tmp_path / "plain.json")
    recorded = run(tmp_path / "recorded.json", recorder=recorder)
    assert recorded.rows() == plain.rows()

    attr = span_attribution(recorder.recording())
    # default + up to 3 capped trials, each span-labelled by stage
    assert attr["simulate"]["count"] == recorded.n_simulated
    labels = attr["simulate"]["labels"]
    assert any(l.endswith(":default") for l in labels)
    assert attr["tune"]["count"] == 2 - recorded.n_deduped
    assert any(l.startswith("dedup:") for l in attr["cache"]["labels"])
    assert any(l.startswith("miss:") for l in attr["cache"]["labels"])
    assert validate_obs_trace(to_perfetto(recorder)) == []


# ------------------------------------------------------------- the CLI

def test_cli_end_to_end(tmp_path, capsys):
    run = tmp_path / "run.json"
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert obs_main(["record", "--out", str(run), "-n", "40"]) == 0
    assert obs_main(["summarize", str(run),
                     "--metrics-out", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "attributed" in out and "decode" in out
    assert obs_main(["slowest", str(run), "-k", "3"]) == 0
    assert "latency" in capsys.readouterr().out
    assert obs_main(["export", str(run), "--out", str(trace)]) == 0
    with open(trace) as fh:
        assert validate_obs_trace(json.load(fh)) == []
    with open(metrics) as fh:
        assert validate_obs_metrics(json.load(fh)) == []


def test_cli_sim_record_and_export(tmp_path, capsys):
    run = tmp_path / "sim.json"
    trace = tmp_path / "trace.json"
    assert obs_main(["record", "--kind", "sim", "--out", str(run)]) == 0
    assert obs_main(["summarize", str(run)]) == 0
    assert "comm hidden under compute" in capsys.readouterr().out
    assert obs_main(["export", str(run), "--out", str(trace)]) == 0
    with open(trace) as fh:
        assert validate_obs_trace(json.load(fh)) == []


def test_cli_fails_cleanly_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert obs_main(["summarize", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    assert obs_main(["record", "--out", str(tmp_path / "x.json"),
                     "--model", "no-such-model"]) == 1
    assert "unknown model" in capsys.readouterr().err
    # a serve recording's clock bounds come from its meta, never from
    # payload fields of its events
    _, recorder = _record(n=20)
    del recorder.meta["t0"]
    recorder.save(bad)
    assert obs_main(["summarize", str(bad)]) == 1
    assert "no t0/t1" in capsys.readouterr().err
