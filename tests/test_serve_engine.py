"""Golden-equivalence and macro-step tests for the event-driven serving
engine (repro.serve.engine) against the preserved reference loop
(tests/oracle_serve.py, serve_reference).

The engine's contract is *bit-identity*: every timestamp, counter and
per-step sample series must match the reference loop exactly — not
approximately — on any (workload, table, knobs) triple.  The suite pins
that on seeded workloads across {kv off/on} x {fcfs, spf} x {kv-aware,
naive} and on crafted workloads that land exactly on the macro-step
event boundaries (finish ties, arrivals mid-macro-step, pool watermark
hits).  A second family runs against a real in-memory
:class:`StepLatencyTable` (analytically faked simulator) so the inlined
``decode_coeffs`` pricing is exercised across context-segment
transitions and extrapolation.
"""

from __future__ import annotations

import pytest

import repro.models.runner as runner_mod
from repro.errors import ServeError
from repro.models.configs import ModelConfig
from repro.serve.kv import KVCacheConfig
from repro.serve.latency import StepLatencyTable
from repro.serve.metrics import percentile
from repro.serve.samples import StepStats
from repro.serve.scheduler import RequestLog, ServerConfig, serve
from repro.serve.workload import Request, generate_requests
from tests.conftest import FLOOR, PER_TOKEN, AffineTable
from tests.oracle_serve import serve_reference

TINY = ModelConfig("tiny", n_layers=4, hidden=512, heads=4, head_dim=128,
                   intermediate=2048, batch=1, seq_len=2048)

TABLE = AffineTable()


def _req(rid, arrival, prompt, output):
    return Request(rid=rid, arrival_s=arrival, prompt_tokens=prompt,
                   output_tokens=output)


def _log_tuple(log: RequestLog):
    return (log.request.rid, log.queue_wait_s, log.first_token_s,
            log.finish_s, log.n_preemptions, log.recompute_tokens,
            log.preempt_stall_s)


def assert_bit_identical(reqs, model, table, server=None, kv=None):
    """serve() (the engine) == serve_reference() on every output bit."""
    a = serve(reqs, model, "tilelink", table, server, kv=kv)
    b = serve_reference(reqs, model, "tilelink", table, server, kv=kv)
    assert [_log_tuple(l) for l in a.logs] == [_log_tuple(l) for l in b.logs]
    for f in ("makespan_s", "n_prefill_steps", "n_decode_steps",
              "n_preemptions", "recompute_tokens", "peak_resident_tokens",
              "pool_blocks"):
        assert getattr(a, f) == getattr(b, f), f
    # the sample series compare as multisets + length + last sample
    for f in ("queue_depth", "batch_size", "pool_occupancy"):
        assert getattr(a, f) == getattr(b, f), f
    return a


# ------------------------------------------------- golden equivalence suite

GOLDEN_CONFIGS = [
    # (id, scenario, n, seed, server kwargs, kv kwargs or None)
    ("chat-fcfs", "chat", 400, 0, {}, None),
    ("chat-spf", "chat", 400, 1, {"policy": "spf"}, None),
    ("rag-tight-budget", "rag", 300, 2,
     {"max_batch": 8, "max_prefill_tokens": 2048}, None),
    ("summarize-kv-roomy", "batch-summarize", 300, 3, {"max_batch": 16},
     {"block_tokens": 16, "pool_blocks": 40_000}),
    ("chat-kv-watermark", "chat", 400, 4, {"max_batch": 32},
     {"block_tokens": 16, "pool_blocks": 150}),
    ("chat-naive-thrash", "chat", 300, 5, {"max_batch": 32},
     {"block_tokens": 16, "pool_blocks": 120, "admission": "naive",
      "victim": "longest-context"}),
    ("spf-kv-aware", "rag", 200, 6,
     {"policy": "spf", "max_batch": 16, "max_prefill_tokens": 4096},
     {"block_tokens": 16, "pool_blocks": 1500}),
]


@pytest.mark.parametrize(
    "scenario,n,seed,server_kw,kv_kw",
    [cfg[1:] for cfg in GOLDEN_CONFIGS],
    ids=[cfg[0] for cfg in GOLDEN_CONFIGS])
def test_engine_is_bit_identical_to_reference(scenario, n, seed, server_kw,
                                              kv_kw):
    reqs = generate_requests(scenario, n, seed=seed)
    kv = KVCacheConfig(**kv_kw) if kv_kw else None
    res = assert_bit_identical(reqs, TINY, TABLE,
                               ServerConfig(**server_kw), kv=kv)
    assert len(res.logs) == n
    assert all(l.finish_s is not None for l in res.logs)


def test_naive_golden_config_actually_preempts():
    """The thrash config must exercise the preemption path, or the
    golden suite silently stops covering it."""
    reqs = generate_requests("chat", 300, seed=5)
    res = serve(reqs, TINY, "tilelink", TABLE, ServerConfig(max_batch=32),
                kv=KVCacheConfig(block_tokens=16, pool_blocks=120,
                                 admission="naive",
                                 victim="longest-context"))
    assert res.n_preemptions > 0 and res.recompute_tokens > 0


# ------------------------------------------- real-pricer (decode_coeffs)

@pytest.fixture
def real_table(tmp_path, monkeypatch):
    """An in-memory StepLatencyTable over an analytic simulator — the
    engine prices decode through the real StepPricer's ``decode_coeffs``
    segments (flat floor, interior bilinear, extrapolation)."""
    def fake(model, method, world=8, seed=0, spec=None):
        return 1e-4 + model.tokens * 1e-6 + model.kv_len * 1e-8

    monkeypatch.setattr(runner_mod, "layer_time", fake)
    table = StepLatencyTable(tmp_path / "lat.json")
    table.ensure(TINY, "tilelink", buckets=(16, 64, 256),
                 ctx_buckets=(0, 512, 2048))
    return table


def test_engine_matches_reference_on_real_pricer(real_table):
    """Batch context sweeps 0 -> past the last ctx bucket, so decode
    pricing crosses every coefficient segment (forms 0, 1 and 2)."""
    reqs = [_req(i, i * 0.002, 200 + 17 * i, 40) for i in range(24)]
    assert_bit_identical(reqs, TINY, real_table,
                         ServerConfig(max_batch=24,
                                      max_prefill_tokens=8192))


def test_engine_matches_reference_on_real_pricer_with_pool(real_table):
    reqs = generate_requests("chat", 250, seed=7)
    assert_bit_identical(reqs, TINY, real_table,
                         ServerConfig(max_batch=16),
                         kv=KVCacheConfig(block_tokens=16, pool_blocks=700))


# ------------------------------------------------- macro-step event edges

def test_finish_tie_releases_both_on_the_same_step():
    """Two requests reaching their output length on the same decode step
    must both finish at that step's clock — the macro ends exactly at
    k = min remaining, not one early or late."""
    reqs = [_req(0, 0.0, 64, 10), _req(1, 0.0, 32, 10)]
    res = assert_bit_identical(reqs, TINY, TABLE,
                               ServerConfig(max_batch=2,
                                            max_prefill_tokens=128))
    assert res.logs[0].finish_s == res.logs[1].finish_s


def test_arrival_mid_macro_step_breaks_the_run():
    """An arrival landing mid-way through a long decode run must trigger
    a prefill at the same step the reference loop would — TTFT of the
    late request is the observable."""
    # one long decoder, then a request arriving while it decodes
    first = _req(0, 0.0, 100, 500)
    step1 = FLOOR + 1 * PER_TOKEN
    mid = (FLOOR + 100 * PER_TOKEN) + 150 * step1   # mid-decode instant
    reqs = [first, _req(1, mid + step1 / 3, 50, 20)]
    res = assert_bit_identical(reqs, TINY, TABLE, ServerConfig(max_batch=4))
    late = res.logs[1]
    # admitted promptly: waited less than one decode step, not until the
    # long request drained
    assert late.queue_wait_s < step1
    assert late.first_token_s < res.logs[0].finish_s


def test_arrival_exactly_on_step_boundary():
    """Arrival lands exactly on a decode-step completion clock — the
    <= comparison must bucket it identically in both loops."""
    step1 = FLOOR + 1 * PER_TOKEN
    prefill = FLOOR + 64 * PER_TOKEN
    reqs = [_req(0, 0.0, 64, 50),
            _req(1, prefill + 10 * step1, 64, 5)]
    assert_bit_identical(reqs, TINY, TABLE, ServerConfig(max_batch=4))


def test_pool_watermark_hit_mid_macro_step():
    """Decode growth exhausting the pool mid-run must stop the macro at
    the same step the reference's per-step growth check fires."""
    # 4 decoders whose growth crosses block boundaries at staggered
    # phases against a pool with almost no headroom
    reqs = [_req(i, 0.0, 60 + i, 200) for i in range(4)]
    res = assert_bit_identical(
        reqs, TINY, TABLE, ServerConfig(max_batch=4),
        kv=KVCacheConfig(block_tokens=16, pool_blocks=24))
    assert res.n_preemptions > 0
    assert all(l.finish_s is not None for l in res.logs)


def test_single_request_macro_is_one_big_run():
    """A lone request decodes its whole output in one macro-step; the
    derived counters must still record every individual step."""
    res = assert_bit_identical([_req(0, 0.0, 128, 1000)], TINY, TABLE)
    assert res.n_decode_steps == 999
    assert len(res.batch_size) == res.n_decode_steps + res.n_prefill_steps


def test_engine_rejects_what_the_reference_rejects():
    with pytest.raises(ServeError, match="at least one request"):
        serve([], TINY, "tilelink", TABLE)
    with pytest.raises(ServeError, match="needs .* KV blocks"):
        serve([_req(0, 0.0, 10_000, 4)], TINY, "tilelink", TABLE,
              kv=KVCacheConfig(block_tokens=16, pool_blocks=8))
    with pytest.raises(ServeError, match="KV pool too small"):
        # one request whose decode growth outruns the whole pool
        serve([_req(0, 0.0, 30, 200)], TINY, "tilelink", TABLE,
              kv=KVCacheConfig(block_tokens=16, pool_blocks=4))


def test_serve_checks_every_request_before_the_engine(monkeypatch):
    """Hand-built requests get replay_trace's check: an infinite arrival
    used to raise a bare IndexError from the engine, a NaN one sent it
    down the path that hung it, and a 0-token prompt was served."""
    import repro.serve.engine as engine_mod

    def unreached(*args, **kwargs):
        raise AssertionError("serve() reached the engine")

    monkeypatch.setattr(engine_mod, "serve_events", unreached)
    for bad in (_req(1, float("inf"), 100, 10),
                _req(1, float("nan"), 100, 10), _req(1, 0.0, 0, 10)):
        with pytest.raises(ServeError, match="request 1: "):
            serve([_req(0, 0.0, 100, 10), bad], TINY, "tilelink", TABLE)


# ----------------------------------------------------- ttft_s regression

def test_ttft_before_first_token_raises_serve_error():
    """Satellite regression: ``ttft_s`` on a not-yet-admitted request
    used to surface a bare TypeError from float arithmetic on None."""
    log = RequestLog(_req(7, 0.0, 10, 2))
    with pytest.raises(ServeError, match="request 7 has no first token"):
        log.ttft_s


# ------------------------------------------------------------- StepStats

def test_stepstats_percentile_matches_metrics_percentile():
    vals = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9]
    stats = StepStats.of(vals)
    for q in (0, 10, 25, 50, 75, 90, 99, 100):
        assert stats.percentile(q) == percentile(vals, q)


def test_stepstats_container_protocol():
    stats = StepStats.of([2, 2, 7, 1])
    assert len(stats) == 4
    assert stats.max == 7
    assert stats.last == 1
    assert stats[-1] == 1
    assert sorted(stats) == [1, 2, 2, 7]
    assert stats.distinct == 3
    with pytest.raises(IndexError):
        stats[0]
    assert stats == StepStats.of([2, 7, 2, 1])     # multiset equality
    assert stats != StepStats.of([2, 7, 1])
    assert (stats == [2, 2, 7, 1]) is False        # never equal to a list


def test_stepstats_add_repeat_and_from_counts():
    a = StepStats.of([5] * 1000 + [3] * 2)
    b = StepStats()
    b.add_repeat(5, 1000)
    b.add_repeat(3, 2)
    b.add_repeat(9, 0)              # no-op
    assert a == b
    c = StepStats._from_counts({5: 1000, 3: 2}, last=3)
    assert c == a
    assert c.distinct == 2 and len(c) == 1002


def test_stepstats_empty_series_raise():
    empty = StepStats()
    assert empty.last is None
    with pytest.raises(ServeError, match="empty sample series"):
        empty.max
    with pytest.raises(ServeError, match="empty"):
        empty.percentile(50)
    with pytest.raises(IndexError):
        empty[-1]


def test_stepstats_memory_is_bounded_by_distinct_values():
    """The streaming satellite: a million-step series with few distinct
    values must hold O(distinct) state, not O(steps)."""
    stats = StepStats()
    for i in range(1_000_000):
        stats.append(i % 32)
    assert len(stats) == 1_000_000
    assert stats.distinct == 32


# -------------------------------------- refresh --workers byte-identity

def test_refresh_latency_table_workers_is_byte_identical(tmp_path,
                                                         monkeypatch):
    """--workers N shards the cell simulations but must write the exact
    bytes a serial refresh writes (workers inherit the monkeypatched
    simulator over fork)."""
    from benchmarks import refresh_latency_table as refresh_mod

    def fake(model, method, world=8, seed=0, spec=None):
        return 1e-4 + model.tokens * 1e-6 + model.kv_len * 1e-8

    monkeypatch.setattr(runner_mod, "layer_time", fake)
    # shrink the roster to one model so the test stays quick
    monkeypatch.setattr(refresh_mod, "MODEL_NAMES", ("LLaMA2-7B",))
    serial, forked = tmp_path / "serial.json", tmp_path / "forked.json"
    assert refresh_mod.refresh(serial, workers=1) == 0
    assert refresh_mod.refresh(forked, workers=4) == 0
    assert serial.read_bytes() == forked.read_bytes()
