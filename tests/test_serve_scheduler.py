"""Tests for the continuous-batching scheduler (repro.serve.scheduler).

A stub latency table with a known affine step law (floor + per-token
cost) makes every timestamp exactly predictable, so the engine's
admission, phase and accounting logic can be checked to the bit.
"""

from __future__ import annotations

import pytest

from repro.errors import ServeError
from repro.serve.scheduler import ServerConfig, serve
from repro.serve.workload import Request, generate_requests
from tests.conftest import FLOOR, PER_TOKEN, AffineTable

MODEL = object()        # the stub never inspects it
#: ignores the context axis, so resident KV never changes a step's price
#: here — timeline tests stay exactly predictable.  Context pricing
#: itself is covered in test_serve_latency / test_serve_kv.
TABLE = AffineTable()


def _req(rid, arrival, prompt, output):
    return Request(rid=rid, arrival_s=arrival, prompt_tokens=prompt,
                   output_tokens=output)


def _step(tokens):
    return FLOOR + tokens * PER_TOKEN


def test_single_request_timeline_is_exact():
    """prefill(P) -> TTFT; then output-1 decode steps of batch 1."""
    r = _req(0, 0.0, prompt=100, output=4)
    res = serve([r], MODEL, "tilelink", TABLE)
    log = res.logs[0]
    assert log.first_token_s == pytest.approx(_step(100))
    assert log.finish_s == pytest.approx(_step(100) + 3 * _step(1))
    assert log.ttft_s == pytest.approx(_step(100))
    assert log.tpot_s == pytest.approx(_step(1))
    assert res.n_prefill_steps == 1 and res.n_decode_steps == 3
    assert res.makespan_s == pytest.approx(log.finish_s)


def test_single_token_request_finishes_at_prefill():
    res = serve([_req(0, 0.0, 50, 1)], MODEL, "tilelink", TABLE)
    log = res.logs[0]
    assert log.finish_s == log.first_token_s
    assert log.tpot_s is None
    assert res.n_decode_steps == 0


def test_every_request_completes_and_logs_keep_arrival_order():
    reqs = generate_requests("chat", 400, seed=0)
    res = serve(reqs, MODEL, "tilelink", TABLE)
    assert len(res.logs) == 400
    assert all(l.finish_s is not None for l in res.logs)
    arrivals = [l.request.arrival_s for l in res.logs]
    assert arrivals == sorted(arrivals)
    for l in res.logs:
        assert l.first_token_s > l.request.arrival_s
        assert l.finish_s >= l.first_token_s


def test_batch_and_token_budgets_are_respected():
    reqs = [_req(i, 0.0, 300, 8) for i in range(20)]
    server = ServerConfig(max_batch=4, max_prefill_tokens=1000)
    res = serve(reqs, MODEL, "tilelink", TABLE, server)
    assert max(res.batch_size) <= server.max_batch
    # 300-token prompts under a 1000-token budget: <= 3 admitted per
    # prefill step, so at least ceil(20/3) prefill steps ran
    assert res.n_prefill_steps >= 7


def test_oversized_prompt_admits_alone():
    reqs = [_req(0, 0.0, 5000, 2), _req(1, 0.0, 10, 2)]
    server = ServerConfig(max_batch=8, max_prefill_tokens=1000)
    res = serve(reqs, MODEL, "tilelink", TABLE, server)
    # the oversized prompt ran in its own prefill step (5000 tokens),
    # the small one in another — never together
    assert res.n_prefill_steps == 2
    assert res.logs[0].first_token_s == pytest.approx(_step(5000))


def test_fcfs_serves_in_arrival_order():
    reqs = [_req(i, 0.0, 100, 2) for i in range(6)]
    server = ServerConfig(max_batch=2, max_prefill_tokens=100)
    res = serve(reqs, MODEL, "tilelink", TABLE, server)
    firsts = [l.first_token_s for l in res.logs]
    assert firsts == sorted(firsts)


def test_spf_lets_short_prompts_jump_the_queue():
    long_r = _req(0, 0.0, 4000, 2)
    short_r = _req(1, 0.0, 10, 2)
    server = ServerConfig(max_batch=1, max_prefill_tokens=8192,
                          policy="spf")
    res = serve([long_r, short_r], MODEL, "tilelink", TABLE, server)
    logs = {l.request.rid: l for l in res.logs}
    assert logs[1].first_token_s < logs[0].first_token_s
    # under FCFS the long prompt goes first instead
    res = serve([long_r, short_r], MODEL, "tilelink", TABLE,
                ServerConfig(max_batch=1, policy="fcfs"))
    logs = {l.request.rid: l for l in res.logs}
    assert logs[0].first_token_s < logs[1].first_token_s


def test_idle_engine_jumps_to_next_arrival():
    reqs = [_req(0, 0.0, 100, 2), _req(1, 1000.0, 100, 2)]
    res = serve(reqs, MODEL, "tilelink", TABLE)
    late = res.logs[1]
    # no queueing: its TTFT is exactly one prefill step
    assert late.ttft_s == pytest.approx(_step(100))
    assert res.makespan_s == pytest.approx(
        1000.0 + _step(100) + _step(1))


def test_decode_batches_share_steps():
    """Two concurrent requests decode together: same number of decode
    steps as one alone (batched), not double."""
    solo = serve([_req(0, 0.0, 100, 9)], MODEL, "tilelink", TABLE)
    duo = serve([_req(0, 0.0, 100, 9), _req(1, 0.0, 100, 9)],
                MODEL, "tilelink", TABLE,
                ServerConfig(max_batch=2, max_prefill_tokens=200))
    assert duo.n_decode_steps == solo.n_decode_steps


def test_decode_steps_price_the_batch_resident_context():
    """Even without a KV pool, decode steps pass the batch's total
    resident KV tokens to the latency table's context axis."""

    calls = []
    reqs = [_req(0, 0.0, 100, 3), _req(1, 0.0, 100, 3)]
    res = serve(reqs, MODEL, "tilelink", AffineTable(calls=calls),
                ServerConfig(max_batch=2, max_prefill_tokens=200))
    # after the joint prefill both requests hold 100 resident tokens;
    # each decode step grows both by one
    assert calls == [(2, 200), (2, 202)]
    assert res.peak_resident_tokens == 202


def test_result_is_deterministic():
    reqs = generate_requests("rag", 300, seed=5)
    a = serve(reqs, MODEL, "tilelink", TABLE)
    b = serve(reqs, MODEL, "tilelink", TABLE)
    assert [(l.first_token_s, l.finish_s) for l in a.logs] == \
        [(l.first_token_s, l.finish_s) for l in b.logs]
    assert (a.n_prefill_steps, a.n_decode_steps, a.queue_depth) == \
        (b.n_prefill_steps, b.n_decode_steps, b.queue_depth)


def test_bad_knobs_and_empty_workload_raise():
    with pytest.raises(ServeError, match="max_batch"):
        serve([_req(0, 0.0, 1, 1)], MODEL, "tilelink", TABLE,
              ServerConfig(max_batch=0))
    with pytest.raises(ServeError, match="max_prefill_tokens"):
        serve([_req(0, 0.0, 1, 1)], MODEL, "tilelink", TABLE,
              ServerConfig(max_prefill_tokens=0))
    with pytest.raises(ServeError, match="unknown policy"):
        serve([_req(0, 0.0, 1, 1)], MODEL, "tilelink", TABLE,
              ServerConfig(policy="lifo"))
    with pytest.raises(ServeError, match="at least one request"):
        serve([], MODEL, "tilelink", TABLE)
