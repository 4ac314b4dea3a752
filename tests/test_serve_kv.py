"""Tests for the KV-cache memory layer (repro.serve.blockpool /
repro.serve.kv) and its scheduler integration.

The block pool is checked to the block (no leaks, no double frees,
occupancy never above capacity); the scheduler tests use the same
affine fake latency table as test_serve_scheduler so preemption and
identity properties are exact, not statistical.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ServeError
from repro.models.configs import ModelConfig
from repro.serve.blockpool import BlockPool
from repro.serve.kv import (
    ADMISSIONS,
    KVCacheConfig,
    KVCacheManager,
    KVFootprint,
    VICTIM_POLICIES,
)
from repro.serve.metrics import summarize
from repro.serve.scheduler import ServerConfig, serve
from repro.serve.workload import Request, generate_requests
from tests.conftest import AffineTable

TINY = ModelConfig("tiny", n_layers=4, hidden=512, heads=4, head_dim=128,
                   intermediate=2048, batch=1, seq_len=2048)

TABLE = AffineTable()


def _req(rid, arrival, prompt, output):
    return Request(rid=rid, arrival_s=arrival, prompt_tokens=prompt,
                   output_tokens=output)


def _kv(**kw):
    kw.setdefault("block_tokens", 16)
    return KVCacheConfig(**kw)


# ---------------------------------------------------------------- BlockPool

def test_blockpool_alloc_free_accounting():
    pool = BlockPool(8, 16)
    got = pool.alloc("a", 3)
    assert len(got) == 3 and pool.free_blocks == 5 and pool.used_blocks == 3
    pool.alloc("b", 5)
    assert pool.free_blocks == 0
    assert pool.occupancy() == 1.0
    pool.check_invariants()
    assert pool.free("a") == 3
    assert pool.free_blocks == 3
    pool.check_invariants()


def test_blockpool_never_exceeds_capacity():
    pool = BlockPool(4, 16)
    pool.alloc("a", 4)
    with pytest.raises(ServeError, match="pool exhausted"):
        pool.alloc("b", 1)
    pool.check_invariants()


def test_blockpool_double_free_raises():
    pool = BlockPool(4, 16)
    pool.alloc("a", 2)
    pool.free("a")
    with pytest.raises(ServeError, match="double free"):
        pool.free("a")
    with pytest.raises(ServeError, match="double free"):
        pool.free("never-allocated")


def test_blockpool_blocks_for_is_ceil():
    pool = BlockPool(8, 16)
    assert pool.blocks_for(0) == 0
    assert pool.blocks_for(1) == 1
    assert pool.blocks_for(16) == 1
    assert pool.blocks_for(17) == 2
    with pytest.raises(ServeError):
        pool.blocks_for(-1)


def test_blockpool_grow_to_allocates_only_the_boundary():
    pool = BlockPool(8, 16)
    pool.alloc("a", pool.blocks_for(20))            # 2 blocks, covers 32
    assert pool.blocks_to_grow("a", 32) == 0
    assert pool.grow_to("a", 32) == 0
    assert pool.grow_to("a", 33) == 1
    assert len(pool.owned("a")) == 3
    with pytest.raises(ServeError, match="owns no blocks"):
        pool.grow_to("b", 10)


def test_blockpool_allocation_order_is_deterministic():
    a, b = BlockPool(8, 16), BlockPool(8, 16)
    assert a.alloc("x", 3) == b.alloc("x", 3)
    a.free("x")
    assert a.alloc("y", 3) == [0, 1, 2]     # LIFO reuse, same ids back


def test_blockpool_invariant_checker_catches_corruption():
    pool = BlockPool(4, 16)
    pool.alloc("a", 2)
    pool._owned["a"].append(99)             # corrupt the ledger
    with pytest.raises(ServeError, match="invariant"):
        pool.check_invariants()


# ------------------------------------------------------- config & footprint

def test_footprint_matches_model_arithmetic():
    fp = KVFootprint.from_model(TINY)
    # K and V x layers x heads x head_dim x 2 bytes (fp16)
    assert fp.bytes_per_token == 2 * 4 * 4 * 128 * 2
    assert fp.bytes_for_tokens(10) == 10 * fp.bytes_per_token
    assert fp.tokens_for_bytes(fp.bytes_per_token * 7 + 1) == 7


def test_config_validation_rejects_bad_knobs():
    with pytest.raises(ServeError, match="exactly one"):
        KVCacheConfig().validate()                      # neither
    with pytest.raises(ServeError, match="exactly one"):
        _kv(pool_blocks=4, pool_bytes=1e9).validate()   # both
    with pytest.raises(ServeError, match="admission"):
        _kv(pool_blocks=4, admission="psychic").validate()
    with pytest.raises(ServeError, match="victim"):
        _kv(pool_blocks=4, victim="oldest").validate()
    with pytest.raises(ServeError, match="watermark"):
        _kv(pool_blocks=4, watermark=1.0).validate()
    with pytest.raises(ServeError, match="block_tokens"):
        _kv(block_tokens=0, pool_blocks=4).validate()
    assert "kv-aware" in ADMISSIONS and "naive" in ADMISSIONS
    assert set(VICTIM_POLICIES) == {"last-admitted", "longest-context"}


def test_pool_bytes_resolves_through_the_footprint():
    fp = KVFootprint.from_model(TINY)
    cfg = _kv(pool_bytes=float(fp.bytes_per_token * 16 * 10))
    assert cfg.resolve_blocks(fp) == 10
    with pytest.raises(ServeError, match="not even one"):
        _kv(pool_bytes=1.0).resolve_blocks(fp)


def test_manager_watermark_gates_only_nonempty_batches():
    mgr = KVCacheManager(_kv(pool_blocks=10, watermark=0.2), TINY)
    assert mgr.capacity_blocks == 10
    assert mgr.capacity_tokens == 160
    # watermark holds 2 blocks back: 9 blocks fit empty, not non-empty
    assert mgr.can_admit(16 * 9, batch_empty=True)
    assert not mgr.can_admit(16 * 9, batch_empty=False)
    assert mgr.can_admit(16 * 8, batch_empty=False)
    assert mgr.can_ever_fit(160) and not mgr.can_ever_fit(161)


# ------------------------------------------------------ scheduler + KV pool

def test_huge_pool_is_identical_to_no_pool():
    """The acceptance identity: kv-aware serving against a pool that
    never fills reproduces the memory-oblivious engine bit for bit."""
    reqs = generate_requests("chat", 200, seed=3)
    base = serve(reqs, TINY, "tilelink", TABLE)
    kv = serve(reqs, TINY, "tilelink", TABLE,
               kv=_kv(pool_blocks=100_000))
    assert [(l.first_token_s, l.finish_s, l.queue_wait_s) for l in base.logs] \
        == [(l.first_token_s, l.finish_s, l.queue_wait_s) for l in kv.logs]
    assert (base.n_prefill_steps, base.n_decode_steps, base.makespan_s) == \
        (kv.n_prefill_steps, kv.n_decode_steps, kv.makespan_s)
    assert kv.n_preemptions == 0 and kv.recompute_tokens == 0
    assert base.pool_blocks == 0 and kv.pool_blocks == 100_000
    assert len(base.pool_occupancy) == 0 and len(kv.pool_occupancy) > 0


def test_pressure_forces_preemption_and_everyone_still_finishes():
    # two long decoders fit; the pool cannot also hold the third, so the
    # engine must preempt-and-recompute, yet every request completes
    reqs = [_req(i, 0.0, 64, 50) for i in range(4)]
    res = serve(reqs, TINY, "tilelink", TABLE,
                ServerConfig(max_batch=8),
                kv=_kv(pool_blocks=10))
    assert all(l.finish_s is not None for l in res.logs)
    assert res.n_preemptions > 0
    assert res.recompute_tokens > 0
    assert any(l.preempt_stall_s > 0 for l in res.logs)
    assert sum(l.n_preemptions for l in res.logs) == res.n_preemptions
    assert sum(l.recompute_tokens for l in res.logs) == res.recompute_tokens
    # occupancy stayed a fraction and the pool drained at the end
    assert all(0.0 <= o <= 1.0 for o in res.pool_occupancy)
    assert res.pool_occupancy[-1] == 0.0    # no leaked blocks
    assert res.peak_resident_tokens <= 10 * 16


def test_preemption_is_deterministic_to_the_byte():
    reqs = generate_requests("long-context", 60, seed=7)
    runs = [serve(reqs, TINY, "tilelink", TABLE,
                  ServerConfig(max_batch=8, max_prefill_tokens=16384),
                  kv=_kv(pool_blocks=2048))
            for _ in range(2)]
    rows = [json.dumps(summarize(r, "long-context", "tilelink").row(),
                       sort_keys=True) for r in runs]
    assert runs[0].n_preemptions == runs[1].n_preemptions
    assert rows[0] == rows[1]


def test_victim_policy_picks_different_victims():
    # r0 (long context) admitted first, r1 (short) second; under
    # pressure last-admitted evicts r1, longest-context evicts r0
    reqs = [_req(0, 0.0, 96, 40), _req(1, 0.0, 32, 40)]

    def run(victim):
        res = serve(reqs, TINY, "tilelink", TABLE,
                    ServerConfig(max_batch=4),
                    kv=_kv(pool_blocks=12, victim=victim))
        return {l.request.rid: l for l in res.logs}

    last = run("last-admitted")
    longest = run("longest-context")
    assert last[0].n_preemptions == 0 and last[1].n_preemptions > 0
    assert longest[0].n_preemptions > 0


def test_request_larger_than_the_pool_raises():
    reqs = [_req(0, 0.0, 300, 4)]
    for admission in ADMISSIONS:
        with pytest.raises(ServeError, match="grow the pool"):
            serve(reqs, TINY, "tilelink", TABLE,
                  kv=_kv(pool_blocks=4, admission=admission))


def test_naive_admission_thrashes_harder_than_kv_aware():
    reqs = [_req(i, 0.0, 64, 20) for i in range(6)]

    def run(admission):
        return serve(reqs, TINY, "tilelink", TABLE,
                     ServerConfig(max_batch=6),
                     kv=_kv(pool_blocks=12, admission=admission))

    aware, naive = run("kv-aware"), run("naive")
    assert all(l.finish_s is not None for l in aware.logs + naive.logs)
    assert aware.n_preemptions == 0
    assert naive.n_preemptions > 0
    assert naive.recompute_tokens > aware.recompute_tokens


def test_preempted_requests_keep_their_first_token_time():
    """TTFT is a first-admission property: recompute delays *finish*,
    never the already-emitted first token."""
    # 17 blocks admit all four 4-block prompts in one chunk (with the
    # watermark) but cannot grow all of them — preemption strikes only
    # after every first token is out
    reqs = [_req(i, 0.0, 64, 50) for i in range(4)]
    pressured = serve(reqs, TINY, "tilelink", TABLE,
                      ServerConfig(max_batch=8), kv=_kv(pool_blocks=17))
    roomy = serve(reqs, TINY, "tilelink", TABLE,
                  ServerConfig(max_batch=8), kv=_kv(pool_blocks=10_000))
    assert pressured.n_preemptions > 0
    for p, r in zip(pressured.logs, roomy.logs):
        assert p.first_token_s == r.first_token_s
        if p.n_preemptions:
            assert p.preempt_stall_s > 0
            assert p.finish_s > r.finish_s


def test_kv_metrics_flow_through_summarize():
    reqs = [_req(i, 0.0, 64, 30) for i in range(4)]
    res = serve(reqs, TINY, "tilelink", TABLE, ServerConfig(max_batch=8),
                kv=_kv(pool_blocks=10))
    rep = summarize(res, "unit", "tilelink")
    assert rep.n_preemptions == res.n_preemptions > 0
    assert rep.recompute_tokens == res.recompute_tokens > 0
    assert rep.pool_occupancy_max is not None
    assert 0.0 < rep.pool_occupancy_max <= 1.0
    assert rep.preempt_stall_p99_s > 0
    # and a pool-less run keeps the null-together shape
    plain = summarize(serve(reqs, TINY, "tilelink", TABLE), "unit", "t")
    assert plain.pool_occupancy_p50 is None
    assert plain.pool_occupancy_max is None
