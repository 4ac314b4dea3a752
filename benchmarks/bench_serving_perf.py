"""Serving-engine throughput smoke: the event-driven core must stay fast.

``bench_serving.py`` checks what the simulator *says*; this bench checks
how fast it says it.  The event-driven engine (:mod:`repro.serve.engine`)
exists so fleet-scale what-if runs (hundreds of configs x 10^5..10^6
requests) stay interactive, and a regression that quietly reverts it to
per-step interpretation costs 10x wall time without failing a single
correctness test.  So CI runs the acceptance workload shape — a
100k-request chat trace against the kv-aware paged pool — and fails when
simulated requests per wall-clock second drop below the floor checked
into ``benchmarks/serving_perf.json`` (set ~5x under a warm dev-box
measurement, so only a structural regression trips it, not runner
jitter).

The run also pins the streaming-metrics contract: a million-step run
must hold O(distinct values) sample state, not O(steps) — the seed's
per-step lists were tens of MB per result.

``REPRO_FAST=1`` trims the request count (the floor still applies; the
engine's throughput is flat in n).  The floor is asserted here, on the
measurement itself; ``--json PATH`` records the wall time as a bench row.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.common import FAST, emit_json, run_once
from repro.models.configs import E2E_MODELS
from repro.serve import (
    KVCacheConfig,
    ServerConfig,
    StepLatencyTable,
    generate_requests,
    resolve_latency_table,
    serve,
)

WORLD = 8
SEED = 0
CONFIG_PATH = Path(__file__).resolve().parent / "serving_perf.json"


def _config() -> dict:
    with open(CONFIG_PATH) as fh:
        return json.load(fh)


def _table(model, method: str) -> StepLatencyTable:
    table = resolve_latency_table() or StepLatencyTable(readonly=True)
    table.ensure(model, method, world=WORLD, seed=SEED)
    return table


def test_serving_engine_throughput_floor(benchmark) -> None:
    cfg = _config()
    model = {m.name: m for m in E2E_MODELS}[cfg["model"]]
    method = cfg["method"]
    n = cfg["n_requests"] // 10 if FAST else cfg["n_requests"]
    table = _table(model, method)
    reqs = generate_requests(cfg["scenario"], n, seed=SEED)
    server = ServerConfig(max_batch=cfg["max_batch"])
    kv = KVCacheConfig(block_tokens=cfg["block_tokens"],
                       pool_blocks=cfg["pool_blocks"])

    def run():
        t0 = time.perf_counter()
        res = serve(reqs, model, method, table, server,
                    world=WORLD, seed=SEED, kv=kv)
        return res, time.perf_counter() - t0

    res, wall_s = run_once(benchmark, run)
    sim_rps = n / wall_s
    steps = res.n_prefill_steps + res.n_decode_steps
    print(f"\nServing perf — {cfg['scenario']}/{method}: {n} requests, "
          f"{steps} engine steps in {wall_s:.2f}s wall "
          f"= {sim_rps:,.0f} simulated req/s (floor "
          f"{cfg['min_sim_rps']:,.0f})")
    emit_json("Serving perf", f"{cfg['scenario']}/{method}/wall", wall_s)

    # the run is real work, not a no-op that games the floor
    assert len(res.logs) == n
    assert all(log.finish_s is not None for log in res.logs)
    assert steps > n                    # decode dominates a chat trace

    # streaming metrics: sample state is O(distinct values), never
    # O(steps) — each series covers ~all steps but stores a tiny multiset
    assert len(res.batch_size) == steps
    for name in ("queue_depth", "batch_size", "pool_occupancy"):
        series = getattr(res, name)
        assert series.distinct <= max(1, len(series)) / 50, name
    assert res.batch_size.distinct <= cfg["max_batch"] + 1
    assert res.pool_occupancy.distinct <= cfg["pool_blocks"] + 1

    # the floor itself — a structural slowdown (per-step interpretation,
    # accidental O(n^2) state) lands far below it
    assert sim_rps >= cfg["min_sim_rps"], (
        f"serving engine regressed: {sim_rps:,.0f} simulated req/s is "
        f"below the {cfg['min_sim_rps']:,.0f} floor in {CONFIG_PATH.name}")


def test_serving_engine_recorder_overhead(benchmark) -> None:
    """An attached recorder must change nothing and cost almost nothing.

    The observability contract (:mod:`repro.obs`) on the acceptance
    workload: the recorder-on run is *bit-identical* to the plain run
    (recording is read-only tuple appends — any divergence means a hook
    perturbed the simulation), and its wall time stays within 15% of the
    plain run's — judged on the cleanest of three back-to-back
    plain/recorded pairs, so a loaded runner cannot flip the ratio.
    """
    from repro.obs import Recorder, phase_attribution

    cfg = _config()
    model = {m.name: m for m in E2E_MODELS}[cfg["model"]]
    method = cfg["method"]
    # a tenth of the floor workload: plenty of events (~10 per request)
    # to price the hooks, small enough to run twice per variant
    n = cfg["n_requests"] // 100 if FAST else cfg["n_requests"] // 10
    table = _table(model, method)
    reqs = generate_requests(cfg["scenario"], n, seed=SEED)
    server = ServerConfig(max_batch=cfg["max_batch"])
    kv = KVCacheConfig(block_tokens=cfg["block_tokens"],
                       pool_blocks=cfg["pool_blocks"])

    def run(recorder=None):
        t0 = time.perf_counter()
        res = serve(reqs, model, method, table, server,
                    world=WORLD, seed=SEED, kv=kv, recorder=recorder)
        return res, time.perf_counter() - t0

    def race():
        # back-to-back (plain, recorded) pairs: a loaded-runner window
        # inflates both halves of a pair, so the best per-pair ratio
        # isolates the hooks' cost from machine noise — only a
        # structural regression inflates every pair
        ratios = []
        plain = recorded = recorder = None
        for _ in range(3):
            plain, w_plain = run()
            recorder = Recorder()
            recorded, w_rec = run(recorder)
            ratios.append((w_rec / w_plain, w_plain, w_rec))
        return plain, recorded, recorder, ratios

    plain, recorded, recorder, ratios = run_once(benchmark, race)

    # identity: every log field and every streaming series matches
    assert recorded == plain
    assert [(log.first_token_s, log.finish_s, log.n_preemptions)
            for log in recorded.logs] == \
        [(log.first_token_s, log.finish_s, log.n_preemptions)
         for log in plain.logs]

    # the recording is real: full lifecycle coverage, not a stub
    attr = phase_attribution(recorder.recording())
    assert attr["coverage"] >= 0.99
    assert attr["counts"]["finished"] == n

    _, w_plain, w_rec = min(ratios)
    overhead = w_rec / w_plain - 1.0
    print(f"\nRecorder overhead — {n} requests: plain {w_plain:.3f}s, "
          f"recorded {w_rec:.3f}s ({overhead:+.1%}, "
          f"{len(recorder.events)} events)")
    # 15% budget with a small absolute epsilon so a sub-100ms baseline
    # doesn't turn timer noise into a flake
    assert w_rec <= w_plain * 1.15 + 0.05, (
        f"recorder overhead {overhead:+.1%} exceeds the 15% budget")
