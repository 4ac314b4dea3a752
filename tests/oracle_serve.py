"""Test oracle: the per-step serving loop, the spec of ``serve()``.

:func:`repro.serve.scheduler.serve` runs the event-driven engine
(:mod:`repro.serve.engine`), which macro-steps decode between
batch-composition events.  :func:`serve_reference` is the original loop
it replaced — one plain Python iteration per engine step, easy to audit
and slow at fleet scale — kept here, outside the shipped package, as the
executable spec the equivalence suite (``tests/test_serve_engine.py``)
pins the engine to bit for bit.  Only tests import it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.config import H800, HardwareSpec
from repro.errors import ServeError
from repro.models.configs import ModelConfig
from repro.serve.kv import KVCacheConfig, KVCacheManager, VICTIM_POLICIES
from repro.serve.latency import StepLatencyTable
from repro.serve.scheduler import (
    POLICIES,
    RequestLog,
    ServeResult,
    ServerConfig,
)
from repro.serve.workload import Request


@dataclass
class _Running:
    """One request resident in the batch."""

    req: Request
    emitted: int        # tokens emitted so far (>= 1 once running)
    resident: int       # resident KV tokens (prompt + decoded context)
    admit_seq: int      # monotone admission counter (victim selection)


def serve_reference(requests: Sequence[Request], model: ModelConfig,
                    method: str, table: StepLatencyTable,
                    server: ServerConfig | None = None, world: int = 8,
                    spec: HardwareSpec = H800, seed: int = 0,
                    kv: KVCacheConfig | None = None) -> ServeResult:
    """The original per-step serving loop.

    It defines the semantics the engine must reproduce bit for bit; the
    golden-equivalence suite compares the two on seeded workloads across
    {kv on/off} x {fcfs, spf} x {kv-aware, naive}.  Accepts the same
    arguments (including registry-contributed ``method`` names) as
    :func:`repro.serve.scheduler.serve`.
    """
    server = server or ServerConfig()
    server.validate()
    if not requests:
        raise ServeError("serve() needs at least one request")
    step_seconds = table.interpolator(model, method, world=world, spec=spec,
                                      seed=seed)
    prio = POLICIES[server.policy]
    mgr = KVCacheManager(kv, model) if kv is not None else None
    naive = kv is not None and kv.admission == "naive"
    victim_key = VICTIM_POLICIES[kv.victim] if kv is not None else None

    order = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
    logs = {r.rid: RequestLog(r) for r in order}
    result = ServeResult(logs=[logs[r.rid] for r in order], makespan_s=0.0,
                         pool_blocks=mgr.capacity_blocks if mgr else 0)

    waiting: list[tuple] = []       # heap of (priority, Request)
    running: list[_Running] = []
    #: rid -> emitted count at eviction (requests awaiting re-admission)
    preempted: dict[int, int] = {}
    evicted_at: dict[int, float] = {}
    admit_seq = 0
    clock = order[0].arrival_s
    next_arrival = 0                # index into ``order``

    def resident_of(r: Request) -> int:
        """Resident KV tokens ``r`` holds once (re-)prefilled: the
        prompt plus every decoded token's cache entry.  (The latest
        emitted token's KV is written by the *next* decode step.)"""
        return r.prompt_tokens + max(0, preempted.get(r.rid, 1) - 1)

    def preempt_one() -> bool:
        """Evict one victim to free pool blocks; False when the batch
        is empty.  The victim re-enters the waiting queue and will
        re-prefill its resident context on re-admission."""
        if not running:
            return False
        victim = max(running, key=victim_key)
        running.remove(victim)
        mgr.release(victim.req.rid)
        preempted[victim.req.rid] = victim.emitted
        evicted_at[victim.req.rid] = clock
        logs[victim.req.rid].n_preemptions += 1
        result.n_preemptions += 1
        heapq.heappush(waiting, (prio(victim.req), victim.req))
        return True

    while next_arrival < len(order) or waiting or running:
        # deliver arrivals up to the current clock
        while next_arrival < len(order) and \
                order[next_arrival].arrival_s <= clock:
            r = order[next_arrival]
            heapq.heappush(waiting, (prio(r), r))
            next_arrival += 1
        if not waiting and not running:
            clock = order[next_arrival].arrival_s   # idle: jump to work
            continue
        result.queue_depth.append(len(waiting))

        free_slots = server.max_batch - len(running)
        do_prefill = bool(waiting) and free_slots > 0
        if do_prefill and mgr is not None:
            # head-of-queue gate: when the pool cannot take the head
            # request, decode instead (progress frees blocks).  Naive
            # admission pretends memory is free: a *fresh* arrival
            # always proceeds (forcing evictions below), and only
            # re-admissions of already-evicted requests wait for free
            # blocks — that is what keeps the thrash from livelocking.
            # kv-aware admission gates everything on watermark headroom.
            head = waiting[0][1]
            need = resident_of(head)
            if not mgr.can_ever_fit(need):
                raise ServeError(
                    f"request {head.rid} needs {mgr.blocks_for(need)} KV "
                    f"blocks but the pool holds {mgr.capacity_blocks}; "
                    f"grow the pool or trim the workload")
            if naive:
                if head.rid in preempted and \
                        mgr.blocks_for(need) > mgr.free_blocks:
                    do_prefill = False
            elif not mgr.can_admit(need, batch_empty=not running):
                do_prefill = False

        if do_prefill:
            # ---- prefill step: admit under the slot + token budgets
            # (and, with a pool, the KV gate).  An oversized prompt
            # (> max_prefill_tokens) admits alone — it must run
            # eventually and the budget is per-step.
            step_start = clock
            chunk: list[tuple[Request, int]] = []   # (request, resident)
            tokens = 0
            while waiting and len(chunk) < free_slots:
                # pop the candidate *before* any eviction: preempt_one
                # pushes victims into the waiting heap, which would
                # otherwise change what a later pop removes
                item = heapq.heappop(waiting)
                r = item[1]
                resident = resident_of(r)
                if chunk and tokens + resident > server.max_prefill_tokens:
                    heapq.heappush(waiting, item)
                    break
                if mgr is not None:
                    if not mgr.can_ever_fit(resident):
                        raise ServeError(
                            f"request {r.rid} needs "
                            f"{mgr.blocks_for(resident)} KV blocks but the "
                            f"pool holds {mgr.capacity_blocks}; grow the "
                            f"pool or trim the workload")
                    if naive:
                        # naive admission pretends memory is free: a
                        # fresh prompt evicts running victims until its
                        # context fits, and each victim's whole context
                        # later re-prefills (recompute).  Re-admissions
                        # never evict — a request is fresh exactly once,
                        # which bounds the thrash and rules out the
                        # evict-each-other livelock.
                        if r.rid not in preempted:
                            while mgr.blocks_for(resident) > \
                                    mgr.free_blocks and preempt_one():
                                pass
                        if mgr.blocks_for(resident) > mgr.free_blocks:
                            heapq.heappush(waiting, item)
                            break
                    elif not mgr.can_admit(
                            resident,
                            batch_empty=not running and not chunk):
                        heapq.heappush(waiting, item)
                        break
                    mgr.admit(r.rid, resident)
                chunk.append((r, resident))
                tokens += resident
                if tokens >= server.max_prefill_tokens:
                    break
            clock += step_seconds(tokens, 0)
            result.n_prefill_steps += 1
            result.batch_size.append(len(running) + len(chunk))
            for r, resident in chunk:
                log = logs[r.rid]
                if r.rid in preempted:
                    # re-admission: the resident context just recomputed;
                    # the request resumes decoding where it left off
                    emitted = preempted.pop(r.rid)
                    log.recompute_tokens += resident
                    result.recompute_tokens += resident
                    log.preempt_stall_s += clock - evicted_at.pop(r.rid)
                    running.append(_Running(r, emitted, resident, admit_seq))
                else:
                    log.queue_wait_s = step_start - r.arrival_s
                    log.first_token_s = clock
                    if r.output_tokens <= 1:
                        log.finish_s = clock
                        if mgr is not None:
                            mgr.release(r.rid)
                    else:
                        running.append(_Running(r, 1, resident, admit_seq))
                admit_seq += 1
        else:
            # ---- decode step: one token per running request.  With a
            # pool, grow each request's KV first — evicting victims
            # while the growth does not fit.
            if mgr is not None:
                while True:
                    need = sum(mgr.blocks_to_grow(e.req.rid, e.resident + 1)
                               for e in running)
                    if need <= mgr.free_blocks:
                        break
                    if len(running) <= 1 or not preempt_one():
                        raise ServeError(
                            f"KV pool too small: one request needs "
                            f"{need} more blocks with "
                            f"{mgr.free_blocks}/{mgr.capacity_blocks} free")
                for e in running:
                    mgr.grow_to(e.req.rid, e.resident + 1)
            ctx = sum(e.resident for e in running)
            result.peak_resident_tokens = max(result.peak_resident_tokens,
                                              ctx)
            clock += step_seconds(len(running), ctx)
            result.n_decode_steps += 1
            result.batch_size.append(len(running))
            still = []
            for e in running:
                e.emitted += 1
                e.resident += 1
                if e.emitted >= e.req.output_tokens:
                    logs[e.req.rid].finish_s = clock
                    if mgr is not None:
                        mgr.release(e.req.rid)
                else:
                    still.append(e)
            running = still
        if mgr is not None:
            result.pool_occupancy.append(mgr.occupancy())

    result.makespan_s = clock - order[0].arrival_s
    return result
