"""Event-driven serving core: macro-stepped decode over columnar state.

The per-step reference loop (kept with the tests as an oracle,
``tests/oracle_serve.py``) interprets every engine step — ~1.5M steps
for a 100k-request chat run — and spends most of its time on per-step
Python object traffic.  This engine reproduces it *bit-for-bit* while
pricing decode in macro-steps:

* **struct-of-arrays batch state** — the running batch lives in parallel
  columns instead of ``_Running`` objects, and the per-step quantities
  are stored in *absolute* coordinates so a macro-step touches no
  column at all: ``col_fin`` holds the global decode-step index at
  which an entry finishes (not a per-step ``remaining`` countdown), and
  ``col_resb`` holds ``resident - D_admit`` (so an entry's resident KV
  at global step ``D`` is ``col_resb[i] + D`` without ever rewriting
  the column).  The batch's total resident context at step ``t`` is
  then ``sum(col_resb) + B * (t - 1)`` with the sum maintained
  incrementally on admit/remove.
* **decode macro-stepping** — between batch-composition events the
  batch is static, so the engine advances up to
  ``k = min(col_fin) - D`` decode steps in one tight loop whose body is
  a handful of inlined float ops (via
  :meth:`~repro.serve.latency.StepPricer.decode_coeffs`, the raw
  coefficients of the context cell the closure pricer interpolates in).
  The events that bound a macro are conservative (stopping early is
  always safe — a macro of one step is exactly one reference step):

  - the next **finish** (``min`` over the absolute finish column);
  - the next **arrival** while the batch has free slots — only a *new*
    arrival can flip the prefill gate mid-macro, because the waiting
    head is static and free blocks only shrink while decoding (the
    kv-aware and naive admission gates are both monotone in those);
  - the next **pool-pressure point**: a step whose block growth exceeds
    the free count falls back to one reference-shaped step with the
    preemption loop.

* **integer pool shadowing** — with a pool, an entry crosses a block
  boundary exactly when its resident count fills a block: at global
  decode steps congruent to ``(1 - col_resb[i]) mod block_tokens``, a
  phase fixed at admission.  Entries hang in per-phase buckets, so each
  macro step's total block growth is one integer read.  The
  :class:`~repro.serve.kv.KVCacheManager` is built once (config
  validation, capacity/watermark resolution) and then shadowed by plain
  integer accounting — a used-block counter and per-request block
  counts.  Block *identities* never reach any published output (the
  pool's LIFO id discipline exists for its own ledger tests), and every
  admission gate, occupancy sample and preemption threshold is a pure
  function of these counts, so the shadow is exact.
* **clock discipline** — the simulated clock still accumulates one
  float add per step, through the same cell arithmetic the per-call
  pricer uses (operation-for-operation); closed-form ``k * dt``
  shortcuts would break bit-determinism.  Per-step samples are counted
  inline (runs of steps between events share one value) and adopted
  into :class:`~repro.serve.samples.StepStats` at the end.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Sequence

from repro.config import H800, HardwareSpec
from repro.errors import ServeError
from repro.models.configs import ModelConfig
from repro.serve.kv import KVCacheConfig, KVCacheManager, VICTIM_POLICIES
from repro.serve.latency import StepLatencyTable
from repro.serve.samples import StepStats
from repro.serve.scheduler import (
    POLICIES,
    RequestLog,
    ServeResult,
    ServerConfig,
)
from repro.serve.workload import Request

__all__ = ["serve_events"]


class _Entry:
    """Attribute view of one running request for the pluggable
    ``VICTIM_POLICIES`` key functions (same fields as the reference
    loop's ``_Running``)."""

    __slots__ = ("req", "emitted", "resident", "admit_seq")

    def __init__(self, req: Request, emitted: int, resident: int,
                 admit_seq: int):
        self.req = req
        self.emitted = emitted
        self.resident = resident
        self.admit_seq = admit_seq


def serve_events(requests: Sequence[Request], model: ModelConfig,
                 method: str, table: StepLatencyTable,
                 server: ServerConfig | None = None, world: int = 8,
                 spec: HardwareSpec = H800, seed: int = 0,
                 kv: KVCacheConfig | None = None,
                 recorder=None) -> ServeResult:
    """Serve ``requests`` through the event-driven core.

    Same contract as :func:`repro.serve.scheduler.serve` (which wraps
    this), same bits as the per-step reference loop.

    ``recorder`` (a :class:`repro.obs.Recorder`, duck-typed: an
    ``events`` list and a ``meta`` dict) captures the full request
    lifecycle in simulated-clock time — arrivals, idle gaps, prefill
    steps, per-request admissions, decode macro-steps, preemptions,
    finishes, and (with a pool) per-step used-block levels and
    watermark crossings.  Recording is strictly read-only: it appends
    event tuples and touches no simulation state, so results are
    bit-identical with a recorder or ``None`` — and with ``None`` (the
    default) every hook is a single predictable branch.  This module
    deliberately never imports :mod:`repro.obs`.
    """
    server = server or ServerConfig()
    server.validate()
    if not requests:
        raise ServeError("serve() needs at least one request")
    recording = recorder is not None
    if recording and recorder.events:
        raise ServeError(
            "recorder already holds events; serve() needs a fresh "
            "Recorder per run (mixing two runs' clocks would corrupt "
            "every downstream timeline)")
    pricer = table.interpolator(model, method, world=world, spec=spec,
                                seed=seed)
    coeffs_of = pricer.decode_coeffs
    prio = POLICIES[server.policy]
    mgr = KVCacheManager(kv, model) if kv is not None else None
    with_pool = mgr is not None
    naive = kv is not None and kv.admission == "naive"
    victim_key = VICTIM_POLICIES[kv.victim] if kv is not None else None

    order = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
    logs = {r.rid: RequestLog(r) for r in order}
    result = ServeResult(logs=[logs[r.rid] for r in order], makespan_s=0.0,
                         pool_blocks=mgr.capacity_blocks if mgr else 0)

    max_batch = server.max_batch
    max_prefill = server.max_prefill_tokens

    # struct-of-arrays running batch (all columns in admission order);
    # see the module docstring for the absolute coordinates
    col_req: list[Request] = []     # the request objects
    col_rid: list[int] = []         # request ids
    col_fin: list[int] = []         # global decode step of the finish
    col_resb: list[int] = []        # resident - D_admit (resident base)
    col_seq: list[int] = []         # admission counter (victim selection)
    sum_resb = 0                    # running sum of ``col_resb``

    waiting: list[tuple] = []       # heap of (priority, Request)
    #: rid -> emitted count at eviction (requests awaiting re-admission)
    preempted: dict[int, int] = {}
    evicted_at: dict[int, float] = {}
    admit_seq = 0
    clock = order[0].arrival_s
    n_order = len(order)
    next_arrival = 0                # index into ``order``
    arr_times = [r.arrival_s for r in order]
    next_arr_t = arr_times[0]

    n_prefill = 0
    n_decode = 0                    # global decode-step counter ``D``
    n_preempt = 0
    recompute = 0
    peak_resident = 0

    # per-step sample series, counted inline ({value: occurrences});
    # adopted into StepStats at the end
    qd_counts: dict = {}
    bs_counts: dict = {}
    occ_counts: dict = {}
    qd_last = bs_last = occ_last = None

    # prefill prices repeat heavily across steps (chunk token totals
    # cluster); memoise the full (tokens, ctx=0) evaluation per run
    prefill_price: dict[int, float] = {}

    pool_used = 0                   # blocks allocated across the batch
    # a pool-less run decodes through the same macro-step loop with one
    # growth phase that never grows
    bt, cap, cnt = 1, 0, [0]
    if with_pool:
        # integer shadow of the block pool (see the module docstring)
        bt = mgr.pool.block_tokens
        cap = mgr.capacity_blocks
        wm = mgr.watermark_blocks
        held: dict[int, int] = {}   # rid -> blocks held
        #: per-phase growth buckets: ``pm[p]`` holds the rids that grow
        #: one block at decode steps ``D % bt == p``; ``cnt[p]`` caches
        #: the bucket size for the tight loop
        pm: list[dict] = [{} for _ in range(bt)]
        cnt = [0] * bt

    if recording:
        ev = recorder.events.append
        recorder.meta.update(
            kind="serve", model=model.name, method=method, world=world,
            policy=server.policy, n_requests=n_order,
            pool_blocks=cap if with_pool else 0)
        # arrivals are known up front: bulk-record them (future
        # timestamps included — consumers sort by ts)
        recorder.events.extend(
            ("arrival", r.arrival_s, r.rid, r.prompt_tokens,
             r.output_tokens) for r in order)
        if with_pool:
            wm_lvl = cap - wm       # used-block level of the watermark
            wm_above = False

    def admit_entry(r: Request, emitted: int, resident: int) -> None:
        nonlocal sum_resb
        col_req.append(r)
        col_rid.append(r.rid)
        col_fin.append(n_decode + r.output_tokens - emitted)
        rb = resident - n_decode
        col_resb.append(rb)
        col_seq.append(admit_seq)
        sum_resb += rb
        if with_pool:
            p = (1 - rb) % bt
            pm[p][r.rid] = None
            cnt[p] += 1

    def drop_entry(i: int) -> None:
        """Remove column slot ``i`` (order-preserving, like the
        reference loop's rebuild)."""
        nonlocal sum_resb
        rb = col_resb[i]
        sum_resb -= rb
        if with_pool:
            p = (1 - rb) % bt
            del pm[p][col_rid[i]]
            cnt[p] -= 1
        del col_req[i]
        del col_rid[i]
        del col_fin[i]
        del col_resb[i]
        del col_seq[i]

    def preempt_one() -> bool:
        """Evict one victim to free pool blocks; False when the batch
        is empty.  Victim choice matches the reference loop: ``max`` by
        the victim-policy key over entries in admission order."""
        nonlocal n_preempt, pool_used
        if not col_rid:
            return False
        D = n_decode
        best_i = -1
        best_key = None
        for i in range(len(col_rid)):
            req = col_req[i]
            view = _Entry(req, req.output_tokens - (col_fin[i] - D),
                          col_resb[i] + D, col_seq[i])
            key = victim_key(view)
            if best_key is None or key > best_key:
                best_i, best_key = i, key
        rid = col_rid[best_i]
        req = col_req[best_i]
        emitted = req.output_tokens - (col_fin[best_i] - D)
        pool_used -= held.pop(rid)
        drop_entry(best_i)
        preempted[rid] = emitted
        evicted_at[rid] = clock
        logs[rid].n_preemptions += 1
        n_preempt += 1
        heapq.heappush(waiting, (prio(req), req))
        if recording:
            ev(("preempt", clock, rid))
        return True

    def slow_decode_step() -> None:
        """One reference-shaped decode step with the pool preemption
        loop — the macro path falls back here when the next step's
        block growth exceeds the free count."""
        nonlocal clock, n_decode, peak_resident, pool_used
        nonlocal bs_last, occ_last, wm_above
        D = n_decode
        if recording:
            t0 = clock
        while True:
            n = len(col_rid)
            need = 0
            for i in range(n):
                d = -(-(col_resb[i] + D + 1) // bt) - held[col_rid[i]]
                if d > 0:
                    need += d
            if need <= cap - pool_used:
                break
            if n <= 1 or not preempt_one():
                raise ServeError(
                    f"KV pool too small: one request needs "
                    f"{need} more blocks with "
                    f"{cap - pool_used}/{cap} free")
        for i in range(n):
            rid = col_rid[i]
            nb = -(-(col_resb[i] + D + 1) // bt)
            d = nb - held[rid]
            if d > 0:
                held[rid] = nb
                pool_used += d
        ctx = sum_resb + n * D
        if ctx > peak_resident:
            peak_resident = ctx
        clock += pricer(n, ctx)
        n_decode = D + 1
        bs_counts[n] = bs_counts.get(n, 0) + 1
        bs_last = n
        for i in range(n - 1, -1, -1):
            if col_fin[i] == D + 1:
                rid = col_rid[i]
                logs[rid].finish_s = clock
                pool_used -= held.pop(rid)
                drop_entry(i)
                if recording:
                    ev(("finish", clock, rid))
        occ = pool_used / cap
        occ_counts[occ] = occ_counts.get(occ, 0) + 1
        occ_last = occ
        if recording:
            ev(("decode", t0, clock, 1, n, pool_used))
            if wm_above != (pool_used > wm_lvl):
                wm_above = not wm_above
                ev(("watermark", clock, 1 if wm_above else 0, pool_used))

    while next_arrival < n_order or waiting or col_rid:
        # deliver arrivals up to the current clock
        while next_arr_t <= clock:
            r = order[next_arrival]
            heapq.heappush(waiting, (prio(r), r))
            next_arrival += 1
            next_arr_t = (arr_times[next_arrival]
                          if next_arrival < n_order else inf)
        if not waiting and not col_rid:
            if recording:
                ev(("idle", clock, next_arr_t))
            clock = next_arr_t                  # idle: jump to work
            continue
        depth = len(waiting)
        qd_counts[depth] = qd_counts.get(depth, 0) + 1
        qd_last = depth

        free_slots = max_batch - len(col_rid)
        do_prefill = bool(waiting) and free_slots > 0
        if do_prefill and with_pool:
            # head-of-queue gate — same rules as the reference loop.
            # resident-on-admission: prompt plus every *cached* decoded
            # token (the latest emitted token's KV is written by the
            # next step); fresh requests carry emitted=1, so the
            # ``get`` default prices them at bare prompt size
            head = waiting[0][1]
            need = head.prompt_tokens + preempted.get(head.rid, 1) - 1
            nb = -(-need // bt)
            if nb > cap:
                raise ServeError(
                    f"request {head.rid} needs {nb} KV "
                    f"blocks but the pool holds {cap}; "
                    f"grow the pool or trim the workload")
            if naive:
                if head.rid in preempted and nb > cap - pool_used:
                    do_prefill = False
            elif not (nb <= cap - pool_used if not col_rid
                      else nb <= cap - pool_used - wm):
                do_prefill = False

        if do_prefill:
            # ---- prefill step: identical to the reference loop ----------
            step_start = clock
            chunk: list[tuple[Request, int]] = []   # (request, resident)
            tokens = 0
            while waiting and len(chunk) < free_slots:
                item = heapq.heappop(waiting)
                r = item[1]
                resident = r.prompt_tokens + preempted.get(r.rid, 1) - 1
                if chunk and tokens + resident > max_prefill:
                    heapq.heappush(waiting, item)
                    break
                if with_pool:
                    nb = -(-resident // bt)
                    if nb > cap:
                        raise ServeError(
                            f"request {r.rid} needs "
                            f"{nb} KV blocks but the "
                            f"pool holds {cap}; grow the "
                            f"pool or trim the workload")
                    if naive:
                        if r.rid not in preempted:
                            while nb > cap - pool_used and preempt_one():
                                pass
                        if nb > cap - pool_used:
                            heapq.heappush(waiting, item)
                            break
                    elif not (nb <= cap - pool_used
                              if not col_rid and not chunk
                              else nb <= cap - pool_used - wm):
                        heapq.heappush(waiting, item)
                        break
                    held[r.rid] = nb
                    pool_used += nb
                chunk.append((r, resident))
                tokens += resident
                if tokens >= max_prefill:
                    break
            price = prefill_price.get(tokens)
            if price is None:
                price = prefill_price[tokens] = pricer(tokens, 0)
            clock += price
            n_prefill += 1
            size = len(col_rid) + len(chunk)
            bs_counts[size] = bs_counts.get(size, 0) + 1
            bs_last = size
            for r, resident in chunk:
                log = logs[r.rid]
                if r.rid in preempted:
                    emitted = preempted.pop(r.rid)
                    log.recompute_tokens += resident
                    recompute += resident
                    log.preempt_stall_s += clock - evicted_at.pop(r.rid)
                    admit_entry(r, emitted, resident)
                    if recording:
                        ev(("admit", step_start, clock, r.rid, 0, resident))
                else:
                    log.queue_wait_s = step_start - r.arrival_s
                    log.first_token_s = clock
                    if recording:
                        ev(("admit", step_start, clock, r.rid, 1, resident))
                    if r.output_tokens <= 1:
                        log.finish_s = clock
                        if with_pool:
                            pool_used -= held.pop(r.rid)
                        if recording:
                            ev(("finish", clock, r.rid))
                    else:
                        admit_entry(r, 1, resident)
                admit_seq += 1
            if with_pool:
                occ = pool_used / cap
                occ_counts[occ] = occ_counts.get(occ, 0) + 1
                occ_last = occ
            if recording:
                # emitted after the admit loop so the trailing pool
                # level reflects this step's admissions and single-token
                # releases (consumers sort by ts; admits share t0)
                ev(("prefill", step_start, clock, len(chunk), tokens,
                    size, pool_used))
                if with_pool and wm_above != (pool_used > wm_lvl):
                    wm_above = not wm_above
                    ev(("watermark", clock, 1 if wm_above else 0,
                        pool_used))
        else:
            # ---- decode: macro-step to the next batch-composition event
            B = len(col_rid)
            d0 = n_decode
            if recording:
                t_macro = clock
            k = min(col_fin) - d0           # steps to the next finish
            ctx = sum_resb + B * d0         # resident KV priced at step 1
            arr_stop = free_slots > 0       # an arrival could prefill next
            wl = depth
            pending: list[Request] = []
            last_q = 1      # last step whose queue-depth sample is flushed
            # pricing state: form -1 forces a resolve on the first step;
            # forms 0/1/2 are decode_coeffs cells inlined below
            form, seg_end = -1, -1.0
            _f = _lt = _lc = _dn = _df = _n = _hi = _sl = _tc = 0.0
            s = 1
            free_now = cap - pool_used
            used = pool_used
            last_o = 0      # last step whose occupancy is flushed
            grow_phases: list[int] = []
            ph = (d0 + 1) % bt
            while True:
                # arrivals: at s == 1 the outer loop already drained
                # every arrival <= clock, so this stays False
                if next_arr_t <= clock:
                    c = s - 1 - last_q
                    if c:
                        qd_counts[wl] = qd_counts.get(wl, 0) + c
                        qd_last = wl
                    last_q = s - 1
                    while next_arr_t <= clock:
                        pending.append(order[next_arrival])
                        next_arrival += 1
                        wl += 1
                        next_arr_t = (arr_times[next_arrival]
                                      if next_arrival < n_order else inf)
                    if arr_stop:
                        executed = s - 1
                        break               # the gate could now admit
                g = cnt[ph]
                if g:
                    if g > free_now:
                        executed = s - 1
                        break               # pressure: slow path
                    c = s - 1 - last_o
                    if c:
                        occ = used / cap
                        occ_counts[occ] = occ_counts.get(occ, 0) + c
                        occ_last = occ
                    last_o = s - 1
                    free_now -= g
                    used += g
                    grow_phases.append(ph)
                    # upward watermark crossings happen only on growth,
                    # so this is the one recording check the tight loop
                    # carries (and only on the already-rare growth branch)
                    if recording and not wm_above and used > wm_lvl:
                        wm_above = True
                        ev(("watermark", clock, 1, used))
                if ctx > seg_end:
                    co = coeffs_of(B, ctx)
                    form = co[0]
                    if form == 1:
                        _, _lt, _lc, _dn, _df, _n, seg_end = co
                    elif form == 0:
                        _, _f, seg_end = co
                    else:
                        _, _hi, _sl, _tc, _n, seg_end = co
                if form == 1:
                    clock += (_lt + ((ctx - _lc) / _dn) * _df) * _n
                elif form == 0:
                    clock += _f
                else:
                    clock += (_hi + _sl * (ctx - _tc)) * _n
                if s == k:
                    executed = k
                    break
                ctx += B
                s += 1
                ph += 1
                if ph == bt:
                    ph = 0
            c = executed - last_q
            if c > 0:
                qd_counts[wl] = qd_counts.get(wl, 0) + c
                qd_last = wl
            for r in pending:
                heapq.heappush(waiting, (prio(r), r))
            if executed:
                n_decode = dend = d0 + executed
                bs_counts[B] = bs_counts.get(B, 0) + executed
                bs_last = B
                last_ctx = sum_resb + B * (dend - 1)
                if last_ctx > peak_resident:
                    peak_resident = last_ctx
                finishing = executed == k
                if with_pool:
                    # the run of non-growth steps since the last flush;
                    # the finishing step samples occupancy separately,
                    # *after* the releases (reference loop bottom)
                    c = (executed - 1 if finishing else executed) - last_o
                    if c > 0:
                        occ = used / cap
                        occ_counts[occ] = occ_counts.get(occ, 0) + c
                        occ_last = occ
                    pool_used = used
                    # materialise the growth the buckets accounted
                    for p in grow_phases:
                        for rid in pm[p]:
                            held[rid] += 1
                if finishing:
                    for i in range(B - 1, -1, -1):
                        if col_fin[i] == dend:
                            rid = col_rid[i]
                            logs[rid].finish_s = clock
                            if with_pool:
                                pool_used -= held.pop(rid)
                            drop_entry(i)
                            if recording:
                                ev(("finish", clock, rid))
                    if with_pool:
                        occ = pool_used / cap
                        occ_counts[occ] = occ_counts.get(occ, 0) + 1
                        occ_last = occ
                if recording:
                    # after the finishing releases: the macro-step's
                    # closing pool level (file order trails the finish
                    # events; consumers sort by ts)
                    ev(("decode", t_macro, clock, executed, B, pool_used))
                    if with_pool and wm_above != (pool_used > wm_lvl):
                        wm_above = not wm_above
                        ev(("watermark", clock, 1 if wm_above else 0,
                            pool_used))
            else:
                # pressure before the first step: one reference-shaped
                # step with the preemption loop, then re-plan
                slow_decode_step()

    if recording:
        recorder.meta["t0"] = order[0].arrival_s
        recorder.meta["t1"] = clock
        recorder.meta["makespan_s"] = clock - order[0].arrival_s
    result.makespan_s = clock - order[0].arrival_s
    result.n_prefill_steps = n_prefill
    result.n_decode_steps = n_decode
    result.n_preemptions = n_preempt
    result.recompute_tokens = recompute
    result.peak_resident_tokens = peak_resident
    result.queue_depth = StepStats._from_counts(qd_counts, qd_last)
    result.batch_size = StepStats._from_counts(bs_counts, bs_last)
    result.pool_occupancy = StepStats._from_counts(occ_counts, occ_last)
    return result
