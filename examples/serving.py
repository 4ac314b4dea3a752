"""Serving walkthrough: overlapped kernels under heavy traffic.

The paper's figures compare single forward passes; this example composes
the same layers into a continuous-batching inference server
(``repro.serve``) and shows what the overlap buys a *deployment*:

1. price the serving steps once via the shipped step-latency table
   (``benchmarks/latency_table.json`` — zero simulation when warm);
2. serve one hour of seeded chat traffic on Mixtral-8x7B under all
   three methods and compare throughput / TTFT / SLO attainment;
3. sweep the offered load to find each method's saturation knee;
4. compare admission policies (FCFS vs shortest-prompt-first) on the
   long-prompt RAG scenario;
5. squeeze a long-context workload into a finite paged KV pool and
   watch naive admission thrash on preemption/recompute while kv-aware
   admission degrades gracefully.

Every ``serve()`` call below runs the event-driven macro-stepping core
(``repro.serve.engine``): decode steps between batch-composition events
are priced in one vectorized run, so fleet-scale what-ifs — a million
requests, hundreds of configs — finish in seconds while staying
bit-identical to the auditable per-step loop the test suite keeps as
its oracle (``tests/oracle_serve.py``).  ``method`` accepts any
registry-contributed serving method (e.g. ``"tilelink-chunk"``) in
addition to the three compared here.

Run:  python examples/serving.py
"""

from __future__ import annotations

from repro.models.configs import E2E_MODELS
from repro.serve import (
    KVCacheConfig,
    ServerConfig,
    SloSpec,
    StepLatencyTable,
    format_reports,
    generate_requests,
    resolve_latency_table,
    serve,
    summarize,
)

WORLD = 8
METHODS = ("torch", "tilelink", "tilelink-tuned")
MODELS = {m.name: m for m in E2E_MODELS}


def load_table() -> StepLatencyTable:
    table = resolve_latency_table() or StepLatencyTable(readonly=True)
    for name in ("Mixtral-8x7B", "LLaMA2-7B"):
        for method in METHODS:
            # warm hits when the shipped table is present; otherwise this
            # builds the ladder in memory (~10s per model on 1 CPU)
            table.ensure(MODELS[name], method, world=WORLD)
    return table


def act1_chat(table: StepLatencyTable) -> None:
    model = MODELS["Mixtral-8x7B"]
    reqs = generate_requests("chat", 2000, seed=0)
    reports = [summarize(serve(reqs, model, m, table, ServerConfig()),
                         "chat", m) for m in METHODS]
    print(format_reports(reports, "Act 1 — chat on Mixtral-8x7B, 8xH800"))
    print("\nThe same offered load (8 req/s): the Torch baseline "
          "saturates — its queue grows without bound and TTFT explodes — "
          "while the overlapped kernels serve every request within SLO.\n")


def act2_saturation(table: StepLatencyTable) -> None:
    model = MODELS["Mixtral-8x7B"]
    print("Act 2 — saturation sweep (chat, SLO: TTFT<=0.5s, TPOT<=25ms)")
    print(f"{'rate':>6} | " + " | ".join(f"{m:>20}" for m in METHODS))
    for rate in (2.0, 4.0, 6.0, 8.0, 12.0):
        cells = []
        for method in METHODS:
            reqs = generate_requests("chat", 600, seed=0, rate_rps=rate)
            rep = summarize(serve(reqs, model, method, table,
                                  ServerConfig()), "chat", method,
                            slo=SloSpec())
            cells.append(f"{rep.throughput_rps:6.2f} rps {100 * rep.slo_attainment:5.1f}%")
        print(f"{rate:6.1f} | " + " | ".join(f"{c:>20}" for c in cells))
    print("\nEach method tracks the offered rate until its knee — the "
          "overlapped kernels push the knee ~2.5x further right, and the "
          "Torch baseline's decode steps alone already blow the "
          "interactive TPOT target at any load.\n")


def act3_policies(table: StepLatencyTable) -> None:
    model = MODELS["LLaMA2-7B"]
    # crank the offered rate past the preset: with no queue contention
    # the admission policies are indistinguishable
    reqs = generate_requests("rag", 1000, seed=0, rate_rps=16.0)
    reports = []
    for policy in ("fcfs", "spf"):
        rep = summarize(
            serve(reqs, model, "tilelink", table,
                  ServerConfig(policy=policy)), "rag", "tilelink",
            policy=policy)
        reports.append(rep)
    print(format_reports(reports, "Act 3 — RAG admission policy "
                                  "(TileLink kernels)"))
    print("\nShortest-prompt-first lets cheap prompts jump the bursty "
          "long-prompt queue: the median TTFT drops while the longest "
          "prompts pay the tail.\n")


def act4_memory_pressure(table: StepLatencyTable) -> None:
    model = MODELS["LLaMA2-7B"]
    reqs = generate_requests("long-context", 200, seed=0, rate_rps=1.0)
    server = ServerConfig(max_batch=32, max_prefill_tokens=16384)
    reports = []
    for admission, victim in (("kv-aware", "last-admitted"),
                              ("naive", "longest-context")):
        kv = KVCacheConfig(block_tokens=64, pool_blocks=512,
                           admission=admission, victim=victim)
        res = serve(reqs, model, "tilelink", table, server, kv=kv)
        rep = summarize(res, "long-context", "tilelink", policy=admission)
        reports.append(rep)
        print(f"  {admission:>8}: {res.n_preemptions} preemptions, "
              f"{res.recompute_tokens} recomputed tokens, "
              f"peak resident {res.peak_resident_tokens} tokens")
    print(format_reports(reports, "Act 4 — long-context in a 32k-token "
                                  "KV pool (TileLink kernels)"))
    print("\nThe pool holds ~5 resident contexts where the batch limit "
          "wants 32.  Naive admission pretends memory is free: every "
          "fresh prompt evicts a running request, whose whole context "
          "must later re-prefill — megatokens of pure recompute, "
          "preemption stalls that blow the decode tail, and a queue "
          "that snowballs the tail TTFT.  KV-aware admission holds "
          "back a watermark of free blocks and simply runs a smaller "
          "batch: same requests, zero preemptions, graceful "
          "degradation.\n")


def main() -> None:
    table = load_table()
    act1_chat(table)
    act2_saturation(table)
    act3_policies(table)
    act4_memory_pressure(table)


if __name__ == "__main__":
    main()
