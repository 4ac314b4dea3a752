"""``repro.serve`` — request-level serving simulator.

The paper evaluates TileLink one forward pass at a time; this subsystem
expresses the overlapped kernels' wins as the numbers a *deployment*
cares about — throughput, TTFT/TPOT tails and SLO attainment under heavy
traffic.  Four stages, one module each:

* :mod:`repro.serve.workload` — seeded request generators
  (Poisson / bursty / wave arrivals, log-normal prompt/output lengths,
  named scenario presets ``chat`` / ``rag`` / ``batch-summarize`` /
  ``long-context``, and trace replay);
* :mod:`repro.serve.latency` — :class:`StepLatencyTable`, a memoised
  grid of :func:`repro.models.runner.layer_time` simulations per
  (model, method, token-bucket, context-bucket) that the serving loop
  interpolates bilinearly, so millions of requests simulate in seconds
  on one CPU and decode is priced by resident KV context;
* :mod:`repro.serve.blockpool` / :mod:`repro.serve.kv` — the paged
  KV-cache block pool and the per-model :class:`KVCacheManager` wrapping
  it (footprint sizing, watermark admission, pluggable victim policies);
* :mod:`repro.serve.scheduler` — deterministic continuous batching with
  separate prefill/decode phases, ``max_batch`` / ``max_prefill_tokens``
  admission, pluggable queue policies (FCFS, shortest-prompt-first) and,
  given a :class:`KVCacheConfig`, memory-aware admission with
  preemption-by-recompute under pool pressure;
* :mod:`repro.serve.engine` — the event-driven core ``serve()`` runs:
  struct-of-arrays batch state and decode macro-stepping between
  batch-composition events, bit-identical to the per-step reference loop
  the tests keep as an oracle at ~10x its throughput, with per-step
  samples folded into :class:`StepStats` streaming accumulators;
* :mod:`repro.serve.metrics` — throughput, p50/p99 TTFT and TPOT,
  queue depth/wait, preemption and pool-occupancy statistics and SLO
  attainment, with strict-JSON report rows.

One-call flow::

    from repro.serve import (StepLatencyTable, ServerConfig,
                             generate_requests, serve, summarize)
    reqs = generate_requests("chat", 1000, seed=0)
    table = StepLatencyTable(path)          # or resolve_latency_table()
    table.ensure(model, "tilelink")         # warm hit when shipped
    res = serve(reqs, model, "tilelink", table, ServerConfig())
    report = summarize(res, "chat", "tilelink")

The ``method`` axis (``torch`` / ``tilelink`` / ``tilelink-tuned``)
turns the serving curves into the repo's traffic-level
TileLink-vs-baseline comparison — see ``benchmarks/bench_serving.py``.
"""

from repro.serve.blockpool import BlockPool
from repro.serve.kv import (
    ADMISSIONS,
    KVCacheConfig,
    KVCacheManager,
    KVFootprint,
    VICTIM_POLICIES,
)
from repro.serve.latency import (
    DEFAULT_BUCKETS,
    DEFAULT_CTX_BUCKETS,
    ENV_LATENCY_TABLE,
    StepLatencyTable,
    StepPricer,
    entry_key,
    latency_table_path,
    model_key,
    resolve_latency_table,
)
from repro.serve.metrics import (
    ServingReport,
    SloSpec,
    format_reports,
    percentile,
    summarize,
)
from repro.serve.samples import StepStats
from repro.serve.scheduler import (
    POLICIES,
    RequestLog,
    ServeResult,
    ServerConfig,
    serve,
)
from repro.serve.workload import (
    SCENARIOS,
    Request,
    Scenario,
    generate_requests,
    replay_trace,
)

__all__ = [
    "ADMISSIONS", "BlockPool", "DEFAULT_BUCKETS", "DEFAULT_CTX_BUCKETS",
    "ENV_LATENCY_TABLE", "KVCacheConfig", "KVCacheManager", "KVFootprint",
    "POLICIES", "Request", "RequestLog", "SCENARIOS", "Scenario",
    "ServeResult", "ServerConfig", "ServingReport", "SloSpec",
    "StepLatencyTable", "StepPricer", "StepStats", "VICTIM_POLICIES",
    "entry_key", "format_reports", "generate_requests",
    "latency_table_path", "model_key", "percentile", "replay_trace",
    "resolve_latency_table", "serve", "summarize",
]
