"""Continuous-batching request scheduler (the serving engine loop).

Models the iteration-level scheduler of a modern inference server
(vLLM/Orca style) as a deterministic discrete-time loop over *steps*:

* **prefill step** — admit waiting requests (up to the free batch slots
  and the ``max_prefill_tokens`` token budget) and process their prompts
  together; each admitted request emits its first token at the end of
  the step (that marks its TTFT);
* **decode step** — every running request emits one token; requests
  leave the batch as they reach their output length.

Prefill has priority whenever batch slots and waiting work exist —
keeping time-to-first-token low under load — and decode drains the
running batch otherwise, exactly the two-phase structure the paper's
overlapped kernels accelerate (prefill steps are the big overlappable
GEMMs; decode steps ride the fixed-overhead floor).

Admission order is pluggable: ``"fcfs"`` serves in arrival order,
``"spf"`` (shortest-prompt-first) lets cheap prompts jump the queue,
trading tail fairness for median TTFT.  Step durations come from a
:class:`~repro.serve.latency.StepLatencyTable`; decode steps are priced
with the batch's total resident KV tokens through the table's context
axis, so long-context decode is no longer free.

Passing a :class:`~repro.serve.kv.KVCacheConfig` as ``kv`` adds the
memory story: requests allocate paged KV blocks on admission, grow them
during decode, free them on finish — and when the pool fills, the
engine *preempts*: a victim (``kv.victim`` policy) loses its blocks and
re-enters the waiting queue, and on re-admission its whole resident
context re-prefills (eviction-and-recompute).  ``kv.admission`` selects
whether admission keeps watermark headroom for decode growth
(``"kv-aware"``) or pretends memory is free (``"naive"`` — fresh
prompts evict running requests to make room, so under pressure the
engine thrashes on recompute storms; evicted requests re-admit only
into genuinely free blocks, which bounds the thrash).  With ``kv=None``
(or a pool that never fills) the loop is exactly the memory-oblivious
engine.  The loop is purely deterministic — (workload, table, knobs)
fixes every output bit.

This module defines the serving data model (configs, logs, results) and
:func:`serve`, which delegates to the event-driven macro-step engine in
:mod:`repro.serve.engine`.  The original per-step loop, the executable
spec of these semantics, lives with the tests (``tests/oracle_serve.py``)
as the oracle the equivalence suite (``tests/test_serve_engine.py``)
pins the engine to bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.config import H800, HardwareSpec
from repro.errors import ServeError
from repro.models.configs import ModelConfig
from repro.serve.kv import KVCacheConfig
from repro.serve.latency import StepLatencyTable
from repro.serve.samples import StepStats
from repro.serve.workload import Request, check_requests

__all__ = ["ServerConfig", "RequestLog", "ServeResult", "serve"]

#: admission policies: waiting-queue priority key per request
POLICIES: dict[str, Callable[[Request], tuple]] = {
    "fcfs": lambda r: (r.arrival_s, r.rid),
    "spf": lambda r: (r.prompt_tokens, r.arrival_s, r.rid),
}


@dataclass(frozen=True)
class ServerConfig:
    """Engine knobs: batch/token admission limits and queue policy."""

    max_batch: int = 32             # concurrent requests in the batch
    max_prefill_tokens: int = 8192  # prompt-token budget per prefill step
    policy: str = "fcfs"            # fcfs | spf

    def validate(self) -> None:
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_prefill_tokens < 1:
            raise ServeError(f"max_prefill_tokens must be >= 1, got "
                             f"{self.max_prefill_tokens}")
        if self.policy not in POLICIES:
            raise ServeError(f"unknown policy {self.policy!r}; expected one "
                             f"of {sorted(POLICIES)}")


@dataclass
class RequestLog:
    """Per-request lifecycle timestamps (simulated seconds)."""

    request: Request
    first_token_s: float | None = None
    finish_s: float | None = None
    #: arrival -> start of the first prefill step that admitted it
    queue_wait_s: float = 0.0
    #: times this request was evicted from the pool
    n_preemptions: int = 0
    #: total eviction -> back-in-the-batch time across preemptions
    preempt_stall_s: float = 0.0
    #: resident tokens re-prefilled after evictions (pure redundant work)
    recompute_tokens: int = 0

    @property
    def ttft_s(self) -> float:
        """Time to first token (queueing + prefill)."""
        if self.first_token_s is None:
            raise ServeError(
                f"request {self.request.rid} has no first token yet; "
                f"ttft_s is defined only after a prefill step admitted it")
        return self.first_token_s - self.request.arrival_s

    @property
    def tpot_s(self) -> float | None:
        """Time per output token over the decode phase; ``None`` for
        single-token requests (they never decode)."""
        if self.request.output_tokens <= 1:
            return None
        return ((self.finish_s - self.first_token_s)
                / (self.request.output_tokens - 1))


@dataclass
class ServeResult:
    """Everything one :func:`serve` run produced."""

    logs: list[RequestLog]
    makespan_s: float               # first arrival -> last completion
    n_prefill_steps: int = 0
    n_decode_steps: int = 0
    #: waiting-queue depth sampled once per engine step (streaming
    #: value-count accumulator — O(distinct) memory on million-step runs)
    queue_depth: StepStats = field(default_factory=StepStats)
    #: running-batch size sampled once per engine step
    batch_size: StepStats = field(default_factory=StepStats)
    #: KV-pool capacity in blocks (0 == no pool configured)
    pool_blocks: int = 0
    #: pool occupancy in [0, 1] sampled once per engine step (KV runs)
    pool_occupancy: StepStats = field(default_factory=StepStats)
    #: total evictions across the run
    n_preemptions: int = 0
    #: total re-prefilled resident tokens across the run
    recompute_tokens: int = 0
    #: largest total resident KV (tokens) the batch ever held
    peak_resident_tokens: int = 0


def serve(requests: Sequence[Request], model: ModelConfig, method: str,
          table: StepLatencyTable, server: ServerConfig | None = None,
          world: int = 8, spec: HardwareSpec = H800,
          seed: int = 0, kv: KVCacheConfig | None = None,
          recorder=None) -> ServeResult:
    """Run the continuous-batching loop over ``requests``.

    ``method`` selects whose kernels price each step — a serving row of
    the implementation table (:func:`repro.registry.serve_method_names`:
    ``"torch"`` / ``"tilelink"`` / ``"tilelink-tuned"`` plus any a kernel
    family adds, e.g. ``"tilelink-chunk"``) — through ``table``'s
    memoised step latencies, so the run itself never simulates.  Any
    method with a table entry works: the entry is built by
    ``StepLatencyTable.ensure`` and the run only interpolates.
    ``kv`` enables the paged KV-cache pool (admission gating +
    preemption); ``None`` serves with infinite memory.

    This is a thin wrapper over :func:`repro.serve.engine.serve_events`,
    which macro-steps decode between batch-composition events; its
    results are bit-identical on every field to the per-step reference
    loop the tests keep as an oracle.

    ``recorder`` (a :class:`repro.obs.Recorder`; default ``None`` =
    off) captures the request-lifecycle event log for the
    observability layer without perturbing the run — see
    :func:`serve_events` for the contract.

    A request with a non-finite arrival or a token count below 1 raises
    :class:`~repro.errors.ServeError` before the engine runs.
    """
    from repro.serve.engine import serve_events

    check_requests(requests)

    return serve_events(requests, model, method, table, server=server,
                        world=world, spec=spec, seed=seed, kv=kv,
                        recorder=recorder)
