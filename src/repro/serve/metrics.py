"""Serving metrics: the numbers a deployment is judged by.

Collapses one :class:`~repro.serve.scheduler.ServeResult` into a
:class:`ServingReport` — request/token throughput, p50/p99 TTFT
(time-to-first-token: queueing + prefill) and TPOT (time-per-output-token
over the decode phase), queue-depth statistics, and SLO attainment (the
fraction of requests meeting both a TTFT and a TPOT target — the "equal
SLO" axis the TileLink-vs-baseline serving comparison is made at).

KV-aware runs add the memory story: per-request queue-wait and
preemption-stall percentiles, eviction and recompute-token totals, and
pool-occupancy statistics (``None`` on both occupancy fields exactly
when the run had no pool — the same null-together discipline as TPOT).

Per-step series (queue depth, batch size, pool occupancy) arrive as
:class:`~repro.serve.samples.StepStats` streaming accumulators rather
than per-step lists; their ``percentile``/``max`` reproduce the list
forms bit-for-bit, so every JSON summary field is unchanged.

All percentiles use one deterministic linear interpolation,
:func:`~repro.serve.samples.interpolate_percentile` (no numpy, no
randomness), and :meth:`ServingReport.row` emits strict-JSON-safe rows
(``None``, never ``NaN``) for ``validate_bench_json.py --schema
serving``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ServeError
from repro.serve.samples import interpolate_percentile
from repro.serve.scheduler import ServeResult
from repro.util.tables import format_table

__all__ = ["SloSpec", "ServingReport", "percentile", "summarize",
           "format_reports"]


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0..100) with linear interpolation, deterministic."""
    if not values:
        raise ServeError("percentile of an empty sequence")
    return interpolate_percentile(len(values), q, sorted(values).__getitem__)


@dataclass(frozen=True)
class SloSpec:
    """Per-request service-level objective.

    Defaults sized for the simulated H800 node: an interactive user
    notices TTFT above ~half a second and a stream slower than ~40
    tokens/s."""

    ttft_s: float = 0.5
    tpot_s: float = 0.025

    def met_by(self, ttft_s: float, tpot_s: float | None) -> bool:
        if ttft_s > self.ttft_s:
            return False
        # single-token requests have no decode phase: TTFT alone decides
        return tpot_s is None or tpot_s <= self.tpot_s


@dataclass(frozen=True)
class ServingReport:
    """One (scenario, method, policy) serving run, summarized."""

    scenario: str
    method: str
    policy: str
    n_requests: int
    makespan_s: float
    throughput_rps: float
    output_tok_per_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    tpot_p50_s: float | None        # None when no request ever decoded
    tpot_p99_s: float | None
    queue_depth_p50: float
    queue_depth_max: int
    slo_attainment: float           # fraction of requests meeting the SLO
    queue_wait_p50_s: float = 0.0   # arrival -> first admission
    queue_wait_p99_s: float = 0.0
    preempt_stall_p99_s: float = 0.0    # eviction -> back in the batch
    n_preemptions: int = 0
    recompute_tokens: int = 0
    #: pool stats; None on both exactly when the run had no KV pool
    pool_occupancy_p50: float | None = None
    pool_occupancy_max: float | None = None

    def row(self) -> dict:
        """Strict-JSON row (``validate_bench_json.py --schema serving``)."""
        return {
            "scenario": self.scenario, "method": self.method,
            "policy": self.policy, "n_requests": self.n_requests,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "output_tok_per_s": self.output_tok_per_s,
            "ttft_p50_s": self.ttft_p50_s, "ttft_p99_s": self.ttft_p99_s,
            "tpot_p50_s": self.tpot_p50_s, "tpot_p99_s": self.tpot_p99_s,
            "queue_depth_p50": self.queue_depth_p50,
            "queue_depth_max": self.queue_depth_max,
            "slo_attainment": self.slo_attainment,
            "queue_wait_p50_s": self.queue_wait_p50_s,
            "queue_wait_p99_s": self.queue_wait_p99_s,
            "preempt_stall_p99_s": self.preempt_stall_p99_s,
            "n_preemptions": self.n_preemptions,
            "recompute_tokens": self.recompute_tokens,
            "pool_occupancy_p50": self.pool_occupancy_p50,
            "pool_occupancy_max": self.pool_occupancy_max,
        }


def summarize(result: ServeResult, scenario: str, method: str,
              policy: str = "fcfs", slo: SloSpec | None = None
              ) -> ServingReport:
    """Collapse a :class:`ServeResult` into a :class:`ServingReport`."""
    slo = slo or SloSpec()
    logs = result.logs
    unfinished = [log.request.rid for log in logs if log.finish_s is None]
    if unfinished:
        raise ServeError(f"serve() left {len(unfinished)} requests "
                         f"unfinished (first: {unfinished[:3]})")
    ttfts = [log.ttft_s for log in logs]
    tpots = [log.tpot_s for log in logs if log.tpot_s is not None]
    waits = [log.queue_wait_s for log in logs]
    stalls = [log.preempt_stall_s for log in logs]
    makespan = result.makespan_s
    total_out = sum(log.request.output_tokens for log in logs)
    met = sum(slo.met_by(log.ttft_s, log.tpot_s) for log in logs)
    occ = result.pool_occupancy if result.pool_blocks > 0 else None
    return ServingReport(
        scenario=scenario, method=method, policy=policy,
        n_requests=len(logs), makespan_s=makespan,
        throughput_rps=len(logs) / makespan,
        output_tok_per_s=total_out / makespan,
        ttft_p50_s=percentile(ttfts, 50), ttft_p99_s=percentile(ttfts, 99),
        tpot_p50_s=percentile(tpots, 50) if tpots else None,
        tpot_p99_s=percentile(tpots, 99) if tpots else None,
        queue_depth_p50=(result.queue_depth.percentile(50)
                         if result.queue_depth else 0.0),
        queue_depth_max=(result.queue_depth.max
                         if result.queue_depth else 0),
        slo_attainment=met / len(logs),
        queue_wait_p50_s=percentile(waits, 50),
        queue_wait_p99_s=percentile(waits, 99),
        preempt_stall_p99_s=percentile(stalls, 99),
        n_preemptions=result.n_preemptions,
        recompute_tokens=result.recompute_tokens,
        pool_occupancy_p50=(occ.percentile(50) if occ else None),
        pool_occupancy_max=(occ.max if occ else None),
    )


def format_reports(reports: Sequence[ServingReport], title: str) -> str:
    """Paper-style table: one row per (scenario, method, policy)."""
    headers = ["scenario", "method", "policy", "req/s", "tok/s",
               "TTFT p50 (ms)", "TTFT p99 (ms)", "TPOT p50 (ms)",
               "TPOT p99 (ms)", "wait p99 (s)", "preempt", "pool max",
               "SLO %"]
    rows = []
    for r in reports:
        rows.append([
            r.scenario, r.method, r.policy, f"{r.throughput_rps:.2f}",
            f"{r.output_tok_per_s:.0f}",
            f"{r.ttft_p50_s * 1e3:.1f}", f"{r.ttft_p99_s * 1e3:.1f}",
            "-" if r.tpot_p50_s is None else f"{r.tpot_p50_s * 1e3:.2f}",
            "-" if r.tpot_p99_s is None else f"{r.tpot_p99_s * 1e3:.2f}",
            f"{r.queue_wait_p99_s:.2f}", r.n_preemptions,
            ("-" if r.pool_occupancy_max is None
             else f"{r.pool_occupancy_max * 100:.0f}%"),
            f"{r.slo_attainment * 100:.1f}",
        ])
    return format_table(headers, rows, title=title)
