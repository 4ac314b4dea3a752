"""Seeded request workloads for the serving simulator.

A workload is a list of :class:`Request` objects — arrival time plus
per-request prompt/output token counts — produced by a named
:class:`Scenario`.  Three arrival processes are supported:

* ``"poisson"`` — memoryless arrivals at ``rate_rps`` (steady
  interactive traffic);
* ``"bursty"`` — an on/off modulated Poisson process: each
  ``burst_cycle_s`` cycle spends ``burst_duty`` of its length at
  ``burst_factor`` times the base rate and the remainder at a
  compensating low rate, so the *average* rate stays ``rate_rps`` while
  the queue sees waves (retrieval frontends, cron-fed traffic);
* ``"waves"`` — deterministic batch drops: requests arrive
  ``wave_size`` at a time every ``wave_gap_s`` seconds (offline/batch
  jobs submitted in chunks).

Recorded production traces replay through :func:`replay_trace`, which
bypasses generation entirely.

Token counts draw from clamped log-normals (heavy right tail, like real
prompt/response length distributions).  Everything is driven by one
``random.Random(seed)`` — the same (scenario, n, seed) triple always
yields byte-identical workloads, which is what makes the serving
benchmarks reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.errors import ServeError

__all__ = ["Request", "Scenario", "SCENARIOS", "check_requests",
           "generate_requests", "replay_trace"]


@dataclass(frozen=True)
class Request:
    """One inference request: arrive, prefill the prompt, decode tokens."""

    rid: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int


@dataclass(frozen=True)
class Scenario:
    """A named traffic shape (arrival process + length distributions)."""

    name: str
    arrival: str = "poisson"        # poisson | bursty | waves
    rate_rps: float = 8.0           # average arrival rate
    #: prompt/output length log-normals: ``mean`` is the distribution
    #: mean, ``sigma`` the log-space spread, ``max`` the clamp.
    prompt_mean: int = 256
    prompt_sigma: float = 0.6
    prompt_max: int = 4096
    output_mean: int = 128
    output_sigma: float = 0.5
    output_max: int = 1024
    # bursty-arrival knobs; the cycle average stays ``rate_rps`` as long
    # as ``burst_factor * burst_duty <= 1`` (beyond that the off phase
    # cannot compensate and the floor lifts the average)
    burst_factor: float = 3.0
    burst_cycle_s: float = 20.0
    burst_duty: float = 0.25
    # wave-arrival knobs
    wave_size: int = 64
    wave_gap_s: float = 30.0


#: Named presets: interactive chat, retrieval-augmented generation (long
#: bursty prompts, short answers), offline batch summarization (very
#: long prompts submitted in waves) and long-context analysis (steady
#: arrivals of very heavy prompts with modest outputs — the KV-pressure
#: workload the KV-aware scheduler is benchmarked under).
SCENARIOS: dict[str, Scenario] = {
    "chat": Scenario("chat", arrival="poisson", rate_rps=8.0,
                     prompt_mean=256, prompt_sigma=0.6, prompt_max=2048,
                     output_mean=128, output_sigma=0.5, output_max=512),
    "rag": Scenario("rag", arrival="bursty", rate_rps=4.0, burst_factor=3.0,
                    prompt_mean=2048, prompt_sigma=0.4, prompt_max=6144,
                    output_mean=96, output_sigma=0.5, output_max=384),
    "batch-summarize": Scenario("batch-summarize", arrival="waves",
                                rate_rps=4.0, wave_size=64, wave_gap_s=30.0,
                                prompt_mean=4096, prompt_sigma=0.3,
                                prompt_max=7680, output_mean=64,
                                output_sigma=0.4, output_max=256),
    "long-context": Scenario("long-context", arrival="poisson",
                             rate_rps=2.0, prompt_mean=6144,
                             prompt_sigma=0.5, prompt_max=16384,
                             output_mean=192, output_sigma=0.4,
                             output_max=512),
}


def _lognormal_tokens(rng: random.Random, mean: int, sigma: float,
                      max_tokens: int) -> int:
    """Integer token count from a log-normal with the given *mean*."""
    mu = math.log(mean) - sigma * sigma / 2.0
    return max(1, min(max_tokens, int(round(rng.lognormvariate(mu, sigma)))))


def _poisson_arrivals(rng: random.Random, n: int, rate: float) -> list[float]:
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def _bursty_arrivals(rng: random.Random, n: int, sc: Scenario,
                     rate: float) -> list[float]:
    """On/off modulated Poisson with cycle-average rate ``rate``."""
    on_rate = rate * sc.burst_factor
    # the off-phase rate that keeps the cycle average at ``rate`` (floored
    # so extreme duty/factor combinations stay a valid process)
    off_rate = max(rate * 0.02,
                   rate * (1.0 - sc.burst_factor * sc.burst_duty)
                   / max(1e-9, 1.0 - sc.burst_duty))
    on_len = sc.burst_cycle_s * sc.burst_duty
    t, out = 0.0, []
    while len(out) < n:
        phase = t % sc.burst_cycle_s
        in_burst = phase < on_len
        r = on_rate if in_burst else off_rate
        gap = rng.expovariate(r)
        # a gap that crosses the phase boundary is resampled from the
        # boundary at the new rate (thinning keeps the process honest)
        boundary = (on_len - phase) if in_burst else \
            (sc.burst_cycle_s - phase)
        if gap > boundary:
            t += boundary
            continue
        t += gap
        out.append(t)
    return out


def _wave_arrivals(n: int, sc: Scenario) -> list[float]:
    return [(i // sc.wave_size) * sc.wave_gap_s for i in range(n)]


#: the fields each arrival process reads, beyond the length distributions
_ARRIVAL_FIELDS = {"poisson": ("rate_rps",),
                   "bursty": ("rate_rps", "burst_factor", "burst_cycle_s",
                              "burst_duty"),
                   "waves": ("wave_size", "wave_gap_s")}
#: the fields that may be zero (a flat burst, one wave, exact lengths)
_MAY_BE_ZERO = ("burst_duty", "wave_gap_s", "prompt_sigma", "output_sigma")


def _check_fields(sc: Scenario) -> None:
    """Refuse a field ``sc``'s processes read that is not finite, or is
    negative (zero too, where only a positive value makes sense)."""
    if sc.arrival not in _ARRIVAL_FIELDS:
        raise ServeError(f"unknown arrival process {sc.arrival!r}")
    for name in _ARRIVAL_FIELDS[sc.arrival] + (
            "prompt_mean", "prompt_sigma", "output_mean", "output_sigma"):
        value = getattr(sc, name)
        floor_ok = value >= 0 if name in _MAY_BE_ZERO else value > 0
        if not (math.isfinite(value) and floor_ok):
            kind = "non-negative" if name in _MAY_BE_ZERO else "positive"
            raise ServeError(f"scenario {sc.name!r}: {name} must be finite "
                             f"and {kind}, got {value!r}")


def generate_requests(scenario: str | Scenario, n_requests: int,
                      seed: int = 0,
                      rate_rps: float | None = None) -> list[Request]:
    """``n_requests`` seeded requests following ``scenario``.

    ``scenario`` is a preset name from :data:`SCENARIOS` or a custom
    :class:`Scenario`; ``rate_rps`` overrides the preset's average rate
    (the knob a saturation sweep turns).
    """
    if isinstance(scenario, str):
        try:
            scenario = SCENARIOS[scenario]
        except KeyError:
            raise ServeError(
                f"unknown scenario {scenario!r}; presets: "
                f"{sorted(SCENARIOS)}") from None
    if rate_rps is not None:
        scenario = replace(scenario, rate_rps=float(rate_rps))
    if n_requests <= 0:
        raise ServeError(f"n_requests must be positive, got {n_requests}")
    _check_fields(scenario)
    rng = random.Random(seed)
    if scenario.arrival == "poisson":
        arrivals = _poisson_arrivals(rng, n_requests, scenario.rate_rps)
    elif scenario.arrival == "bursty":
        arrivals = _bursty_arrivals(rng, n_requests, scenario,
                                    scenario.rate_rps)
    else:
        arrivals = _wave_arrivals(n_requests, scenario)
    return [Request(rid=i, arrival_s=arrivals[i],
                    prompt_tokens=_lognormal_tokens(
                        rng, scenario.prompt_mean, scenario.prompt_sigma,
                        scenario.prompt_max),
                    output_tokens=_lognormal_tokens(
                        rng, scenario.output_mean, scenario.output_sigma,
                        scenario.output_max))
            for i in range(n_requests)]


def replay_trace(arrival_s: Sequence[float], prompt_tokens: Sequence[int],
                 output_tokens: Sequence[int]) -> list[Request]:
    """Requests replaying a recorded trace (parallel per-request lists)."""
    if not (len(arrival_s) == len(prompt_tokens) == len(output_tokens)):
        raise ServeError(
            f"trace columns disagree: {len(arrival_s)} arrivals, "
            f"{len(prompt_tokens)} prompts, {len(output_tokens)} outputs")
    reqs = [Request(rid=i, arrival_s=float(t), prompt_tokens=int(p),
                    output_tokens=int(o))
            for i, (t, p, o) in enumerate(
                zip(arrival_s, prompt_tokens, output_tokens))]
    check_requests(reqs)
    return sorted(reqs, key=lambda r: (r.arrival_s, r.rid))


def check_requests(requests: Iterable[Request]) -> None:
    """Raise :class:`ServeError` naming the first request the engine
    cannot serve: a non-finite arrival or a token count below 1."""
    for r in requests:
        if not math.isfinite(r.arrival_s):
            raise ServeError(f"request {r.rid}: arrival_s must be finite, "
                             f"got {r.arrival_s!r}")
        if r.prompt_tokens < 1 or r.output_tokens < 1:
            raise ServeError(f"request {r.rid}: token counts must be >= 1")
