"""Tests for the serving workload generators (repro.serve.workload)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ServeError
from repro.serve.workload import (
    SCENARIOS,
    Scenario,
    generate_requests,
    replay_trace,
)


def _gaps(reqs):
    times = [r.arrival_s for r in reqs]
    return [b - a for a, b in zip(times, times[1:])]


def test_presets_cover_the_three_named_scenarios():
    assert {"chat", "rag", "batch-summarize"} <= set(SCENARIOS)
    assert SCENARIOS["chat"].arrival == "poisson"
    assert SCENARIOS["rag"].arrival == "bursty"
    assert SCENARIOS["batch-summarize"].arrival == "waves"


def test_same_seed_is_byte_identical():
    for name in SCENARIOS:
        assert generate_requests(name, 200, seed=7) == \
            generate_requests(name, 200, seed=7)


def test_different_seed_differs():
    assert generate_requests("chat", 200, seed=0) != \
        generate_requests("chat", 200, seed=1)


def test_requests_are_well_formed():
    for name, sc in SCENARIOS.items():
        reqs = generate_requests(name, 500, seed=0)
        assert [r.rid for r in reqs] == list(range(500))
        arrivals = [r.arrival_s for r in reqs]
        assert arrivals == sorted(arrivals)
        for r in reqs:
            assert 1 <= r.prompt_tokens <= sc.prompt_max
            assert 1 <= r.output_tokens <= sc.output_max


def test_poisson_hits_the_offered_rate():
    reqs = generate_requests("chat", 4000, seed=0)
    rate = len(reqs) / reqs[-1].arrival_s
    assert rate == pytest.approx(SCENARIOS["chat"].rate_rps, rel=0.1)


def test_rate_override_scales_arrivals():
    slow = generate_requests("chat", 2000, seed=0, rate_rps=2.0)
    fast = generate_requests("chat", 2000, seed=0, rate_rps=8.0)
    assert slow[-1].arrival_s == pytest.approx(4 * fast[-1].arrival_s,
                                               rel=0.15)


def test_bursty_is_burstier_than_poisson():
    """Coefficient of variation of inter-arrival gaps: ~1 for Poisson,
    strictly larger for the on/off modulated process."""
    import statistics

    def cv(reqs):
        g = _gaps(reqs)
        return statistics.pstdev(g) / statistics.mean(g)

    bursty = generate_requests("rag", 3000, seed=0)
    poisson = generate_requests(
        Scenario("flat", arrival="poisson",
                 rate_rps=SCENARIOS["rag"].rate_rps), 3000, seed=0)
    assert cv(bursty) > cv(poisson) * 1.2


def test_bursty_keeps_the_average_rate():
    reqs = generate_requests("rag", 4000, seed=0)
    rate = len(reqs) / reqs[-1].arrival_s
    assert rate == pytest.approx(SCENARIOS["rag"].rate_rps, rel=0.25)


def test_waves_arrive_in_deterministic_batches():
    sc = SCENARIOS["batch-summarize"]
    reqs = generate_requests("batch-summarize", 3 * sc.wave_size, seed=0)
    for r in reqs:
        assert r.arrival_s % sc.wave_gap_s == 0.0
        assert r.arrival_s == (r.rid // sc.wave_size) * sc.wave_gap_s


def test_lognormal_lengths_center_on_the_mean():
    reqs = generate_requests("chat", 5000, seed=0)
    sc = SCENARIOS["chat"]
    mean_prompt = sum(r.prompt_tokens for r in reqs) / len(reqs)
    # the clamp shaves the right tail, so the sample mean sits at or a
    # bit below the distribution mean
    assert 0.7 * sc.prompt_mean <= mean_prompt <= 1.1 * sc.prompt_mean


def test_replay_trace_passthrough_and_sorting():
    reqs = replay_trace([3.0, 1.0, 2.0], [10, 20, 30], [1, 2, 3])
    assert [r.arrival_s for r in reqs] == [1.0, 2.0, 3.0]
    assert [r.prompt_tokens for r in reqs] == [20, 30, 10]


def test_replay_trace_rejects_bad_input():
    with pytest.raises(ServeError, match="trace columns disagree"):
        replay_trace([0.0, 1.0], [10], [1, 1])
    with pytest.raises(ServeError, match="must be >= 1"):
        replay_trace([0.0], [0], [1])
    # a NaN arrival hung serve(), an infinite one crashed it
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ServeError, match="request 1: arrival_s"):
            replay_trace([0.0, bad, 1.0], [100] * 3, [10] * 3)


def test_unknown_scenario_and_bad_params_raise():
    with pytest.raises(ServeError, match="unknown scenario"):
        generate_requests("tweets", 10)
    with pytest.raises(ServeError, match="unknown arrival"):
        generate_requests(Scenario("x", arrival="fractal"), 10)
    with pytest.raises(ServeError, match="must be positive"):
        generate_requests("chat", 0)
    with pytest.raises(ServeError, match="rate_rps"):
        generate_requests("chat", 10, rate_rps=0.0)
    with pytest.raises(ServeError, match="rate_rps"):
        generate_requests("rag", 10, rate_rps=-1.0)
    # each field an arrival process or a length distribution reads
    for arrival, field, value in (
            ("waves", "wave_size", 0), ("bursty", "burst_cycle_s", 0.0),
            ("bursty", "burst_factor", float("inf")),
            ("waves", "wave_gap_s", float("nan")),
            ("poisson", "prompt_mean", 0), ("poisson", "output_mean", -1),
            ("poisson", "prompt_sigma", float("inf"))):
        sc = replace(Scenario("x", arrival=arrival), **{field: value})
        with pytest.raises(ServeError, match=f"'x': {field} must be"):
            generate_requests(sc, 10)
