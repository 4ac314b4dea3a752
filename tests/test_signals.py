"""Tests for signal cells: acquire/release barrier semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimConfig
from repro.errors import DeadlockError, SimulationError
from repro.memory.signals import SignalArray
from repro.sim.costmodel import CostModel
from repro.sim.engine import Simulator, Timeout


def make_bank(n=4, rank=0):
    sim = Simulator()
    cost = CostModel(SimConfig(world_size=2).spec)
    return sim, SignalArray(sim, cost, rank, n)


def test_post_applies_after_latency():
    sim, bank = make_bank()
    bank.post_add(0, 1, from_rank=0)
    assert bank.read(0) == 0          # not yet visible
    sim.run()
    assert bank.read(0) == 1
    assert sim.now == pytest.approx(
        CostModel(SimConfig(world_size=2).spec).atomic_latency(remote=False))


def test_remote_post_costs_more():
    sim, bank = make_bank(rank=0)
    bank.post_add(0, 1, from_rank=1)  # remote
    t = sim.run()
    spec = SimConfig(world_size=2).spec
    assert t == pytest.approx(spec.remote_atomic_latency)
    assert spec.remote_atomic_latency > spec.local_atomic_latency


def test_wait_blocks_until_threshold():
    sim, bank = make_bank()
    wake_times = []

    def waiter():
        yield bank.wait_geq(0, 2)
        wake_times.append(sim.now)

    def poster():
        yield Timeout(1.0)
        bank.post_add(0, 1, from_rank=0)
        yield Timeout(1.0)
        bank.post_add(0, 1, from_rank=0)

    sim.spawn(waiter())
    sim.spawn(poster())
    sim.run()
    assert len(wake_times) == 1
    assert wake_times[0] >= 2.0        # not before the second post


def test_satisfied_wait_costs_one_poll():
    sim, bank = make_bank()
    bank.values[0] = 5

    def waiter():
        yield bank.wait_geq(0, 3)
        return sim.now

    p = sim.spawn(waiter())
    sim.run()
    spec = SimConfig(world_size=2).spec
    assert p.result == pytest.approx(spec.spin_poll_interval)


def test_satisfied_wait_is_a_bare_delay():
    sim, bank = make_bank()
    bank.post_add(0, 2, from_rank=0)
    sim.run()
    assert type(bank.read(0)) is int
    assert bank.wait_geq(0, 2) == bank.cost.spin_wait_quantum()
    assert type(bank.wait_geq(0, 2)) is float
    assert not isinstance(bank.wait_geq(0, 3), float)


def test_int_poll_interval_still_yields_a_float():
    sim = Simulator()
    spec = SimConfig(world_size=2).spec.scaled(spin_poll_interval=1)
    bank = SignalArray(sim, CostModel(spec), 0, 1)

    def waiter():
        yield bank.wait_geq(0, 0)
        return sim.now

    p = sim.spawn(waiter())
    sim.run()
    assert p.result == 1.0


def test_lost_notify_deadlocks():
    sim, bank = make_bank()

    def waiter():
        yield bank.wait_geq(0, 1)

    sim.spawn(waiter(), name="consumer")
    with pytest.raises(DeadlockError):
        sim.run()
    assert bank.blocked_waiters == 1


def test_multiple_waiters_distinct_thresholds():
    sim, bank = make_bank()
    wakes = {}

    def waiter(name, thr):
        yield bank.wait_geq(0, thr)
        wakes[name] = sim.now

    def poster():
        for _ in range(3):
            yield Timeout(1.0)
            bank.post_add(0, 1, from_rank=0)

    sim.spawn(waiter("low", 1))
    sim.spawn(waiter("high", 3))
    sim.spawn(poster())
    sim.run()
    assert wakes["low"] < wakes["high"]


def test_validation():
    sim, bank = make_bank(n=2)
    with pytest.raises(SimulationError):
        bank.post_add(5, 1, from_rank=0)
    with pytest.raises(SimulationError):
        bank.post_add(0, 0, from_rank=0)
    with pytest.raises(SimulationError):
        SignalArray(sim, bank.cost, 0, 0)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)),
                min_size=1, max_size=20),
       st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_waits_never_wake_early(posts, threshold):
    """Property: at wake time the observed value meets the threshold."""
    sim, bank = make_bank(n=4)
    results = []

    def waiter(idx):
        yield bank.wait_geq(idx, threshold)
        results.append((idx, bank.read(idx)))

    total = {i: 0 for i in range(4)}
    for idx, amt in posts:
        total[idx] += amt
    for idx in range(4):
        if total[idx] >= threshold:
            sim.spawn(waiter(idx))

    def poster():
        for idx, amt in posts:
            yield Timeout(0.5)
            bank.post_add(idx, amt, from_rank=0)

    sim.spawn(poster())
    sim.run()
    for idx, seen in results:
        assert seen >= threshold
