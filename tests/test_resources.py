"""Unit tests for counting resources and bandwidth pipes."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator, Timeout
from repro.sim.resources import Pipe, Resource


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def proc(i):
        yield res.acquire()
        order.append(i)
        yield Timeout(1.0)
        res.release()

    for i in range(4):
        sim.spawn(proc(i))
    sim.run()
    assert order == [0, 1, 2, 3]
    assert sim.now == pytest.approx(4.0)


def test_resource_multi_unit_acquire():
    sim = Simulator()
    res = Resource(sim, capacity=4)
    events = []

    def big():
        yield res.acquire(3)
        events.append(("big", sim.now))
        yield Timeout(2.0)
        res.release(3)

    def small():
        yield res.acquire(2)
        events.append(("small", sim.now))
        res.release(2)

    sim.spawn(big())
    sim.spawn(small())
    sim.run()
    # small (2 units) must wait for big (3 of 4) to release
    assert events == [("big", 0.0), ("small", pytest.approx(2.0))]


def test_resource_rejects_bad_amounts():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    with pytest.raises(SimulationError):
        res.acquire(0)
    with pytest.raises(SimulationError):
        res.acquire(3)
    with pytest.raises(SimulationError):
        res.release(1)  # nothing held
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_availability_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=5)

    def proc():
        yield res.acquire(2)
        assert res.available == 3
        assert res.in_use == 2
        res.release(2)

    sim.spawn(proc())
    sim.run()
    assert res.available == 5


def test_pipe_serializes_transfers():
    sim = Simulator()
    pipe = Pipe(sim, bandwidth=100.0, latency=0.0)
    done = []

    def proc(i):
        arrival = pipe.arrival(100.0)  # 1 second each
        yield Timeout(arrival - sim.now)
        done.append((i, sim.now))

    for i in range(3):
        sim.spawn(proc(i))
    sim.run()
    assert [t for _, t in done] == [pytest.approx(1.0), pytest.approx(2.0),
                                    pytest.approx(3.0)]


def test_pipe_latency_added_after_occupancy():
    sim = Simulator()
    pipe = Pipe(sim, bandwidth=10.0, latency=0.5)

    def proc():
        arrival = pipe.arrival(10.0)
        yield Timeout(arrival - sim.now)
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.result == pytest.approx(1.5)
    # pipe frees at occupancy end, not at arrival
    assert pipe.free_at == pytest.approx(1.0)


def test_pipe_rejects_bad_construction():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Pipe(sim, bandwidth=0.0)
    with pytest.raises(SimulationError):
        Pipe(sim, bandwidth=1.0, latency=-1.0)
    pipe = Pipe(sim, bandwidth=1.0)
    with pytest.raises(SimulationError):
        pipe.arrival(-5.0)


def test_pipe_utilization_and_totals():
    sim = Simulator()
    pipe = Pipe(sim, bandwidth=50.0)

    def proc():
        arrival = pipe.arrival(100.0)
        yield Timeout(arrival - sim.now)
        yield Timeout(2.0)  # idle time

    sim.spawn(proc())
    sim.run()
    assert pipe.total_bytes == pytest.approx(100.0)
    assert pipe.busy_time == pytest.approx(2.0)
    assert pipe.utilization == pytest.approx(0.5)


@given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                max_size=20))
def test_pipe_conserves_throughput(sizes):
    """Property: serialized transfers take exactly sum(bytes)/bw."""
    sim = Simulator()
    pipe = Pipe(sim, bandwidth=123.0)

    def proc(n):
        arrival = pipe.arrival(n)
        yield Timeout(arrival - sim.now)

    for n in sizes:
        sim.spawn(proc(n))
    total = sim.run()
    assert total == pytest.approx(sum(sizes) / 123.0)
    assert pipe.busy_time == pytest.approx(sum(sizes) / 123.0)
