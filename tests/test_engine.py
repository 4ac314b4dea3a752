"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import AllOf, Join, Simulator, Timeout


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield Timeout(1.5)
        log.append(sim.now)
        yield Timeout(0.5)
        log.append(sim.now)

    sim.spawn(proc())
    assert sim.run() == pytest.approx(2.0)
    assert log == [pytest.approx(1.5), pytest.approx(2.0)]


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_fifo_ordering_at_equal_times():
    sim = Simulator()
    order = []

    def proc(i):
        yield Timeout(1.0)
        order.append(i)

    for i in range(10):
        sim.spawn(proc(i))
    sim.run()
    assert order == list(range(10))


def test_join_returns_result():
    sim = Simulator()

    def child():
        yield Timeout(2.0)
        return 42

    def parent():
        c = sim.spawn(child())
        result = yield Join(c)
        return (sim.now, result)

    p = sim.spawn(parent())
    sim.run()
    assert p.result == (pytest.approx(2.0), 42)


def test_join_already_done_process():
    sim = Simulator()

    def child():
        return 7
        yield  # pragma: no cover

    def parent(c):
        yield Timeout(5.0)
        result = yield Join(c)
        return result

    c = sim.spawn(child())
    p = sim.spawn(parent(c))
    sim.run()
    assert p.result == 7


def test_allof_collects_in_order():
    sim = Simulator()

    def child(delay, val):
        yield Timeout(delay)
        return val

    def parent():
        procs = [sim.spawn(child(3.0 - i, i)) for i in range(3)]
        results = yield AllOf(procs)
        return (sim.now, results)

    p = sim.spawn(parent())
    sim.run()
    assert p.result == (pytest.approx(3.0), [0, 1, 2])


def test_allof_empty_and_done():
    sim = Simulator()

    def quick():
        return "x"
        yield  # pragma: no cover

    def parent():
        done = sim.spawn(quick())
        yield Timeout(1.0)
        results = yield AllOf([done])
        return results

    p = sim.spawn(parent())
    sim.run()
    assert p.result == ["x"]


def test_deadlock_detection_names_blocked():
    sim = Simulator()

    def stuck():
        yield Join(other)  # never finishes

    def forever():
        yield Timeout(1.0)
        yield Join(stuck_proc)  # mutual wait

    other = sim.spawn(forever(), name="forever")
    stuck_proc = sim.spawn(stuck(), name="stuck")
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert "stuck" in exc.value.blocked or "forever" in exc.value.blocked


def test_run_until_horizon():
    sim = Simulator()

    def proc():
        yield Timeout(10.0)
        return "done"

    p = sim.spawn(proc())
    t = sim.run(until=3.0)
    assert t == pytest.approx(3.0)
    assert not p.done
    sim.run()
    assert p.done


def test_call_later_runs_callbacks_in_order():
    sim = Simulator()
    log = []
    sim.call_later(2.0, lambda: log.append("b"))
    sim.call_later(1.0, lambda: log.append("a"))

    def proc():
        yield Timeout(3.0)
        log.append("c")

    sim.spawn(proc())
    sim.run()
    assert log == ["a", "b", "c"]


def test_yield_non_awaitable_raises():
    sim = Simulator()

    def bad():
        yield 5

    sim.spawn(bad())
    with pytest.raises(SimulationError, match="expected an Awaitable"):
        sim.run()


def test_generator_delegation_composes():
    sim = Simulator()

    def inner():
        yield Timeout(1.0)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    p = sim.spawn(outer())
    sim.run()
    assert p.result == 20
    assert sim.now == pytest.approx(2.0)


def test_throw_injects_exception():
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield Timeout(100.0)
        except RuntimeError as exc:
            caught.append(str(exc))
            return "recovered"

    p = sim.spawn(proc())
    sim.run(until=1.0)
    p.throw(RuntimeError("fault"))
    assert caught == ["fault"]
    assert p.done and p.result == "recovered"


@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1,
                max_size=30))
def test_clock_monotonic_under_random_timeouts(delays):
    sim = Simulator()
    seen = []

    def proc(d):
        yield Timeout(d)
        seen.append(sim.now)

    for d in delays:
        sim.spawn(proc(d))
    total = sim.run()
    assert seen == sorted(seen)
    assert total == pytest.approx(max(delays))
