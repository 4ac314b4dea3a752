"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimConfig
from repro.errors import DeadlockError, SimulationError
from repro.memory.signals import SignalArray
from repro.sim.costmodel import CostModel
from repro.sim.engine import AllOf, Join, Simulator, Timeout
from repro.sim.resources import Resource
from tests.oracle_engine import HeapSimulator


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


# -- bare-float delays ----------------------------------------------------------

def test_float_delay_matches_timeout():
    sim = Simulator()
    log = []

    def proc(bare):
        value = yield 1.5 if bare else Timeout(1.5)
        log.append((bare, sim.now, value))

    sim.spawn(proc(True))
    sim.spawn(proc(False))
    assert sim.run() == 1.5
    assert log == [(True, 1.5, None), (False, 1.5, None)]
    assert sim._seq == 4  # two spawns, two resumptions


def test_negative_float_delay_raises():
    sim = Simulator()

    def bad():
        yield -1.0

    sim.spawn(bad(), name="bad")
    with pytest.raises(SimulationError, match="negative timeout"):
        sim.run()


# -- NaN delays: every comparison with NaN is false, so each check tests
# ``not delay >= 0`` ------------------------------------------------------------

NAN = float("nan")


def test_nan_timeout_rejected():
    with pytest.raises(SimulationError, match="negative timeout"):
        Timeout(NAN)


def test_nan_float_delay_raises_and_keeps_the_clock():
    sim = Simulator()

    def bad():
        yield 1.0
        yield NAN

    sim.spawn(bad(), name="bad")
    with pytest.raises(SimulationError, match="negative timeout"):
        sim.run()
    assert sim.now == 1.0


def test_nan_schedule_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="cannot schedule into the past"):
        sim.schedule(NAN, None, lambda: None)
    assert sim._seq == 0 and not sim._times


def test_numpy_float_delay_shares_the_instant():
    sim = Simulator()
    order = []

    def proc(name, delay):
        yield delay
        order.append((name, sim.now))

    sim.spawn(proc("numpy", np.float64(0.5)))
    sim.spawn(proc("float", 0.5))
    assert sim.run() == 0.5
    assert order == [("numpy", 0.5), ("float", 0.5)]


# -- the queue against the heap oracle ---------------------------------------------

def _raising_instant(sim_cls):
    """Four processes share instant 1.0; the second raises there."""
    sim, log = sim_cls(), []

    def proc(i):
        yield Timeout(1.0)
        if i == 1:
            raise RuntimeError("boom")
        log.append((sim.now, i))
        yield Timeout(0.0)
        log.append((sim.now, i))

    for i in range(4):
        sim.spawn(proc(i), name=f"p{i}")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    state = (sim.now, sim._seq, list(log))
    with pytest.raises(DeadlockError) as exc:  # p1 never finishes
        sim.run()
    return state, exc.value.blocked, log, sim.now, sim._seq


def test_process_raising_mid_instant_matches_heap():
    got = _raising_instant(Simulator)
    assert got == _raising_instant(HeapSimulator)
    (now, _, before), blocked, log, _, _ = got
    assert now == 1.0 and before == [(1.0, 0)] and blocked == ["p1"]
    # the rest of the instant ran on the second call, each event once
    assert log == [(1.0, 0), (1.0, 2), (1.0, 3), (1.0, 0), (1.0, 2),
                   (1.0, 3)]


def test_run_until_runs_events_at_the_horizon():
    sim = Simulator()
    log = []

    def proc(d):
        yield d
        log.append(sim.now)

    for d in (0.5, 1.0, 1.0, 2.0):
        sim.spawn(proc(d))
    assert sim.run(until=1.0) == 1.0
    assert log == [0.5, 1.0, 1.0]
    assert sim.run() == 2.0 and log[-1] == 2.0


def test_run_until_before_the_clock_raises():
    sim = Simulator()

    def proc():
        yield Timeout(5.0)

    sim.spawn(proc())
    sim.run(until=2.0)
    with pytest.raises(SimulationError, match=r"until=0\.5.*2\.0"):
        sim.run(until=0.5)
    assert sim.now == 2.0
    resumed = []

    def late():
        yield Timeout(1.0)
        resumed.append(sim.now)

    sim.spawn(late())
    sim.run()
    assert resumed == [3.0]


#: delays from a small alphabet, so many events share an instant; 0.1 + 0.2
#: and 0.3 are distinct instants
DELAYS = (0.0, 0.1, 0.2, 0.1 + 0.2, 0.3, 1.0)
_delay = st.sampled_from(DELAYS)
_step = st.one_of(
    st.tuples(st.just("float"), _delay),
    st.tuples(st.just("timeout"), _delay, st.integers(0, 3)),
    st.tuples(st.just("later"), _delay),
    st.tuples(st.just("fail later"), _delay),
    st.tuples(st.just("spawn"), _delay),
    st.tuples(st.just("join"), st.integers(0, 7)),
    st.tuples(st.just("allof"), st.lists(st.integers(0, 7), max_size=3)),
    st.tuples(st.just("hold"), st.integers(1, 2), _delay),
    st.tuples(st.just("post"), st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.just("wait"), st.integers(0, 1), st.integers(1, 2)),
    st.tuples(st.just("raise")),
)
_plans = st.lists(st.lists(_step, max_size=6), min_size=1, max_size=6)
_horizons = st.sampled_from((None, 0.0, 0.1, 0.3, 0.1 + 0.2, 0.5))


def _fail(tag):
    def callback():
        raise RuntimeError(tag)
    return callback


def _simulate(sim_cls, plans, until):
    """Run ``plans`` (one step list per process) on a fresh ``sim_cls``:
    ``run(until)``, then ``run()`` until it returns or deadlocks.  Float
    steps and satisfied signal waits yield a bare float, or a ``Timeout``
    on the heap oracle."""
    sim, log = sim_cls(), []
    bare = sim_cls is Simulator
    res = Resource(sim, capacity=2)
    bank = SignalArray(sim, CostModel(SimConfig(world_size=2).spec), 0, 2)
    procs = []

    def child(name, delay):
        yield delay if bare else Timeout(delay)
        log.append((sim.now, name))
        return name

    def body(i, steps):
        for k, step in enumerate(steps):
            kind, value = step[0], None
            if kind == "float":
                value = yield step[1] if bare else Timeout(step[1])
            elif kind == "timeout":
                value = yield Timeout(step[1], step[2])
            elif kind == "later":
                sim.call_later(step[1], lambda tag=f"cb{i}.{k}":
                               log.append((sim.now, tag)))
            elif kind == "fail later":
                sim.call_later(step[1], _fail(f"cb{i}.{k}"))
            elif kind == "spawn":
                sim.spawn(child(f"p{i}.{k}", step[1]), name=f"p{i}.{k}")
            elif kind == "join" and i:
                value = yield Join(procs[step[1] % i])
            elif kind == "allof" and i:
                value = yield AllOf([procs[j % i] for j in step[1]])
            elif kind == "hold":
                yield res.acquire(step[1])
                yield step[2] if bare else Timeout(step[2])
                res.release(step[1])
            elif kind == "post":
                bank.post_add(step[1], 1, from_rank=step[2])
            elif kind == "wait":
                wait = bank.wait_geq(step[1], step[2])
                value = yield wait if bare or not isinstance(
                    wait, float) else Timeout(wait)
            elif kind == "raise":
                raise RuntimeError(f"p{i} step {k}")
            log.append((sim.now, f"p{i}", k, value))
        return i

    for i, steps in enumerate(plans):
        procs.append(sim.spawn(body(i, steps), name=f"p{i}"))
    outcomes = []
    for horizon in [until] + [None] * (len(plans) + 1):
        try:
            outcomes.append(sim.run(horizon))
        except (SimulationError, RuntimeError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
            if isinstance(exc, DeadlockError):
                break
        else:
            if horizon is None:
                break
    return (log, outcomes, sim._seq, sim.now,
            [(p.name, p.done, p.result) for p in sim._procs])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_plans, _horizons)
def test_queue_matches_heap_oracle(plans, until):
    """Property: the per-instant queue resumes the same processes with the
    same values at the same times, in the same order, as one heap of
    single events, and counts the same events."""
    assert _simulate(Simulator, plans, until) == _simulate(
        HeapSimulator, plans, until)
