"""Minimal discrete-event simulation engine.

The engine is deliberately small and tailored (rather than depending on
simpy): processes are Python generators that ``yield`` *awaitables* and are
resumed by the event loop.  Sub-routines compose with ``yield from``.

Awaitables implement :meth:`Awaitable.arm`, which registers the suspended
process wherever it will later be resumed (the time heap for
:class:`Timeout`, a waiter list for signals/resources, a completion list for
:class:`Join`).

Determinism: events at equal timestamps fire in FIFO order of scheduling
(a monotonically increasing sequence number breaks ties), so simulations are
fully reproducible.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from typing import Any, Callable

from repro.errors import DeadlockError, SimulationError

#: Type of the generators the engine runs.
ProcessGen = Generator["Awaitable", Any, Any]


class Awaitable:
    """Base class for everything a process can ``yield``."""

    def arm(self, sim: "Simulator", proc: "Process") -> None:  # pragma: no cover
        raise NotImplementedError


class Timeout(Awaitable):
    """Suspend the process for ``delay`` simulated seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value

    def arm(self, sim: "Simulator", proc: "Process") -> None:
        sim.schedule(self.delay, proc, self.value)


class Join(Awaitable):
    """Suspend until another process finishes; resumes with its result."""

    __slots__ = ("proc",)

    def __init__(self, proc: "Process"):
        self.proc = proc

    def arm(self, sim: "Simulator", proc: "Process") -> None:
        if self.proc.done:
            sim.schedule(0.0, proc, self.proc.result)
        else:
            self.proc._joiners.append(proc)


class AllOf(Awaitable):
    """Suspend until all of the given processes finish.

    Resumes with the list of their results in the given order.
    """

    __slots__ = ("procs",)

    def __init__(self, procs: list["Process"]):
        self.procs = list(procs)

    def arm(self, sim: "Simulator", proc: "Process") -> None:
        pending = [p for p in self.procs if not p.done]
        if not pending:
            sim.schedule(0.0, proc, [p.result for p in self.procs])
            return
        remaining = len(pending)

        def on_done(_result: Any) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                sim.schedule(0.0, proc, [p.result for p in self.procs])

        for p in pending:
            p._callbacks.append(on_done)


class Process:
    """A running simulation process wrapping a generator.

    Do not instantiate directly — use :meth:`Simulator.spawn`.
    """

    __slots__ = ("sim", "gen", "name", "done", "result", "_joiners", "_callbacks")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        self._joiners: list[Process] = []
        self._callbacks: list[Callable[[Any], None]] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "live"
        return f"<Process {self.name} {state}>"

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        self.sim._live -= 1
        for joiner in self._joiners:
            self.sim.schedule(0.0, joiner, result)
        self._joiners.clear()
        for cb in self._callbacks:
            cb(result)
        self._callbacks.clear()

    def throw(self, exc: BaseException) -> None:
        """Inject an exception into the process (failure injection hooks)."""
        try:
            self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except type(exc):
            self._finish(None)
            return
        raise SimulationError(
            f"process {self.name!r} swallowed injected {type(exc).__name__} "
            "and kept yielding; processes must re-raise or return"
        )


class Simulator:
    """The event loop: a time-ordered heap of process resumptions."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Process, Any]] = []
        self._seq = 0
        self._live = 0
        self._procs: list[Process] = []

    # -- process management -------------------------------------------------

    def spawn(self, gen: ProcessGen, name: str = "proc") -> Process:
        """Create a process from a generator and schedule its first step."""
        proc = Process(self, gen, name)
        self._live += 1
        self._procs.append(proc)
        self.schedule(0.0, proc, None)
        return proc

    def schedule(self, delay: float, proc: Process, value: Any = None) -> None:
        """Resume ``proc`` with ``value`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, proc, value))

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run a plain callback after ``delay`` seconds.

        Used for fire-and-forget effects that no process blocks on: posted
        signal increments (release semantics — the SM does not wait for the
        remote atomic to land) and data-arrival application in numeric mode.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, None, fn))

    # -- main loop -----------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Drain the event queue; return the final simulated time.

        Raises :class:`DeadlockError` if live processes remain blocked when
        the queue drains — the signature of a lost notify in a fused kernel.
        """
        heap, pop, push = self._heap, heapq.heappop, heapq.heappush
        while heap:
            t, _seq, proc, value = pop(heap)
            if until is not None and t > until:
                # push back and stop at the horizon
                push(heap, (t, _seq, proc, value))
                self.now = until
                return self.now
            if t < self.now - 1e-18:
                raise SimulationError("time went backwards")
            self.now = t
            if proc is None:
                value()  # plain callback from call_later
                continue
            if proc.done:
                continue
            # resume the process by one yield and arm what it awaits; a
            # Timeout, by far the most common, is scheduled in place
            try:
                awaited = proc.gen.send(value)
            except StopIteration as stop:
                proc._finish(stop.value)
                continue
            if awaited.__class__ is Timeout:
                self._seq += 1
                push(heap, (t + awaited.delay, self._seq, proc, awaited.value))
            elif isinstance(awaited, Awaitable):
                awaited.arm(self, proc)
            else:
                raise SimulationError(
                    f"process {proc.name!r} yielded {type(awaited).__name__}, "
                    "expected an Awaitable (Timeout, Join, resource/signal "
                    "wait)")
        if self._live > 0 and until is None:
            blocked = [p.name for p in self._procs if not p.done]
            raise DeadlockError(
                f"simulation deadlocked: {self._live} process(es) still blocked "
                f"with an empty event queue: {blocked[:16]}",
                blocked=blocked,
            )
        return self.now
