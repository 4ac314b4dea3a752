"""Minimal discrete-event simulation engine.

The engine is deliberately small and tailored (rather than depending on
simpy): processes are Python generators that ``yield`` *awaitables* and are
resumed by the event loop.  Sub-routines compose with ``yield from``.

Awaitables implement :meth:`Awaitable.arm`, which registers the suspended
process wherever it will later be resumed (the event queue for
:class:`Timeout`, a waiter list for signals/resources, a completion list for
:class:`Join`).  A process may also yield a bare ``float`` (a subclass such
as ``numpy.float64`` counts too): it resumes, with ``None``, after that many
seconds, exactly as if it had yielded a :class:`Timeout` of that delay.
Generated kernels and satisfied signal waits yield their delays this way,
so the commonest event builds no object.

The queue is a heap of the distinct pending times, each with a FIFO list
of ``(process or None, value)`` entries in the order they were scheduled.
:meth:`Simulator.run` pops the earliest time and drains its list,
including the entries appended to it while it drains, before it pops the
next.  Persistent blocks run in lockstep, so several events share each
instant and the heap holds far fewer entries than there are events.

Determinism: events at equal timestamps fire in FIFO order of scheduling.
``Simulator._seq`` counts every scheduled resumption and only grows, so the
order is the ``(time, seq)`` order of a heap of single events: an event
scheduled for the instant being drained lands behind everything already
queued for it.  Simulations are fully reproducible.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from typing import Any, Callable

from repro.errors import DeadlockError, SimulationError

#: Type of the generators the engine runs.
ProcessGen = Generator["Awaitable | float", Any, Any]


class Awaitable:
    """Base class for everything a process can ``yield``."""

    def arm(self, sim: "Simulator", proc: "Process") -> None:  # pragma: no cover
        raise NotImplementedError


class Timeout(Awaitable):
    """Suspend the process for ``delay`` simulated seconds.

    Without a ``value`` it is the same as yielding the bare float ``delay``.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if not delay >= 0:  # NaN too
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
    """The event loop: a heap of pending times, a FIFO of events at each."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._times: list[float] = []
        self._at: dict[float, list[tuple[Process | None, Any]]] = {}
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

    def schedule(self, delay: float, proc: Process | None,
                 value: Any = None) -> None:
        """Resume ``proc`` with ``value`` after ``delay`` seconds (``proc``
        None: call ``value`` then)."""
        if not delay >= 0:  # NaN too
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        t = self.now + delay
        events = self._at.get(t)
        if events is None:
            self._at[t] = [(proc, value)]
            heapq.heappush(self._times, t)
        else:
            events.append((proc, value))

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run a plain callback after ``delay`` seconds.

        Used for fire-and-forget effects that no process blocks on: posted
        signal increments (release semantics — the SM does not wait for the
        remote atomic to land) and data-arrival application in numeric mode.
        """
        self.schedule(delay, None, fn)

    # -- main loop -----------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Drain the event queue; return the final simulated time.

        With ``until``, run the events up to and including that time; if
        later ones remain, stop with the clock at ``until``.  ``until``
        may not lie before the clock.  Raises
        :class:`DeadlockError` if live processes remain blocked when the
        queue drains — the signature of a lost notify in a fused kernel.
        An exception a process raises leaves the events not yet run queued.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) would move the clock back from "
                f"{self.now}")
        times, at, push = self._times, self._at, heapq.heappush
        while times:
            t = times[0]
            if until is not None and t > until:
                self.now = until
                return until
            heapq.heappop(times)
            if t < self.now - 1e-18:
                raise SimulationError("time went backwards")
            self.now = t
            events = at[t]
            ran = 0
            try:
                for proc, value in events:
                    ran += 1
                    if proc is None:
                        value()  # plain callback from call_later
                        continue
                    if proc.done:
                        continue
                    # resume the process by one yield and arm what it
                    # awaits; a float delay, by far the most common, is
                    # scheduled in place
                    try:
                        awaited = proc.gen.send(value)
                    except StopIteration as stop:
                        proc._finish(stop.value)
                        continue
                    if awaited.__class__ is not float:
                        if isinstance(awaited, Awaitable):
                            awaited.arm(self, proc)
                            continue
                        if not isinstance(awaited, float):
                            raise SimulationError(
                                f"process {proc.name!r} yielded "
                                f"{type(awaited).__name__}, expected an "
                                "Awaitable (Timeout, Join, resource/signal "
                                "wait) or a float delay")
                    if not awaited >= 0:  # NaN too
                        raise SimulationError(
                            f"process {proc.name!r} yielded a negative "
                            f"timeout: {awaited}")
                    self._seq += 1
                    later = t + awaited
                    queued = at.get(later)
                    if queued is None:
                        at[later] = [(proc, None)]
                        push(times, later)
                    else:
                        queued.append((proc, None))
            except BaseException:
                # keep the rest of this instant queued for the next run()
                del events[:ran]
                if events:
                    push(times, t)
                else:
                    del at[t]
                raise
            del at[t]
        if self._live > 0 and until is None:
            blocked = [p.name for p in self._procs if not p.done]
            raise DeadlockError(
                f"simulation deadlocked: {self._live} process(es) still blocked "
                f"with an empty event queue: {blocked[:16]}",
                blocked=blocked,
            )
        return self.now
