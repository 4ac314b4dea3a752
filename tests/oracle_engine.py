"""The simulator's earlier event queue, kept as an oracle for the tests.

:class:`HeapSimulator` is :class:`repro.sim.engine.Simulator` with one
``(time, seq, process, value)`` tuple per event on a single heap, so that
``seq`` breaks ties between equal times, and a :class:`Timeout` scheduled
in place.  ``schedule``, ``call_later`` and ``run`` are that engine's code
unchanged; processes, awaitables, resources and signals are the library's.
It knows no bare-float delay: a process meant for both engines yields
``Timeout(d)`` here where it yields ``d`` on the library's engine.
``tests/test_engine.py`` runs random process sets on both and requires
the same resumptions, in the same order, at the same times.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Awaitable, Process, Simulator, Timeout


class HeapSimulator(Simulator):
    """The event loop: a time-ordered heap of process resumptions."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, Process, Any]] = []

    def schedule(self, delay: float, proc: Process, value: Any = None) -> None:
        """Resume ``proc`` with ``value`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, proc, value))

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run a plain callback after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, None, fn))

    def run(self, until: float | None = None) -> float:
        """Drain the event queue; return the final simulated time."""
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
