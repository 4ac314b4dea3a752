"""CUDA-like streams on the simulated devices.

A stream serializes the work enqueued on it; different streams run
concurrently.  The decomposition baselines (Async-TP style) live and die by
stream semantics: chunked copies and GEMMs are enqueued on separate streams
with host-driven events between them, and the per-event host overhead is
exactly the cost the paper identifies.

Implementation: each enqueue spawns a wrapper process that first joins the
stream's current tail, then runs the payload generator; the wrapper becomes
the new tail.
"""

from __future__ import annotations

from repro.sim.engine import Join, Process, ProcessGen, Simulator, Timeout


class Stream:
    """An in-order execution queue bound to one device/rank."""

    def __init__(self, sim: Simulator, rank: int, name: str = "stream"):
        self.sim = sim
        self.rank = rank
        self.name = name
        self._tail: Process | None = None
        self._count = 0

    def enqueue(self, gen: ProcessGen, name: str | None = None,
                start_delay: float = 0.0) -> Process:
        """Enqueue work; it starts once all prior stream work finished.

        ``start_delay`` models time before the work may begin (e.g. kernel
        launch overhead paid on the device side).
        """
        self._count += 1
        label = name or f"{self.name}.op{self._count}"
        prev = self._tail

        def runner() -> ProcessGen:
            if prev is not None and not prev.done:
                yield Join(prev)
            if start_delay > 0:
                yield Timeout(start_delay)
            result = yield from gen
            return result

        proc = self.sim.spawn(runner(), name=label)
        self._tail = proc
        return proc

    @property
    def tail(self) -> Process | None:
        """The most recently enqueued operation (None if never used)."""
        return self._tail
