"""Counting resources and bandwidth pipes for the simulated node.

Two resource kinds cover everything the substrate needs:

* :class:`Resource` — a counting semaphore with FIFO fairness, used for SM
  pools and copy-engine slots.  A process ``yield``s :meth:`Resource.acquire`
  and later calls :meth:`Resource.release`.

* :class:`Pipe` — an analytic FIFO bandwidth channel, used for NVLink
  egress/ingress, HBM and NIC links.  A transfer of *n* bytes reserves the
  pipe for ``n / bandwidth`` seconds starting when the pipe frees up;
  serialization under contention conserves aggregate throughput, which is
  the property the overlap experiments depend on.  A transfer through
  several pipes (source egress + destination ingress) is reserved by
  :meth:`repro.sim.interconnect.Interconnect.reserve`.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.sim.engine import Awaitable, Process, Simulator


class _Acquire(Awaitable):
    __slots__ = ("resource", "amount")

    def __init__(self, resource: "Resource", amount: int):
        self.resource = resource
        self.amount = amount

    def arm(self, sim: Simulator, proc: Process) -> None:
        self.resource._arm(sim, proc, self.amount)


class Resource:
    """FIFO counting semaphore (SM pool, copy-engine slots, ...)."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource {name!r} needs capacity >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: deque[tuple[Process, int]] = deque()

    def acquire(self, amount: int = 1) -> Awaitable:
        """Awaitable that resumes once ``amount`` units are held."""
        if amount < 1 or amount > self.capacity:
            raise SimulationError(
                f"cannot acquire {amount} units of {self.name!r} "
                f"(capacity {self.capacity})"
            )
        return _Acquire(self, amount)

    def _arm(self, sim: Simulator, proc: Process, amount: int) -> None:
        # FIFO: a request only proceeds immediately if nothing queues ahead.
        if not self._queue and self.in_use + amount <= self.capacity:
            self.in_use += amount
            sim.schedule(0.0, proc, None)
        else:
            self._queue.append((proc, amount))

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` units and wake queued requesters in order."""
        if amount < 1 or amount > self.in_use:
            raise SimulationError(
                f"bad release({amount}) on {self.name!r} with in_use={self.in_use}"
            )
        self.in_use -= amount
        while self._queue:
            proc, want = self._queue[0]
            if self.in_use + want > self.capacity:
                break
            self._queue.popleft()
            self.in_use += want
            self.sim.schedule(0.0, proc, None)

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queued(self) -> int:
        return len(self._queue)


class Pipe:
    """Analytic FIFO bandwidth channel.

    Rather than simulating byte streams, the pipe keeps a single
    ``free_at`` watermark: a transfer requested at time *t* starts at
    ``max(t, free_at)``, occupies the pipe for ``bytes / bandwidth``
    seconds, and delivers ``latency`` seconds after occupancy ends.
    """

    def __init__(self, sim: Simulator, bandwidth: float, latency: float = 0.0,
                 name: str = "pipe"):
        if bandwidth <= 0:
            raise SimulationError(f"pipe {name!r} needs positive bandwidth")
        if latency < 0:
            raise SimulationError(f"pipe {name!r} needs non-negative latency")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self.free_at = 0.0
        #: Total bytes ever pushed through (for utilization accounting).
        self.total_bytes = 0.0
        #: Total seconds of occupancy (for utilization accounting).
        self.busy_time = 0.0

    def arrival(self, nbytes: float) -> float:
        """Reserve the pipe for ``nbytes``; returns the arrival time.

        ``arrival`` is the absolute simulated time at which the data is
        visible at the far end.  The caller is expected to ``yield`` a
        ``Timeout(arrival - sim.now)``.
        """
        if nbytes < 0:
            raise SimulationError("negative transfer size")
        now, free_at = self.sim.now, self.free_at
        # max(now, free_at), without the builtin call on this hot path
        start = free_at if free_at > now else now
        occupancy = nbytes / self.bandwidth
        self.free_at = start + occupancy
        self.total_bytes += nbytes
        self.busy_time += occupancy
        return self.free_at + self.latency

    @property
    def utilization(self) -> float:
        """Fraction of elapsed simulated time the pipe has been busy."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.sim.now)
