"""Signal cells: the device-side barriers behind TileLink's primitives.

A :class:`SignalArray` is a bank of monotonically-increasing counters living
in one rank's memory (the paper's "channels": each rank owns ``C`` barriers
— §4.1).  The two operations mirror the PTX the paper lowers to:

* :meth:`SignalArray.post_add` — ``red.release.sys.global.add``: fire and
  forget.  The issuing SM continues immediately; the increment lands after
  the (local or remote) atomic latency, and release semantics are honoured
  because callers only post *after* their data-producing instructions have
  been applied (the compiler's consistency pass enforces that ordering).

* :meth:`SignalArray.wait_geq` — a ``ld.global.acquire`` spin loop: the
  caller suspends until the counter reaches a threshold; satisfied waits
  cost one poll interval, unsatisfied waits wake when the matching post
  lands.

Deadlocks from lost notifies surface as :class:`repro.errors.DeadlockError`
when the event queue drains with waiters still parked.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.costmodel import CostModel
from repro.sim.engine import Awaitable, Process, Simulator


class _WaitGeq(Awaitable):
    __slots__ = ("array", "index", "threshold")

    def __init__(self, array: "SignalArray", index: int, threshold: int):
        self.array = array
        self.index = index
        self.threshold = threshold

    def arm(self, sim: Simulator, proc: Process) -> None:
        self.array._arm_wait(sim, proc, self.index, self.threshold)


class SignalArray:
    """A bank of signal counters owned by one rank."""

    def __init__(self, sim: Simulator, cost: CostModel, rank: int, n: int,
                 name: str = "signals"):
        if n < 1:
            raise SimulationError(f"signal array {name!r} needs >= 1 cells")
        self.sim = sim
        self.cost = cost
        self.rank = rank
        self.name = name
        self.values = [0] * n
        self._waiters: dict[int, list[tuple[int, Process]]] = {}
        #: Count of posts, for tests/ablations.
        self.posts = 0
        # the cost model's prices, read once: every post and wait needs one
        self._latency = (cost.atomic_latency(remote=False),
                         cost.atomic_latency(remote=True))
        self._quantum = cost.spin_wait_quantum()

    def __len__(self) -> int:
        return len(self.values)

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self.values):
            raise SimulationError(
                f"signal index {index} out of range for {self.name!r} "
                f"(n={len(self.values)})"
            )

    # -- producer side -----------------------------------------------------------

    def post_add(self, index: int, amount: int, from_rank: int) -> None:
        """Fire-and-forget atomic add with release semantics.

        The increment becomes visible after the atomic latency (remote if
        the poster is on a different rank than the array's owner).
        """
        values, waiters = self.values, self._waiters
        if not 0 <= index < len(values):
            self._check(index)  # raises
        if amount < 1:
            raise SimulationError("signal increments must be positive")
        self.posts += 1

        def apply() -> None:
            values[index] += amount
            if index in waiters:
                self._wake(index)

        self.sim.schedule(self._latency[from_rank != self.rank], None, apply)

    # -- consumer side ---------------------------------------------------------

    def read(self, index: int) -> int:
        self._check(index)
        return int(self.values[index])

    def wait_geq(self, index: int, threshold: int) -> Awaitable | float:
        """What to yield to resume once ``values[index] >= threshold``.

        An already-satisfied wait still costs one poll interval (the acquire
        load), matching a single spin iteration on hardware: it returns
        that delay as a bare float.
        """
        values = self.values
        if not 0 <= index < len(values):
            self._check(index)  # raises
        if values[index] >= threshold:
            return self._quantum
        return _WaitGeq(self, index, threshold)

    def _arm_wait(self, sim: Simulator, proc: Process, index: int,
                  threshold: int) -> None:
        if self.values[index] >= threshold:  # raced with a post
            sim.schedule(self._quantum, proc, None)
            return
        self._waiters.setdefault(index, []).append((threshold, proc))

    def _wake(self, index: int) -> None:
        waiters = self._waiters.get(index)
        if not waiters:
            return
        still_blocked = []
        current = self.values[index]
        for threshold, proc in waiters:
            if current >= threshold:
                # One poll interval to observe the new value.
                self.sim.schedule(self._quantum, proc, None)
            else:
                still_blocked.append((threshold, proc))
        if still_blocked:
            self._waiters[index] = still_blocked
        else:
            del self._waiters[index]

    @property
    def blocked_waiters(self) -> int:
        return sum(len(ws) for ws in self._waiters.values())
