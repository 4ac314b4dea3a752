"""Signal-flow graph: wait sites paired with the notify sites feeding them.

Built over the event traces of a :class:`~repro.analyze.model.LaunchPlan`:
for every ``(bank, cell)`` signal the graph records which thread positions
post to it (and how much) and which wait on it (and with what threshold).
Signals are monotonic counters in this runtime — posts accumulate and
waits never consume — so per-cell *totals* decide reachability:

* optimistic total — every post fires, including those under undecided
  branches (used to prove a wait can never be satisfied);
* guaranteed total — only posts on unconditional paths (used to warn when
  satisfaction depends on a branch the analyzer could not decide).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyze.model import BankKey, LaunchPlan, Site, Thread

Cell = tuple[BankKey, int]


@dataclass
class PostRec:
    thread: int          # index into plan.threads
    pos: int             # index into thread.events
    amount: int
    guaranteed: bool
    site: Site


@dataclass
class WaitRec:
    thread: int
    pos: int
    threshold: int
    guaranteed: bool
    site: Site


@dataclass
class SignalFlow:
    plan: LaunchPlan
    posts: dict[Cell, list[PostRec]] = field(default_factory=dict)
    waits: dict[Cell, list[WaitRec]] = field(default_factory=dict)

    @classmethod
    def build(cls, plan: LaunchPlan) -> "SignalFlow":
        sfg = cls(plan)
        for ti, thread in enumerate(plan.threads):
            for pos, ev in enumerate(thread.events):
                if ev.bank is None or ev.cell is None:
                    continue
                cell: Cell = (ev.bank, ev.cell)
                if ev.kind == "notify":
                    sfg.posts.setdefault(cell, []).append(PostRec(
                        ti, pos, ev.amount, ev.guaranteed, ev.site))
                elif ev.kind == "wait":
                    sfg.waits.setdefault(cell, []).append(WaitRec(
                        ti, pos, ev.threshold, ev.guaranteed, ev.site))
        return sfg

    def notify_sites(self, cell: Cell) -> list[Site]:
        seen: set[tuple] = set()
        out: list[Site] = []
        for p in self.posts.get(cell, []):
            key = (p.site.kernel, p.site.lineno)
            if key not in seen:
                seen.add(key)
                out.append(p.site)
        return out

    def pairings(self) -> dict[Cell, tuple[list[WaitRec], list[PostRec]]]:
        """Every waited cell with its wait records and notify records."""
        return {cell: (ws, self.posts.get(cell, []))
                for cell, ws in self.waits.items()}


def thread_post_index(thread: Thread) -> dict[Cell, list[int]]:
    """Cell -> sorted positions at which ``thread`` posts to it."""
    index: dict[Cell, list[int]] = {}
    for pos, ev in enumerate(thread.events):
        if ev.kind == "notify" and ev.bank is not None:
            index.setdefault((ev.bank, ev.cell), []).append(pos)
    return index


def thread_wait_index(thread: Thread) -> dict[Cell, list[int]]:
    """Cell -> sorted positions at which ``thread`` waits on it."""
    index: dict[Cell, list[int]] = {}
    for pos, ev in enumerate(thread.events):
        if ev.kind == "wait" and ev.bank is not None:
            index.setdefault((ev.bank, ev.cell), []).append(pos)
    return index
