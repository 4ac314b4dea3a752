"""The analyzer's checkers: deadlock, race and coverage.

All checkers run over a fully-built :class:`~repro.analyze.model.LaunchPlan`
and its :class:`~repro.analyze.sfg.SignalFlow`:

* :func:`check_thresholds` — per waited cell, compare the wait threshold
  against the total amount ever posted: zero posts is an unmatched wait,
  a positive-but-short optimistic total can never satisfy the wait, and a
  short *guaranteed* total means satisfaction hinges on an undecided
  branch (warning).
* :func:`check_schedule` — an abstract scheduler: every thread advances
  through its trace, waits block on monotonic counters, and conditional
  notifies fire optimistically.  A wedged fixpoint is a deadlock even in
  the best case; the blocked waits are reported and the inter-rank
  wait-for graph is condensed (SCC) to surface cross-rank cycles.
* :func:`check_races` — reads of tile buffers must be ordered after the
  overlapping writer: either by stream/launch ordering, or by a wait the
  reader issued earlier on a cell the writer posts at-or-after the write
  (the wait-guards-read rule; an approximation — the threshold could in
  principle be met by other posters, but for tile-mapped channels the
  posters of a cell are exactly the producers of its tiles).  The same
  pass flags guaranteed double-production of one output region.
* :func:`check_coverage` — declared outputs must be fully tiled by
  guaranteed stores on every rank.

Accesses with statically-unknown extents (data-dependent addressing:
``gather_rows``, ``scatter_add_rows``, routing tables) are excluded from
the race and coverage checks by design.
"""

from __future__ import annotations

from repro.analyze.findings import Finding, Report, dedupe
from repro.analyze.model import LaunchPlan, Thread
from repro.analyze.sfg import (
    Cell,
    SignalFlow,
    thread_post_index,
    thread_wait_index,
)


def _fmt_cell(cell: Cell) -> str:
    (bank_name, bank_rank), idx = cell
    return f"{bank_name}@r{bank_rank}[{idx}]"


def _fmt_sites(sites: list) -> str:
    return ", ".join(s.render() for s in sites[:3]) or "none"


# ---------------------------------------------------------------------------
# deadlock: per-cell totals
# ---------------------------------------------------------------------------


def check_thresholds(sfg: SignalFlow) -> list[Finding]:
    findings: list[Finding] = []
    plan = sfg.plan.name
    for cell, (waits, posts) in sfg.pairings().items():
        opt = sum(p.amount for p in posts)
        guaranteed = sum(p.amount for p in posts if p.guaranteed)
        for w in waits:
            if opt == 0:
                findings.append(Finding(
                    rule="deadlock.unmatched-wait", plan=plan,
                    kernel=w.site.kernel, lineno=w.site.lineno,
                    message=f"wait on {_fmt_cell(cell)} (threshold "
                            f"{w.threshold}) has no notify site"))
            elif opt < w.threshold:
                findings.append(Finding(
                    rule="deadlock.unreachable-threshold", plan=plan,
                    kernel=w.site.kernel, lineno=w.site.lineno,
                    message=f"wait on {_fmt_cell(cell)} needs "
                            f"{w.threshold} but total posts reach only "
                            f"{opt} (notify sites: "
                            f"{_fmt_sites(sfg.notify_sites(cell))})"))
            elif guaranteed < w.threshold:
                findings.append(Finding(
                    rule="deadlock.unreachable-threshold", plan=plan,
                    severity="warning",
                    kernel=w.site.kernel, lineno=w.site.lineno,
                    message=f"wait on {_fmt_cell(cell)} needs "
                            f"{w.threshold}; only {guaranteed} posts are "
                            f"unconditional ({opt} optimistic)"))
    return dedupe(findings)


# ---------------------------------------------------------------------------
# deadlock: abstract schedule fixpoint + inter-rank SCC
# ---------------------------------------------------------------------------


def check_schedule(plan: LaunchPlan) -> list[Finding]:
    threads = plan.threads
    n = len(threads)
    counters: dict[Cell, int] = {}
    ptr = [0] * n
    finished = [len(t.events) == 0 for t in threads]

    remaining: dict[str, int] = {}
    for t in threads:
        remaining[t.group] = remaining.get(t.group, 0) + (
            0 if len(t.events) == 0 else 1)

    def group_done(group: str) -> bool:
        return remaining.get(group, 0) == 0

    def started(i: int) -> bool:
        return all(group_done(g) for g in threads[i].after)

    def finish(i: int) -> None:
        finished[i] = True
        remaining[threads[i].group] -= 1

    def advance(i: int) -> bool:
        """Step thread i as far as it can go; True if it moved."""
        t = threads[i]
        moved = False
        while ptr[i] < len(t.events):
            ev = t.events[ptr[i]]
            if ev.kind == "wait":
                cell: Cell = (ev.bank, ev.cell)
                if counters.get(cell, 0) >= ev.threshold:
                    ptr[i] += 1
                    moved = True
                else:
                    break
            elif ev.kind == "notify":
                cell = (ev.bank, ev.cell)
                counters[cell] = counters.get(cell, 0) + ev.amount
                ptr[i] += 1
                moved = True
            else:
                ptr[i] += 1
                moved = True
        if ptr[i] >= len(t.events) and not finished[i]:
            finish(i)
            moved = True
        return moved

    progress = True
    while progress:
        progress = False
        for i in range(n):
            if finished[i] or not started(i):
                continue
            if advance(i):
                progress = True

    findings: list[Finding] = []
    blocked = [i for i in range(n) if not finished[i] and started(i)]
    if not blocked:
        return findings

    plan_name = plan.name
    blocked_waits: list[tuple[int, Cell]] = []
    for i in blocked:
        ev = threads[i].events[ptr[i]]
        cell = (ev.bank, ev.cell)
        blocked_waits.append((i, cell))
        findings.append(Finding(
            rule="deadlock.stall", plan=plan_name,
            kernel=ev.site.kernel, lineno=ev.site.lineno,
            message=f"thread {threads[i].key} wedges at wait on "
                    f"{_fmt_cell(cell)}: counter stuck at "
                    f"{counters.get(cell, 0)} < {ev.threshold} even "
                    f"with all conditional notifies fired"))

    # inter-rank wait-for graph: blocked rank -> ranks holding unfired
    # posts for the blocked cell
    post_idx = [thread_post_index(t) for t in threads]
    edges: set[tuple[int, int]] = set()
    ranks_blocked: set[int] = set()
    for i, cell in blocked_waits:
        ranks_blocked.add(threads[i].rank)
        for j in range(n):
            pending = [p for p in post_idx[j].get(cell, ()) if p >= ptr[j]]
            if pending and not finished[j]:
                edges.add((threads[i].rank, threads[j].rank))
    # mutual reachability over <=8 ranks: tiny transitive closure
    ranks = sorted({r for e in edges for r in e})
    reach = {r: {s for (a, s) in edges if a == r} for r in ranks}
    changed = True
    while changed:
        changed = False
        for r in ranks:
            extra = set()
            for s in reach[r]:
                extra |= reach.get(s, set())
            if not extra <= reach[r]:
                reach[r] |= extra
                changed = True
    cycle_ranks = sorted(
        r for r in ranks
        if r in ranks_blocked and any(
            r in reach.get(s, set()) and s in reach[r] and s != r
            for s in ranks))
    if len(cycle_ranks) >= 2:
        findings.append(Finding(
            rule="deadlock.cycle", plan=plan_name,
            message=f"cross-rank wait cycle over ranks {cycle_ranks}: each "
                    "rank's pending notifies sit behind a wait on another "
                    "rank in the cycle"))
    return dedupe(findings)


# ---------------------------------------------------------------------------
# races and double-produce
# ---------------------------------------------------------------------------


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def check_races(plan: LaunchPlan) -> list[Finding]:
    threads = plan.threads
    findings: list[Finding] = []
    plan_name = plan.name

    # accesses grouped by (tensor, instance rank); unknown extents excluded
    reads: dict[tuple[str, int], list[tuple[int, int, object]]] = {}
    writes: dict[tuple[str, int], list[tuple[int, int, object]]] = {}
    for ti, t in enumerate(threads):
        for pos, ev in enumerate(t.events):
            if ev.tensor is None or ev.rows is None or ev.cols is None:
                continue
            key = (ev.tensor, ev.rank)
            if ev.kind == "read":
                reads.setdefault(key, []).append((ti, pos, ev))
            elif ev.kind == "write":
                writes.setdefault(key, []).append((ti, pos, ev))

    wait_idx = [thread_wait_index(t) for t in threads]
    post_idx = [thread_post_index(t) for t in threads]

    def ordered_after(reader: Thread, writer: Thread) -> bool:
        """Stream/launch ordering already serializes the pair."""
        return writer.group in reader.after or reader.group in writer.after

    def guarded(ri: int, rpos: int, wi: int, wpos: int) -> bool:
        """Reader waited (before reading) on a cell the writer posts
        at-or-after the write."""
        for cell, wait_positions in wait_idx[ri].items():
            if wait_positions[0] >= rpos:
                continue
            posts = post_idx[wi].get(cell)
            if posts and posts[-1] >= wpos:
                return True
        return False

    for key, rlist in reads.items():
        wlist = writes.get(key, [])
        if not wlist:
            continue
        for ri, rpos, rev in rlist:
            for wi, wpos, wev in wlist:
                if wi == ri:
                    continue
                if not (_overlap(rev.rows, wev.rows)
                        and _overlap(rev.cols, wev.cols)):
                    continue
                if ordered_after(threads[ri], threads[wi]):
                    continue
                if guarded(ri, rpos, wi, wpos):
                    continue
                findings.append(Finding(
                    rule="race.unguarded-read", plan=plan_name,
                    kernel=rev.site.kernel, lineno=rev.site.lineno,
                    message=f"read of {key[0]}@r{key[1]} rows{rev.rows} "
                            f"cols{rev.cols} races with write at "
                            f"{wev.site.render()}: no guarding wait "
                            "ordered after the producer's notify"))

    # double-produce: one output region stored twice (guaranteed stores,
    # any thread pair including the same thread — duplicated loop
    # iterations produce twice from one block)
    for key, wlist in writes.items():
        stores = [(ti, pos, ev) for ti, pos, ev in wlist if ev.guaranteed]
        if len(stores) > 2000:
            findings.append(Finding(
                rule="analysis.note", plan=plan_name,
                message=f"{key[0]}@r{key[1]}: {len(stores)} stores — "
                        "double-produce check skipped (budget)"))
            continue
        for a in range(len(stores)):
            ti_a, pos_a, ev_a = stores[a]
            for b in range(a + 1, len(stores)):
                ti_b, pos_b, ev_b = stores[b]
                if _overlap(ev_a.rows, ev_b.rows) \
                        and _overlap(ev_a.cols, ev_b.cols):
                    findings.append(Finding(
                        rule="race.double-produce", plan=plan_name,
                        kernel=ev_b.site.kernel, lineno=ev_b.site.lineno,
                        message=f"{key[0]}@r{key[1]} rows{ev_b.rows} "
                                f"cols{ev_b.cols} produced twice (also "
                                f"written at {ev_a.site.render()})"))
    return dedupe(findings)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def _union_area(rects: list[tuple[tuple[int, int], tuple[int, int]]]) -> int:
    """Exact union area via coordinate compression (tile counts are tiny)."""
    xs = sorted({x for r, _ in rects for x in r})
    ys = sorted({y for _, c in rects for y in c})
    area = 0
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cx, cy = xs[i], ys[j]
            if any(r[0] <= cx < r[1] and c[0] <= cy < c[1]
                   for r, c in rects):
                area += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return area


def check_coverage(plan: LaunchPlan) -> list[Finding]:
    findings: list[Finding] = []
    for name in plan.outputs:
        rows, cols = plan.tensors[name]
        for rank in range(plan.world):
            rects = []
            skip = False
            for t in plan.threads:
                for ev in t.events:
                    if ev.tensor != name or ev.rank != rank:
                        continue
                    if ev.kind not in ("write", "accum"):
                        continue
                    if ev.rows is None or ev.cols is None:
                        skip = True   # unknown-extent writer: unprovable
                        break
                    if ev.guaranteed and ev.kind == "write":
                        rects.append((ev.rows, ev.cols))
                if skip:
                    break
            if skip:
                continue
            covered = _union_area(rects) if rects else 0
            if covered < rows * cols:
                findings.append(Finding(
                    rule="coverage.hole", plan=plan.name,
                    message=f"output {name}@r{rank}: guaranteed stores "
                            f"cover {covered} of {rows * cols} elements "
                            f"({len(rects)} tile stores)"))
    return dedupe(findings)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def analyze_plan(plan: LaunchPlan,
                 extra: list[Finding] | None = None) -> Report:
    """Run every checker over a built plan; returns the Report."""
    report = Report()
    for f in dedupe(extra or []):
        report.add(f)
    for note in plan.notes:
        report.add(Finding(rule="analysis.note", plan=plan.name,
                           message=note))
    sfg = SignalFlow.build(plan)
    report.extend(check_thresholds(sfg))
    report.extend(check_schedule(plan))
    report.extend(check_races(plan))
    report.extend(check_coverage(plan))
    return report
