"""Machine-readable findings for the static synchronization analyzer.

Every rule the analyzer can fire is registered in :data:`RULES` with a
stable id and a default severity; a :class:`Finding` pins one firing to a
kernel and source line.  :class:`Report` aggregates findings for a plan (or
a whole sweep) and knows how to render itself as text or JSON, and whether
it passes plain / ``--strict`` gating.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: severity ordering, most severe first
SEVERITIES = ("error", "warning", "info")

#: rule id -> (default severity, one-line description)
RULES: dict[str, tuple[str, str]] = {
    "deadlock.unmatched-wait": (
        "error", "a wait site has no notify site posting to its cell"),
    "deadlock.unreachable-threshold": (
        "error", "total posts to a waited cell can never reach the "
                 "wait threshold"),
    "deadlock.stall": (
        "error", "the abstract schedule wedges with threads blocked at "
                 "a wait even when every conditional notify fires"),
    "deadlock.cycle": (
        "error", "cross-rank wait cycle: each rank's pending notifies sit "
                 "behind a wait on another rank in the cycle"),
    "race.unguarded-read": (
        "error", "a tile buffer is read without a guarding wait ordered "
                 "after the producer's notify"),
    "race.double-produce": (
        "error", "the same output tile region is produced twice"),
    "coverage.hole": (
        "error", "declared output extents are not fully covered by "
                 "guaranteed tile stores"),
    "struct.arity": (
        "error", "a tile-centric primitive was called with the wrong "
                 "number of positional arguments"),
    "struct.bad-mode": (
        "error", "producer_tile_notify mode is not 'p2p' or 'broadcast'"),
    "struct.no-channel": (
        "error", "tile-centric primitives used in a kernel without a "
                 "BlockChannel parameter"),
    "struct.nonpositive-count": (
        "error", "peer_tile_wait with a constant count <= 0 (satisfied "
                 "before any notify; not a synchronization)"),
    "analysis.note": (
        "info", "informational note from the analyzer"),
    "analysis.truncated": (
        "warning", "the abstract interpretation hit its event budget; "
                   "results for this thread are partial"),
    "analysis.unknown-loop-bounds": (
        "warning", "a loop bound could not be evaluated; its body was "
                   "explored once, non-guaranteed"),
    "analysis.error": (
        "warning", "abstract evaluation of a statement failed; the site "
                   "was skipped"),
}


@dataclass(frozen=True)
class Finding:
    """One rule firing, anchored to a kernel and (when known) a line."""

    rule: str
    message: str
    kernel: str = "<plan>"
    lineno: int | None = None
    plan: str | None = None
    severity: str = ""  # default: the rule's registered severity

    def __post_init__(self) -> None:
        if not self.severity:
            object.__setattr__(
                self, "severity", RULES.get(self.rule, ("warning", ""))[0])

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "kernel": self.kernel,
            "lineno": self.lineno,
            "plan": self.plan,
            "message": self.message,
        }

    def render(self) -> str:
        loc = self.kernel
        if self.lineno is not None:
            loc += f":{self.lineno}"
        plan = f" [{self.plan}]" if self.plan else ""
        return f"{self.severity}: {self.rule}: {loc}{plan}: {self.message}"


@dataclass
class Report:
    """Aggregated findings for one plan or a whole sweep."""

    findings: list[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    def by_severity(self, severity: str) -> list[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> list[Finding]:
        return self.by_severity("error")

    @property
    def warnings(self) -> list[Finding]:
        return self.by_severity("warning")

    def ok(self, strict: bool = False) -> bool:
        if self.errors:
            return False
        return not (strict and self.warnings)

    def sorted(self) -> list[Finding]:
        order = {s: i for i, s in enumerate(SEVERITIES)}
        return sorted(
            self.findings,
            key=lambda f: (order.get(f.severity, len(SEVERITIES)),
                           f.plan or "", f.kernel, f.lineno or 0, f.rule))

    def render(self) -> str:
        lines = [f.render() for f in self.sorted()]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.by_severity('info'))} note(s)")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "findings": [f.to_dict() for f in self.sorted()],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }, indent=2)


def dedupe(findings: list[Finding]) -> list[Finding]:
    """Collapse repeat firings of a rule at one site (loops re-fire)."""
    seen: set[tuple] = set()
    out: list[Finding] = []
    for f in findings:
        key = (f.rule, f.kernel, f.lineno, f.plan)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    return out
