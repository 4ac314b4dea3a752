"""Lint CLI: sweep the registered kernels through the static analyzer.

Usage::

    python -m repro.analyze --all [--strict] [--json PATH]
    python -m repro.analyze --kernel ag_gemm gemm_rs

Exit status is 0 iff every analyzed plan passes (no error findings;
with ``--strict`` no warnings either) — the CI lint gate.  Each
family's plan count is listed by ``python -m repro.registry --list``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analyze.findings import Report
from repro.analyze.registry import analyze_registered


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="static synchronization verifier for the registered "
                    "tile-centric kernels")
    parser.add_argument("--all", action="store_true",
                        help="analyze every registered kernel family")
    parser.add_argument("--kernel", nargs="+", metavar="FAMILY",
                        help="analyze only these families")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    parser.add_argument("--json", metavar="PATH",
                        help="also write machine-readable findings to PATH "
                             "('-' for stdout)")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the per-plan verdict lines")
    args = parser.parse_args(argv)

    if not args.all and not args.kernel:
        parser.error("pick --all or --kernel FAMILY...")

    families = None if args.all else args.kernel
    combined = Report()
    plans = []
    failed = False
    try:
        for plan, report in analyze_registered(families):
            ok = report.ok(strict=args.strict)
            failed = failed or not ok
            verdict = "ok" if ok else "FAIL"
            print(f"[{verdict}] {plan.name}: {len(plan.threads)} threads, "
                  f"{len(report.errors)} error(s), "
                  f"{len(report.warnings)} warning(s)")
            if not args.quiet:
                for f in report.sorted():
                    print(f"  {f.render()}")
            combined.extend(report.findings)
            plans.append({"plan": plan.name, "ok": ok})
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.json:
        payload = json.loads(combined.to_json())
        payload["plans"] = plans
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")

    print(f"{len(plans)} plan(s): "
          f"{sum(1 for p in plans if p['ok'])} ok, "
          f"{sum(1 for p in plans if not p['ok'])} failing"
          + (" (strict)" if args.strict else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
