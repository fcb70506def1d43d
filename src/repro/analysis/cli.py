"""Entry point: ``python -m repro.analysis`` / ``repro analyze``.

Runs the passes of :data:`repro.analysis.registry.REGISTRY` (per-pillar
prose: ``docs/analysis.md``) and reports findings as text or JSON:

"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Sequence, TextIO

from .findings import Finding, sort_findings
from .registry import REGISTRY, pass_summary

__all__ = ["build_parser", "main", "select_passes"]

__doc__ = (__doc__ or "") + pass_summary() + """

Pass selection is documented once, in ``docs/analysis.md`` (and
``--help``).  Every finding fails the run: exit status 0 when clean,
1 when any finding exists, 2 on usage errors.
"""

PASSES = tuple(row.name for row in REGISTRY if row.default)
ALL_PASSES = tuple(row.name for row in REGISTRY)
#: rows selected by their own ``--<name>`` flag: all but lint (always
#: path-driven) and schedule (``--schedule-only`` / ``--no-schedule``)
_FLAGGED = tuple(row for row in REGISTRY
                 if row.name not in ("lint", "schedule"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Static analysis: " + ", ".join(
            f"{row.title} ({row.family})" for row in REGISTRY) + ".",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json"), help="output format")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--no-schedule", action="store_true",
                      help="skip the collective-schedule verifier")
    mode.add_argument("--schedule-only", action="store_true",
                      help="run only the collective-schedule verifier")
    for row in _FLAGGED:
        parser.add_argument(f"--{row.name}", action="store_true",
                            help=f"run only the {row.title} (combines "
                                 f"with the other pass flags)")
    parser.add_argument("--all", dest="all_passes", action="store_true",
                        help=f"run every battery ({', '.join(ALL_PASSES)})")
    return parser


def select_passes(args: argparse.Namespace) -> tuple[str, ...]:
    """Which passes a parsed command line asks for (docs/analysis.md)."""
    named = [row.name for row in _FLAGGED if getattr(args, row.name)]
    if args.all_passes:
        if args.schedule_only or args.no_schedule or named:
            raise SystemExit(
                "repro.analysis: --all cannot combine with pass-"
                "selection flags (it already runs every battery)")
        return ALL_PASSES
    if args.schedule_only:
        if named:
            raise SystemExit(
                "repro.analysis: --schedule-only cannot combine with "
                f"--{'/--'.join(named)}")
        return ("schedule",)
    if named:
        if args.no_schedule:
            raise SystemExit(
                "repro.analysis: --no-schedule is redundant with "
                f"--{'/--'.join(named)} (schedule is already deselected)")
        return tuple(named)
    if args.no_schedule:
        return tuple(name for name in PASSES if name != "schedule")
    return PASSES


def _report(findings: list[Finding], fmt: str, out: TextIO) -> None:
    if fmt == "json":
        summary = {
            "total": len(findings),
            "by_rule": dict(sorted(Counter(f.rule for f in findings).items())),
        }
        payload = {
            "version": 2,
            "findings": [f.to_dict() for f in findings],
            "summary": summary,
        }
        print(json.dumps(payload, indent=2), file=out)
        return
    for finding in findings:
        print(finding.render(), file=out)
    if findings:
        print(f"{len(findings)} finding(s)", file=out)
    else:
        print("clean: no findings", file=out)


def main(argv: Sequence[str] | None = None, out: TextIO | None = None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        passes = select_passes(args)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    selected = [row for row in REGISTRY if row.name in passes]
    if any(row.lints_paths for row in selected):
        for path in args.paths:
            if not os.path.exists(path):
                print(f"repro.analysis: path not found: {path}",
                      file=sys.stderr)
                return 2
    findings: list[Finding] = []
    for row in selected:
        findings.extend(row.run(args.paths))
    findings = sort_findings(findings)
    _report(findings, args.fmt, out)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
