"""Command-line front end of the four static analysis families.

Usage::

    python -m repro.analysis src/repro            # lint the solver tree
    python -m repro.analysis --concurrency src/repro  # static comm-check
    python -m repro.analysis --perf src/repro     # static perf analyzer
    python -m repro.analysis --sys src/repro      # static sys-check
    python -m repro.analysis --all src/repro      # all four, one report
    python -m repro.analysis --list-rules         # print the catalogue
    cubism-lint src/repro --select CL001,CL002    # installed entry point

The family flags only choose which families the one analysis pass runs;
every file is parsed once.  One family reports its own JSON payload;
several (``--all``) merge into one report (``repro.analysis_report/v1``)
with a worst-of exit code.

Exit codes: 0 clean, 1 violations found, 2 usage/config error (unknown
rule id, nonexistent path, unreadable file).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .lint import REGISTRY, Report, format_violations, registered_rules
from .program import FAMILIES, analyze

#: Schema identifier of the merged multi-family report.
MERGED_SCHEMA = "repro.analysis_report/v1"

#: Family -> the name its CLI summary line starts with.
TOOLS = {"lint": "cubism-lint", "comm": "comm-check", "perf": "kernel-check",
         "sys": "sys-check"}

#: Family -> the CLI flag that selects it (lint runs when none is given).
FLAGS = {"comm": "--concurrency", "perf": "--perf", "sys": "--sys"}


def _rule_set(spec: str | None) -> frozenset[str] | None:
    if spec is None:
        return None
    return frozenset(r.strip() for r in spec.split(",") if r.strip())


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser of the analysis CLI."""
    ap = argparse.ArgumentParser(
        prog="cubism-lint",
        description="Solver-aware lint enforcing the repo's precision, "
        "stencil and conservation contracts, plus the whole-program "
        "comm-check, kernel-check and sys-check families.",
    )
    ap.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    ap.add_argument(
        "--concurrency", action="store_true",
        help="run comm-check (whole-program MPI protocol verification, "
        "CC-series rules) instead of the per-file lint rules",
    )
    ap.add_argument(
        "--perf", action="store_true",
        help="run kernel-check (static hot-path performance analyzer, "
        "CP-series rules)",
    )
    ap.add_argument(
        "--sys", dest="syscheck", action="store_true",
        help="run sys-check (resource-lifecycle & process-safety "
        "analysis of the multi-process layers, RS-series rules)",
    )
    ap.add_argument(
        "--all", dest="all_families", action="store_true",
        help="run every family (lint + comm + perf + sys) in one pass "
        "and emit a single merged report with a worst-of exit code",
    )
    ap.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    ap.add_argument(
        "--ignore", metavar="RULES", default="",
        help="comma-separated rule ids to skip",
    )
    ap.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    ap.add_argument(
        "--report-out", metavar="PATH", default=None,
        help="write the findings as a JSON report (the CI artifact)",
    )
    ap.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary line, print violations only",
    )
    return ap


def list_rules() -> str:
    """Returns the formatted rule catalogue of every family."""
    lines = []
    for family in FAMILIES:
        for cls in registered_rules(family):
            scope = ", ".join(cls.default_paths or ()) or (
                "all files" if family == "lint" else "whole program")
            flag = FLAGS.get(family)
            lines.append(f"{cls.rule_id}  {cls.name}  [{scope}"
                         + (f", {flag}]" if flag else "]"))
            lines.append(f"       {cls.description}")
    return "\n".join(lines)


def merged_payload(reports: dict[str, Report]) -> dict:
    """Returns the ``repro.analysis_report/v1`` payload of several families."""
    findings = [
        {"family": family, "path": v.path, "line": v.line, "col": v.col,
         "rule": v.rule, "message": v.message}
        for family, report in reports.items()
        for v in report.violations
    ]
    return {
        "schema": MERGED_SCHEMA,
        "families": {f: r.to_dict() for f, r in reports.items()},
        "findings": sorted(
            findings, key=lambda f: (f["path"], f["line"], f["rule"])
        ),
        "totals": {
            "findings": len(findings),
            "by_family": {f: len(r) for f, r in reports.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0

    select = _rule_set(args.select)
    ignore = _rule_set(args.ignore) or frozenset()
    unknown = ((select or frozenset()) | ignore) - set(REGISTRY)
    if unknown:
        print(
            f"cubism-lint: unknown rule id(s): {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"cubism-lint: no such path(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    chosen = {"comm": args.concurrency, "perf": args.perf, "sys": args.syscheck}
    if args.all_families:
        families = FAMILIES
    else:
        families = tuple(f for f, on in chosen.items() if on) or ("lint",)
    try:
        reports = analyze(args.paths, families, select, ignore)
        if args.report_out:
            payload = (reports[families[0]].to_dict() if len(reports) == 1
                       else merged_payload(reports))
            with open(args.report_out, "w", encoding="utf-8") as f:
                json.dump(payload, f, indent=2)
    except OSError as exc:
        print(f"cubism-lint: {exc}", file=sys.stderr)
        return 2
    # A parse error (CL000) is reported by every family: print it once.
    violations = sorted({v for r in reports.values() for v in r.violations})
    if violations:
        print(format_violations(violations))
        if not args.quiet:
            print(
                f"\n{len(violations)} violation(s) in "
                f"{len({v.path for v in violations})} file(s)",
                file=sys.stderr,
            )
        return 1
    if not args.quiet:
        if len(reports) == 1:
            message = f"{TOOLS[families[0]]}: {reports[families[0]].summary()}"
        else:
            message = "analysis: all families clean ({})".format(
                ", ".join(f"{f}={len(r)}" for f, r in reports.items()))
        print(message, file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
