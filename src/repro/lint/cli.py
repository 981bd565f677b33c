"""Command-line entry point: ``python -m repro.lint <paths>``.

Exit status: 0 clean, 1 violations found, 2 usage or file errors.  A
justified finding is suppressed where it stands, by a disable pragma
carrying its reason (:mod:`repro.lint`).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.lint.framework import LintError, Rule, lint_paths
from repro.lint.report import render_json, render_statistics, render_text
from repro.lint.rules_cost import UnmeteredWorkRule
from repro.lint.rules_determinism import UnorderedIterationRule
from repro.lint.rules_errors import ExceptionHygieneRule
from repro.lint.rules_messaging import ClockDisciplineRule, SharedStateRule
from repro.lint.rules_obs import ObsWallClockRule
from repro.lint.rules_random import UnseededRandomRule
from repro.lint.rules_snapshot import SnapshotConformanceRule
from repro.lint.rules_time import WallClockRule

__all__ = ["ALL_RULES", "main"]

#: Every registered rule class, in rule-code order.
ALL_RULES: tuple[type[Rule], ...] = (
    WallClockRule,
    UnseededRandomRule,
    SharedStateRule,
    ClockDisciplineRule,
    ExceptionHygieneRule,
    ObsWallClockRule,
    UnmeteredWorkRule,
    UnorderedIterationRule,
    SnapshotConformanceRule,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "prismalint: project-wide static analysis for the simulated "
            "PRISMA machine (determinism, message-passing only, clock "
            "discipline, cost accounting, Snapshot conformance)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule violation counts",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _parse_codes(raw: str | None) -> set[str]:
    if not raw:
        return set()
    return {code.strip().upper() for code in raw.split(",") if code.strip()}


def _select_rules(select: set[str], ignore: set[str]) -> list[Rule]:
    known = {cls.code for cls in ALL_RULES}
    for code in sorted((select | ignore) - known):
        raise LintError(f"unknown rule code: {code}")
    chosen = [
        cls()
        for cls in ALL_RULES
        if (not select or cls.code in select) and cls.code not in ignore
    ]
    if not chosen:
        raise LintError("rule selection left nothing to run")
    return chosen


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for cls in ALL_RULES:
            doc = (cls.__doc__ or "").strip().splitlines()[0]
            print(f"{cls.code}  {cls.name:<24} {doc}")
        return 0
    try:
        rules = _select_rules(_parse_codes(args.select), _parse_codes(args.ignore))
        violations, errors = lint_paths(args.paths, rules)
    except LintError as exc:
        print(f"prismalint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(violations, errors))
    else:
        print(render_text(violations, errors))
    if args.statistics and violations:
        print(render_statistics(violations))
    if errors:
        return 2
    return 1 if violations else 0
