"""Rendering lint results for humans and machines."""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence

from repro.lint.framework import Violation

__all__ = ["render_json", "render_statistics", "render_text"]


def _per_rule_summary(violations: Sequence[Violation]) -> str:
    counts = Counter(v.code for v in violations)
    return ", ".join(f"{code} x{count}" for code, count in sorted(counts.items()))


def render_text(violations: Sequence[Violation], errors: Sequence[str]) -> str:
    """GCC-style ``file:line:col: CODE message`` lines plus a summary.

    The failing summary line lists per-rule counts so a CI log tail is
    enough to see *what kind* of regression landed.
    """
    lines = [violation.render() for violation in violations]
    lines.extend(f"error: {error}" for error in errors)
    if violations or errors:
        lines.append(
            f"prismalint: {len(violations)} violation(s)"
            f" [{_per_rule_summary(violations)}]"
            f", {len(errors)} file error(s)"
            if violations
            else f"prismalint: 0 violation(s), {len(errors)} file error(s)"
        )
    else:
        lines.append("prismalint: clean")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation], errors: Sequence[str]) -> str:
    """Stable machine-readable output (one object, sorted violations)."""
    payload = {
        "violations": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "code": v.code,
                "message": v.message,
                "hint": v.hint,
            }
            for v in violations
        ],
        "errors": list(errors),
        "counts": dict(Counter(v.code for v in violations)),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_statistics(violations: Sequence[Violation]) -> str:
    """Per-rule violation counts, most frequent first."""
    counts = Counter(v.code for v in violations)
    if not counts:
        return "no violations"
    width = max(len(code) for code in counts)
    return "\n".join(
        f"{code:<{width}}  {count}"
        for code, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    )
