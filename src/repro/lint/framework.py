"""Rule framework for prismalint.

A :class:`Rule` inspects one parsed :class:`SourceFile` and yields
:class:`Violation` records; no rule sees another file.  The framework
handles the parts every rule needs: parsing, import resolution, the
one function walker (:func:`iter_functions`), the one answer to "does
this function charge for its work" (:func:`charges`), and the
``# prismalint: disable=`` escape hatch.

Disable comments come in two strengths:

* a comment *line* of its own (nothing but whitespace before the ``#``)
  disables the listed rules for the **whole file**;
* a *trailing* comment on a code line disables them for **that line
  only** (the line the violation is reported on).

``disable=all`` switches every rule off.  A reason after the codes is
encouraged: ``# prismalint: disable=PL004 -- charged by the caller``.
A pragma naming a rule code that no registered rule carries is itself
reported (as ``PL000``) instead of being silently accepted — a typo'd
``disable=PL102`` pragma that suppresses nothing is worse than noise.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "PRAGMA_CODE",
    "FunctionNode",
    "ImportMap",
    "LintError",
    "Rule",
    "SourceFile",
    "Violation",
    "call_name",
    "charges",
    "iter_functions",
    "iter_python_files",
    "lint_paths",
    "registered_codes",
]

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Directory names never descended into when a directory is linted.
#: (Explicitly named files are always linted, so the violating fixtures
#: under tests/lint_fixtures stay reachable from the test suite.)
DEFAULT_EXCLUDED_DIRS = frozenset(
    {
        ".git",
        ".mypy_cache",
        ".ruff_cache",
        ".venv",
        "__pycache__",
        "build",
        "dist",
        "lint_fixtures",
    }
)

_DISABLE_RE = re.compile(r"#\s*prismalint:\s*disable=([A-Za-z0-9, ]+)")

#: Meta-code for problems with the pragmas themselves (unknown rule
#: codes in a ``disable=`` list).  Not a selectable rule.
PRAGMA_CODE = "PL000"

#: Codes of every Rule subclass ever defined (auto-populated by
#: ``Rule.__init_subclass__``); the vocabulary pragmas are checked
#: against.
_REGISTERED_CODES: set[str] = set()


def registered_codes() -> frozenset[str]:
    """Every rule code known to the framework (for pragma validation)."""
    return frozenset(_REGISTERED_CODES)


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
            f"\n    hint: {self.hint}"
        )


class LintError(Exception):
    """A file could not be linted at all (I/O or syntax error)."""


def _parse_disables(
    text: str,
) -> tuple[set[str], dict[int, set[str]], list[tuple[int, str]]]:
    """Extract file/line disable pragmas plus unknown-code problems."""
    file_disables: set[str] = set()
    line_disables: dict[int, set[str]] = {}
    problems: list[tuple[int, str]] = []
    known = registered_codes()
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _DISABLE_RE.search(line)
        if match is None:
            continue
        codes = {
            code.strip().upper()
            for code in match.group(1).split(",")
            if code.strip()
        }
        for code in sorted(codes):
            if code != "ALL" and code not in known:
                problems.append((lineno, code))
        if line[: match.start()].strip() == "":
            file_disables |= codes
        else:
            line_disables.setdefault(lineno, set()).update(codes)
    return file_disables, line_disables, problems


@dataclass
class SourceFile:
    """One parsed Python file plus its disable pragmas."""

    path: Path
    text: str
    tree: ast.Module
    file_disables: set[str] = field(default_factory=set)
    line_disables: dict[int, set[str]] = field(default_factory=dict)
    #: ``(lineno, code)`` for disable pragmas naming unknown rule codes.
    pragma_problems: list[tuple[int, str]] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path) -> "SourceFile":
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"{path}: cannot read: {exc}") from exc
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            raise LintError(
                f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"
            ) from exc
        file_disables, line_disables, problems = _parse_disables(text)
        return cls(path, text, tree, file_disables, line_disables, problems)

    def is_disabled(self, code: str, line: int) -> bool:
        for scope in (self.file_disables, self.line_disables.get(line, ())):
            if code in scope or "ALL" in scope:
                return True
        return False

    def path_parts(self) -> tuple[str, ...]:
        return self.path.parts


class ImportMap:
    """Resolves names in one module back to their imported origin.

    ``import time as t`` maps ``t`` to ``time``; ``from random import
    choice as pick`` maps ``pick`` to ``random.choice``.  Attribute
    chains are appended, so ``t.perf_counter`` resolves to
    ``time.perf_counter`` and ``datetime.datetime.now`` to itself.
    """

    def __init__(self, tree: ast.Module):
        self._origins: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._origins[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self._origins[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted origin of an expression, or None when not import-rooted."""
        chain: list[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self._origins.get(node.id)
        if origin is None:
            return None
        return ".".join([origin, *reversed(chain)])


def iter_functions(tree: ast.Module) -> Iterator[tuple[str | None, FunctionNode]]:
    """Yield ``(class_name, fn)`` for every function/method not nested
    inside another function.

    A nested closure is analysed as part of its enclosing function, so
    a function that charges on behalf of its closure still counts.
    """

    def walk(
        node: ast.AST, owner: str | None
    ) -> Iterator[tuple[str | None, FunctionNode]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                yield owner, child
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif not isinstance(child, ast.Lambda):
                yield from walk(child, owner)

    return walk(tree, None)


def call_name(call: ast.Call) -> str:
    """Bare name of the called function (last attribute component)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


#: A name (or last attribute) matching this denotes a work meter.
_METER_NAME_RE = re.compile(r"(^|_)meter$|^meter(_|$)")
_METER_ANNOTATION_RE = re.compile(r"\bWorkMeter\b")


def _names_meter(expr: ast.expr) -> bool:
    """Does *expr* name a work meter (``meter``, ``self._meter`` ...)?

    Subscript steps are transparent; the chain must bottom out at a
    plain name, so a call result never counts.
    """
    last: str | None = None
    while isinstance(expr, ast.Attribute | ast.Subscript):
        if last is None and isinstance(expr, ast.Attribute):
            last = expr.attr
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return False
    return bool(_METER_NAME_RE.search(last if last is not None else expr.id))


def charges(fn: FunctionNode) -> bool:
    """Does *fn* itself account for the simulated work it does?

    It does when it calls ``*charge*``, bumps a meter's counters
    (``meter.tuples += n``, ``meter.add(...)``), hands a meter to a
    callee, or takes a meter parameter (its caller hands it the meter).
    Nothing else counts: a callee's body is never consulted, so a
    function whose work is billed elsewhere names that site in a
    ``disable=`` pragma, the one place a cross-function charge is
    written down.
    """
    arguments = fn.args
    for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]:
        if _METER_NAME_RE.search(arg.arg) or (
            arg.annotation is not None
            and _METER_ANNOTATION_RE.search(ast.unparse(arg.annotation))
        ):
            return True
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if "charge" in name:
                return True
            if (
                name == "add"
                and isinstance(node.func, ast.Attribute)
                and _names_meter(node.func.value)
            ):
                return True
            if any(
                _names_meter(arg)
                for arg in [*node.args, *[kw.value for kw in node.keywords]]
            ):
                return True
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Attribute
        ):
            if _names_meter(node.target.value):
                return True
    return False


class Rule:
    """Base class: subclasses set ``code``/``name``/``hint`` and implement
    :meth:`check` to yield violations for one file."""

    code: str = PRAGMA_CODE
    name: str = "abstract"
    hint: str = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.code != PRAGMA_CODE:
            _REGISTERED_CODES.add(cls.code)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, source: SourceFile, node: ast.AST | None, message: str
    ) -> Violation:
        line = getattr(node, "lineno", 0) or 0
        col = getattr(node, "col_offset", 0) or 0
        return Violation(
            path=str(source.path),
            line=line,
            col=col + 1,
            code=self.code,
            message=message,
            hint=self.hint,
        )

    def run(self, source: SourceFile) -> Iterator[Violation]:
        """Apply the rule, honouring disable pragmas."""
        for violation in self.check(source):
            if not source.is_disabled(self.code, violation.line):
                yield violation


def iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """Yield .py files under *paths*; explicit files bypass exclusions."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path not in seen:
                seen.add(path)
                yield path
            continue
        if not path.is_dir():
            raise LintError(f"{path}: no such file or directory")
        for candidate in sorted(path.rglob("*.py")):
            relative = candidate.relative_to(path)
            if any(part in DEFAULT_EXCLUDED_DIRS for part in relative.parts[:-1]):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _pragma_violations(source: SourceFile) -> Iterator[Violation]:
    """PL000 findings for disable pragmas naming unknown rule codes."""
    for lineno, code in source.pragma_problems:
        if source.is_disabled(PRAGMA_CODE, lineno):
            continue
        yield Violation(
            path=str(source.path),
            line=lineno,
            col=1,
            code=PRAGMA_CODE,
            message=f"unknown rule code {code!r} in disable pragma",
            hint=(
                "this pragma suppresses nothing; fix the typo or drop the "
                f"code (known codes: {', '.join(sorted(registered_codes()))})"
            ),
        )


def lint_paths(
    paths: Sequence[Path | str],
    rules: Iterable[Rule],
) -> tuple[list[Violation], list[str]]:
    """Lint every Python file under *paths* with *rules*, one file at a
    time.

    Returns ``(violations, errors)`` where *errors* are files that could
    not be parsed (these should fail the run too).
    """
    rules = list(rules)
    violations: list[Violation] = []
    errors: list[str] = []
    for path in iter_python_files(paths):
        try:
            source = SourceFile.load(path)
        except LintError as exc:
            errors.append(str(exc))
            continue
        violations.extend(_pragma_violations(source))
        for rule in rules:
            violations.extend(rule.run(source))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations, errors
