"""PL104 — payload mutated after a ``send``/``post`` (static ownership).

Messages in the real PRISMA machine are copied onto the wire; in the
reproduction they are Python references, so a sender that keeps
mutating a payload after :meth:`PoolRuntime.post` hands the receiver a
*different* message than the one that was "sent".  The runtime
sanitizer (:mod:`repro.pool.sanitizer`, always on) catches this when it
happens in a run; this rule is its static complement, catching the pattern
before any test executes — including in paths the suite never drives.

Within each function, every ``*.send(...)`` / ``*.post(...)`` call is
scanned for payload arguments (``post``'s third positional, or a
``payload=``/``message=``/``msg=`` keyword on either).  If the payload
is a name or ``self.<attr>`` path, any lexically later in-place
mutation of that object in the same function — attribute/subscript
stores, ``append``/``update``/... calls — is flagged.  One level of the
call graph is consulted too: handing the sent payload to a project
helper whose summary says it mutates its parameters is flagged as a
probable mutation-by-proxy.

Rebinding the name (``payload = {...}``) is fine — that is how you
*stop* owning a message.  Mutations lexically before the send (loop
bodies that rebuild then re-send) are the runtime sanitizer's half of
the contract.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.dataflow import access_path, iter_mutations
from repro.lint.framework import SourceFile, Violation
from repro.lint.project import ProjectIndex, ProjectRule, iter_functions

__all__ = ["MessageOwnershipRule"]

_SEND_METHODS = frozenset({"post", "send"})
_PAYLOAD_KEYWORDS = frozenset({"message", "msg", "payload"})


def _payload_exprs(call: ast.Call) -> Iterator[ast.expr]:
    func = call.func
    method = func.attr if isinstance(func, ast.Attribute) else ""
    if method == "post" and len(call.args) >= 3:
        yield call.args[2]
    for keyword in call.keywords:
        if keyword.arg in _PAYLOAD_KEYWORDS:
            yield keyword.value


def _is_send_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _SEND_METHODS
    )


def _fmt(path: tuple[str, ...]) -> str:
    return ".".join(path)


class MessageOwnershipRule(ProjectRule):
    """PL104: once sent, a payload belongs to the receiver."""

    code = "PL104"
    name = "message-ownership"
    hint = (
        "a sent payload belongs to the receiver; build a fresh object per "
        "message (or rebind before reuse) — the runtime sanitizer "
        "enforces the same contract on every post"
    )

    def check_project(
        self, source: SourceFile, index: ProjectIndex
    ) -> Iterator[Violation]:
        for owner, fn in iter_functions(source.tree):
            qual = f"{owner}.{fn.name}" if owner else fn.name
            sends: list[tuple[int, tuple[str, ...]]] = []
            for node in ast.walk(fn):
                if not _is_send_call(node):
                    continue
                assert isinstance(node, ast.Call)
                for payload in _payload_exprs(node):
                    path = access_path(payload)
                    if path is not None:
                        sends.append((node.lineno, path))
            if not sends:
                continue
            rebinds = self._rebind_lines(fn)
            yield from self._direct_mutations(source, fn, qual, sends, rebinds)
            yield from self._proxy_mutations(
                source, index, fn, qual, sends, rebinds
            )

    @staticmethod
    def _rebind_lines(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> dict[str, list[int]]:
        """Lines where a bare name is rebound (ownership released)."""
        rebinds: dict[str, list[int]] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets: list[ast.expr] = list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    rebinds.setdefault(target.id, []).append(node.lineno)
        return rebinds

    @staticmethod
    def _released(
        rebinds: dict[str, list[int]],
        payload: tuple[str, ...],
        send_line: int,
        use_line: int,
    ) -> bool:
        """Was the payload name rebound between the send and the use?"""
        return any(
            send_line < line <= use_line
            for line in rebinds.get(payload[0], ())
        )

    def _direct_mutations(
        self,
        source: SourceFile,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        sends: list[tuple[int, tuple[str, ...]]],
        rebinds: dict[str, list[int]],
    ) -> Iterator[Violation]:
        for mutated, node in iter_mutations(fn):
            lineno = getattr(node, "lineno", 0)
            for send_line, payload in sends:
                if lineno <= send_line:
                    continue
                if self._released(rebinds, payload, send_line, lineno):
                    continue
                if mutated[: len(payload)] == payload:
                    yield self.violation(
                        source,
                        node,
                        f"{_fmt(mutated)} is mutated in {qual}() after "
                        f"{_fmt(payload)} was sent on line {send_line}",
                    )
                    break

    def _proxy_mutations(
        self,
        source: SourceFile,
        index: ProjectIndex,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        sends: list[tuple[int, tuple[str, ...]]],
        rebinds: dict[str, list[int]],
    ) -> Iterator[Violation]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call) or _is_send_call(node):
                continue
            func = node.func
            callee = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else ""
            )
            if not callee or not index.mutates_params(callee):
                continue
            for arg in node.args:
                path = access_path(arg)
                if path is None:
                    continue
                for send_line, payload in sends:
                    if (
                        node.lineno > send_line
                        and path == payload
                        and not self._released(
                            rebinds, payload, send_line, node.lineno
                        )
                    ):
                        yield self.violation(
                            source,
                            node,
                            f"{_fmt(payload)} was sent on line {send_line} "
                            f"and is later passed to {callee}(), which "
                            "mutates its parameters",
                        )
                        break
