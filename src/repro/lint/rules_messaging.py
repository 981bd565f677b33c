"""PL003 / PL004 — the message-passing discipline of Section 3.1.

POOL-X processes "communicate via message-passing only, i.e. no shared
memory".  In the reproduction that means a process may mutate only its
own state; everything it wants another process to know must travel
through :meth:`PoolRuntime.send`, which charges the machine's network
cost model.  Two statically checkable
failure modes:

* **PL003** — cross-process mutation: writing an attribute on an object
  reached through *another* process reference, or module-level mutable
  state referenced from more than one process class.  Both are shared
  memory wearing a trench coat.
* **PL004** — clock indiscipline: a function that ships messages via
  ``runtime.send`` but never charges any CPU anywhere suggests the work
  that *produced* the message is unaccounted for, silently deflating
  response times.

Both rules apply only to modules under ``pool/``, ``machine/`` and
``core/`` directories — the layers that carry the simulation's
correctness argument.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.framework import Rule, SourceFile, Violation

__all__ = ["ClockDisciplineRule", "SharedStateRule"]

SCOPED_DIRS = frozenset({"pool", "machine", "core"})

_MUTABLE_CONSTRUCTORS = frozenset(
    {"Counter", "OrderedDict", "bytearray", "defaultdict", "deque", "dict", "list", "set"}
)


def _in_scope(source: SourceFile) -> bool:
    return any(part in SCOPED_DIRS for part in source.path_parts()[:-1])


def _top_level_functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Functions/methods not nested inside another function.

    Nested closures are analysed as part of their enclosing function, so
    a helper that charges on behalf of its closure still counts.
    """

    def walk(node: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
            elif isinstance(child, ast.ClassDef):
                yield from walk(child)
            elif not isinstance(child, ast.Lambda):
                yield from walk(child)

    return walk(tree)


def _annotation_is_process(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return "Process" in text or "Manager" in text


def _process_typed_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names in *fn* that (heuristically) refer to a PoolProcess."""
    names: set[str] = set()
    arguments = fn.args
    for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]:
        if _annotation_is_process(arg.annotation):
            names.add(arg.arg)
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if attr == "spawn" or (
            "process" in attr.lower() and attr not in {"live_processes", "processes"}
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    names.discard("self")
    return names


def _root_name(target: ast.expr) -> str | None:
    """Root Name of an attribute/subscript chain, if the chain has one
    attribute step (i.e. the write lands on somebody else's state)."""
    node = target
    saw_attribute = False
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            saw_attribute = True
        node = node.value
    if saw_attribute and isinstance(node, ast.Name):
        return node.id
    return None


class SharedStateRule(Rule):
    """PL003: message-passing only — no cross-process mutation, no
    module-level mutable state shared between process classes."""

    code = "PL003"
    name = "message-passing-only"
    hint = (
        "processes own their state; communicate through PoolRuntime.send "
        "instead of reaching into another process (Section 3.1: no shared memory)"
    )

    def check(self, source: SourceFile) -> Iterator[Violation]:
        if not _in_scope(source):
            return
        yield from self._cross_process_writes(source)
        yield from self._shared_module_state(source)

    def _cross_process_writes(self, source: SourceFile) -> Iterator[Violation]:
        for fn in _top_level_functions(source.tree):
            process_names = _process_typed_names(fn)
            if not process_names:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    root = _root_name(target)
                    if root in process_names:
                        yield self.violation(
                            source,
                            node,
                            f"cross-process mutation: {ast.unparse(target)} "
                            f"writes through process reference {root!r}",
                        )

    def _shared_module_state(self, source: SourceFile) -> Iterator[Violation]:
        tree = source.tree
        mutable_globals: dict[str, ast.stmt] = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            else:
                continue
            if not _is_mutable_literal(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    mutable_globals[target.id] = stmt
        if not mutable_globals:
            return
        process_classes = _process_classes(tree)
        if len(process_classes) < 2:
            return
        for name, stmt in mutable_globals.items():
            sharers = [
                cls.name
                for cls in process_classes
                if any(
                    isinstance(node, ast.Name) and node.id == name
                    for node in ast.walk(cls)
                )
            ]
            if len(sharers) >= 2:
                yield self.violation(
                    source,
                    stmt,
                    f"module-level mutable {name!r} is shared by process "
                    f"classes {', '.join(sharers)}",
                )


def _is_mutable_literal(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _process_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """Classes that (transitively, within this module) subclass a
    process type — detected by base names containing 'Process'."""
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    process_names: set[str] = set()
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in process_names:
                continue
            for base in cls.bases:
                text = ast.unparse(base)
                if "Process" in text or text in process_names:
                    process_names.add(cls.name)
                    changed = True
                    break
    return [cls for cls in classes if cls.name in process_names]


class ClockDisciplineRule(Rule):
    """PL004: a function that sends but never charges is hiding CPU."""

    code = "PL004"
    name = "clock-discipline"
    hint = (
        "charge() the sending process for the CPU that produced this message; "
        "if that happens elsewhere, annotate the send with "
        "'# prismalint: disable=PL004 -- <where>'"
    )

    def check(self, source: SourceFile) -> Iterator[Violation]:
        if not _in_scope(source):
            return
        for fn in _top_level_functions(source.tree):
            sends = []
            charges = False
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr == "send" and "runtime" in ast.unparse(func.value):
                        sends.append(node)
                    elif "charge" in func.attr:
                        charges = True
                elif isinstance(func, ast.Name) and "charge" in func.id:
                    charges = True
            if charges:
                continue
            for send in sends:
                yield self.violation(
                    source,
                    send,
                    f"PoolRuntime.send in {fn.name}() which never charges "
                    "the sending process",
                )
