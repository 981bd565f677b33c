"""Project-wide symbol index for prismalint.

The PL001–PL006 generation of rules looked at one file at a time, so
bug classes that only show up *across* functions or modules — an
uncharged loop whose helper was supposed to bill the meter, a stats
surface missing one leg of the Snapshot protocol it inherits from two
modules away — sailed through.  :class:`ProjectIndex` gives rules the
cross-module view:

* a symbol table of every module, class, and function in the linted
  file set (module names recovered from the ``src`` layout);
* per-function **summaries** — "charges a WorkMeter", "calls what" —
  computed once;
* a **one-level call graph**: a function that calls a directly-charging
  helper (or hands its meter to one) is itself considered charging.
  One level is deliberate: deeper transitive closure would launder
  accountability through long chains, and the paper's cost argument
  wants the charge visible near the work.

Rules that need the index subclass :class:`ProjectRule` and receive it
in :meth:`~ProjectRule.check_project`.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.lint.dataflow import access_path
from repro.lint.framework import Rule, SourceFile, Violation

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "FunctionSummary",
    "ProjectIndex",
    "ProjectRule",
    "iter_functions",
]

#: A parameter whose name or annotation matches is a work meter: the
#: holder is expected to bill simulated work to it.
_METER_NAME_RE = re.compile(r"(^|_)meter$|^meter(_|$)")
_METER_ANNOTATION_RE = re.compile(r"\bWorkMeter\b")

#: Bases that are interface machinery, not project classes.
_EXTERNAL_BASES = frozenset(
    {"ABC", "Enum", "Exception", "Generic", "Protocol", "object"}
)


def iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(class_name, fn)`` for every top-level function/method.

    Functions nested inside other functions are analysed as part of
    their enclosing function, mirroring the PL003/PL004 convention.
    """

    def walk(
        node: ast.AST, owner: str | None
    ) -> Iterator[tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                yield owner, child
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif not isinstance(child, ast.Lambda):
                yield from walk(child, owner)

    return walk(tree, None)


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed node
        return ""


def _is_meter_param(arg: ast.arg) -> bool:
    if _METER_NAME_RE.search(arg.arg):
        return True
    return arg.annotation is not None and bool(
        _METER_ANNOTATION_RE.search(_unparse(arg.annotation))
    )


def _is_meter_expr(expr: ast.expr) -> bool:
    """Does *expr* name a work meter (``meter``, ``self._meter`` ...)?"""
    path = access_path(expr)
    return path is not None and bool(_METER_NAME_RE.search(path[-1]))


def _is_abstract_body(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body that is only a docstring plus ``...``/``raise NotImplementedError``."""
    body = list(fn.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        return "NotImplementedError" in _unparse(stmt.exc)
    if isinstance(stmt, ast.Pass):
        return True
    return False


@dataclass(frozen=True)
class FunctionSummary:
    """What one function does, as far as the rules care."""

    #: Bills work directly: mutates a meter's counters, calls
    #: ``*.charge(...)``, or hands a meter to a callee.
    charges_directly: bool
    #: Bare names of everything it calls (one level of the call graph).
    calls: frozenset[str]


@dataclass
class FunctionInfo:
    """One function or method plus its summary."""

    module: str
    qualname: str
    name: str
    owner: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    meter_params: frozenset[str]
    is_abstract: bool
    summary: FunctionSummary


@dataclass
class ClassInfo:
    """One class: resolved base names and its methods."""

    module: str
    name: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


def _summarise(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> FunctionSummary:
    charges = False
    calls: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            callee = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else ""
            )
            if callee:
                calls.add(callee)
            if "charge" in callee:
                charges = True
            elif (
                callee == "add"
                and isinstance(func, ast.Attribute)
                and _is_meter_expr(func.value)
            ):
                charges = True
            elif any(
                _is_meter_expr(arg)
                for arg in [*node.args, *[kw.value for kw in node.keywords]]
            ):
                # Handing the meter to a callee delegates the billing.
                charges = True
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Attribute
        ):
            if _is_meter_expr(node.target.value):
                charges = True
    return FunctionSummary(charges_directly=charges, calls=frozenset(calls))


def _module_name(source: SourceFile) -> str:
    """Dotted module name recovered from the path (``src`` layout aware)."""
    parts = list(source.path.parts)
    stem = source.path.stem
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    dotted = [p for p in parts[:-1] if p not in (".", "")]
    if stem != "__init__":
        dotted.append(stem)
    return ".".join(dotted) if dotted else stem


class ProjectIndex:
    """Symbol table + summaries + one-level call graph over a file set."""

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        #: bare function name -> every FunctionInfo carrying it
        self.functions: dict[str, list[FunctionInfo]] = {}
        #: bare class name -> every ClassInfo carrying it
        self.classes: dict[str, list[ClassInfo]] = {}
        #: id(ast node) -> its FunctionInfo, for O(1) node lookups
        self._by_node: dict[int, FunctionInfo] = {}
        for source in sources:
            self._index_source(source)
        self._charging: frozenset[str] = self._compute_charging()

    # -- construction -----------------------------------------------------

    def _index_source(self, source: SourceFile) -> None:
        module = _module_name(source)
        class_infos: dict[str, ClassInfo] = {}
        for stmt in source.tree.body:
            if isinstance(stmt, ast.ClassDef):
                bases = tuple(
                    base
                    for base in (_unparse(b).split("[")[0] for b in stmt.bases)
                    if base
                )
                info = ClassInfo(module=module, name=stmt.name, node=stmt, bases=bases)
                class_infos[stmt.name] = info
                self.classes.setdefault(stmt.name, []).append(info)
        for owner, fn in iter_functions(source.tree):
            arguments = fn.args
            meter_params = frozenset(
                arg.arg
                for arg in [
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                ]
                if _is_meter_param(arg)
            )
            info = FunctionInfo(
                module=module,
                qualname=f"{owner}.{fn.name}" if owner else fn.name,
                name=fn.name,
                owner=owner,
                node=fn,
                meter_params=meter_params,
                is_abstract=_is_abstract_body(fn),
                summary=_summarise(fn),
            )
            self.functions.setdefault(fn.name, []).append(info)
            self._by_node[id(fn)] = info
            if owner in class_infos and fn.name not in class_infos[owner].methods:
                class_infos[owner].methods[fn.name] = info

    def _compute_charging(self) -> frozenset[str]:
        """Names considered charging helpers.

        A function charges if it bills directly, or takes a meter
        parameter (callers hand it the meter), or — one call-graph
        level — calls a function that bills directly.
        """
        direct = {
            name
            for name, infos in self.functions.items()
            if any(
                info.summary.charges_directly or info.meter_params
                for info in infos
            )
        }
        one_level = {
            name
            for name, infos in self.functions.items()
            if any(info.summary.calls & direct for info in infos)
        }
        return frozenset(direct | one_level)

    # -- queries ----------------------------------------------------------

    def is_charging_callee(self, name: str) -> bool:
        """Does calling *name* account simulated work to a meter?"""
        return "charge" in name or name in self._charging

    def function_for_node(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> FunctionInfo | None:
        """The FunctionInfo built for exactly this AST node."""
        return self._by_node.get(id(fn))

    def lookup_class(self, name: str) -> ClassInfo | None:
        """The project class called *name* (last dotted component)."""
        infos = self.classes.get(name.rsplit(".", maxsplit=1)[-1])
        return infos[0] if infos else None

    def resolve_methods(
        self, cls: ClassInfo, _seen: frozenset[str] = frozenset()
    ) -> dict[str, FunctionInfo]:
        """Methods of *cls* including project bases (depth-first MRO-ish)."""
        if cls.name in _seen:
            return {}
        seen = _seen | {cls.name}
        resolved: dict[str, FunctionInfo] = {}
        for base in cls.bases:
            last = base.rsplit(".", maxsplit=1)[-1]
            if last in _EXTERNAL_BASES:
                continue
            base_info = self.lookup_class(last)
            if base_info is not None:
                for name, info in self.resolve_methods(base_info, seen).items():
                    resolved.setdefault(name, info)
        resolved.update(cls.methods)
        return resolved

    def unresolved_bases(
        self, cls: ClassInfo, _seen: frozenset[str] = frozenset()
    ) -> tuple[str, ...]:
        """Base names (transitively) that the index cannot see.

        A non-empty result means inherited members may exist outside the
        linted file set, so "missing method" conclusions are unsafe.
        """
        if cls.name in _seen:
            return ()
        seen = _seen | {cls.name}
        missing: list[str] = []
        for base in cls.bases:
            last = base.rsplit(".", maxsplit=1)[-1]
            if last in _EXTERNAL_BASES:
                continue
            info = self.lookup_class(last)
            if info is None:
                missing.append(base)
            else:
                missing.extend(self.unresolved_bases(info, seen))
        return tuple(missing)


class ProjectRule(Rule):
    """A rule that needs the cross-module :class:`ProjectIndex`."""

    requires_project = True

    def check_project(
        self, source: SourceFile, index: ProjectIndex
    ) -> Iterator[Violation]:
        raise NotImplementedError

    def check(self, source: SourceFile) -> Iterator[Violation]:
        # Degrade gracefully: a project of one file is still a project.
        yield from self.check_project(source, ProjectIndex([source]))

    def run(
        self, source: SourceFile, index: ProjectIndex | None = None
    ) -> Iterator[Violation]:
        checker = (
            self.check(source)
            if index is None
            else self.check_project(source, index)
        )
        for violation in checker:
            if not source.is_disabled(self.code, violation.line):
                yield violation
