"""PL103 — Snapshot-protocol conformance, checked cross-module.

:mod:`repro.obs.api` defines the one shape every stats surface agrees
on: ``stats() -> Mapping`` and ``fingerprint() -> str``, both taking
only ``self``.  The :class:`Observatory` facade, the golden-stats
machinery, and the perf gate all *assume* that shape — a class that
grew a ``stats()`` but no ``fingerprint()`` works fine until the first
``observatory.fingerprint()`` walks into an ``AttributeError`` mid
benchmark, and a ``stats(self, verbose)`` signature breaks the facade
at a distance.

Per-file linting cannot see this: the methods are routinely inherited
(``SnapshotMixin`` supplies ``fingerprint``) from classes in other
modules.  This rule resolves each class's methods through the
:class:`~repro.lint.project.ProjectIndex` class table and checks:

* any class exposing a concrete ``stats()`` or ``fingerprint()`` —
  directly or registered into an ``Observatory`` by constructor call —
  implements the **pair** (abstract bodies, ``...`` or ``raise
  NotImplementedError``, do not satisfy the requirement);
* each leg takes only ``self`` (no required extra parameters), so the
  facade can call it blind.

Pure interface classes (every protocol method abstract) are exempt:
they *declare* the contract rather than claim to implement it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.framework import SourceFile, Violation
from repro.lint.project import ClassInfo, FunctionInfo, ProjectIndex, ProjectRule

__all__ = ["SnapshotConformanceRule"]

PROTOCOL_METHODS = ("stats", "fingerprint")


def _required_extra_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    """Required parameters beyond ``self`` (defaults excused)."""
    arguments = fn.args
    positional = [*arguments.posonlyargs, *arguments.args]
    required = max(0, len(positional) - len(arguments.defaults)) - 1  # - self
    required_kwonly = sum(
        1 for default in arguments.kw_defaults if default is None
    )
    return max(0, required) + required_kwonly


def _registered_constructor_classes(source: SourceFile) -> dict[str, ast.AST]:
    """Class names passed to ``*.register(name, Cls(...))`` in this file."""
    found: dict[str, ast.AST] = {}
    for node in ast.walk(source.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "register"
            and len(node.args) == 2
        ):
            continue
        value = node.args[1]
        if isinstance(value, ast.Call):
            ctor = value.func
            name = (
                ctor.attr
                if isinstance(ctor, ast.Attribute)
                else ctor.id
                if isinstance(ctor, ast.Name)
                else ""
            )
            if name and name[:1].isupper():
                found.setdefault(name, node)
    return found


class SnapshotConformanceRule(ProjectRule):
    """PL103: a stats surface implements the whole Snapshot pair."""

    code = "PL103"
    name = "snapshot-conformance"
    hint = (
        "anything exposing stats()/fingerprint() is a Snapshot surface: "
        "implement stats() + fingerprint(), each taking only "
        "self, so Observatory/golden-stats tooling can drive it blind "
        "(contract: repro/obs/api.py)"
    )

    def check_project(
        self, source: SourceFile, index: ProjectIndex
    ) -> Iterator[Violation]:
        registered = _registered_constructor_classes(source)
        for infos in index.classes.values():
            for cls in infos:
                if cls.node not in source.tree.body:
                    continue
                yield from self._check_class(
                    source, index, cls, forced=cls.name in registered
                )
        # A registered constructor whose class the index cannot see at
        # all is a conformance hole too — but only warn when the class
        # is genuinely unknown project-wide, not merely defined elsewhere.
        for name, node in registered.items():
            if index.lookup_class(name) is None:
                yield self.violation(
                    source,
                    node,
                    f"class {name!r} is registered into an Observatory but "
                    "is not defined in the linted file set, so its Snapshot "
                    "conformance cannot be checked",
                    hint=(
                        "lint the module defining it together with this one, "
                        "or register an instance the index can resolve"
                    ),
                )

    def _check_class(
        self,
        source: SourceFile,
        index: ProjectIndex,
        cls: ClassInfo,
        forced: bool,
    ) -> Iterator[Violation]:
        resolved = index.resolve_methods(cls)
        concrete = {
            name: info
            for name, info in resolved.items()
            if name in PROTOCOL_METHODS and not info.is_abstract
        }
        if not (forced or concrete):
            return
        # A leg that is declared but abstract (``...``/``raise
        # NotImplementedError``) is deliberately deferred to subclasses —
        # the dangerous case is a leg that is absent *entirely*, which
        # only fails at a distance when the facade calls it.
        missing = [
            name for name in PROTOCOL_METHODS if name not in resolved
        ]
        # With bases outside the linted file set the missing legs may be
        # inherited invisibly — only the signature check stays safe.
        if missing and not index.unresolved_bases(cls):
            yield self.violation(
                source,
                cls.node,
                f"class {cls.name} exposes a Snapshot surface but has no "
                f"concrete {'/'.join(missing)} "
                f"(protocol: stats/fingerprint, repro/obs/api.py)",
            )
        for name, info in concrete.items():
            extra = _required_extra_params(info.node)
            if extra:
                node: ast.AST = (
                    info.node if info.module == cls.module else cls.node
                )
                yield self.violation(
                    source,
                    node,
                    f"{cls.name}.{name}() takes {extra} required "
                    "parameter(s) beyond self; the Snapshot protocol "
                    "calls it with no arguments",
                )

