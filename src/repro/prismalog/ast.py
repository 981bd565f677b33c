"""Abstract syntax of PRISMAlog.

Section 2.3: "The logic programming language that is defined in PRISMA
is called PRISMAlog and has an expressive power similar to Datalog and
LDL.  It is based on definite, function-free Horn clauses and its
syntax is similar to Prolog.  One of the main differences between pure
Prolog and PRISMAlog is that the latter is set-oriented."

So: programs are rules ``head :- body.`` over atoms with variables and
constants (no function symbols, no negation), facts are bodyless ground
rules, and ``? goal.`` poses a set-oriented query.  Comparison builtins
(``X > 3``, ``X <> Y``) are allowed in bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import PrismalogError

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Var:
    """A logic variable (identifier starting upper-case or underscore)."""

    name: str


@dataclass(frozen=True)
class Const:
    """A constant: symbol (stored as string), number, or quoted string."""

    value: Any


Term = Var | Const


@dataclass(frozen=True)
class Atom:
    """``predicate(t1, ..., tn)``."""

    predicate: str
    terms: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> list[Var]:
        return [t for t in self.terms if isinstance(t, Var)]

    def is_ground(self) -> bool:
        return all(isinstance(t, Const) for t in self.terms)

    def display(self) -> str:
        parts = []
        for term in self.terms:
            if isinstance(term, Var):
                parts.append(term.name)
            else:
                parts.append(repr(term.value))
        return f"{self.predicate}({', '.join(parts)})"


@dataclass(frozen=True)
class Builtin:
    """A comparison literal in a rule body, e.g. ``X > 3``."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise PrismalogError(f"unknown comparison operator {self.op!r}")

    def variables(self) -> list[Var]:
        return [t for t in (self.left, self.right) if isinstance(t, Var)]

    def display(self) -> str:
        def show(term: Term) -> str:
            return term.name if isinstance(term, Var) else repr(term.value)

        return f"{show(self.left)} {self.op} {show(self.right)}"


BodyLiteral = Atom | Builtin


@dataclass(frozen=True)
class Rule:
    """``head :- body.``  A fact is a rule with an empty body."""

    head: Atom
    body: tuple[BodyLiteral, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.body

    def body_atoms(self) -> list[Atom]:
        return [lit for lit in self.body if isinstance(lit, Atom)]

    def body_builtins(self) -> list[Builtin]:
        return [lit for lit in self.body if isinstance(lit, Builtin)]

    def display(self) -> str:
        if self.is_fact:
            return f"{self.head.display()}."
        body = ", ".join(lit.display() for lit in self.body)
        return f"{self.head.display()} :- {body}."


@dataclass(frozen=True)
class Query:
    """``? goal(t1, ..., tn).`` — a set-oriented query."""

    atom: Atom


@dataclass
class Program:
    """A parsed PRISMAlog program: rules (incl. facts) plus queries."""

    rules: list[Rule]
    queries: list[Query]
    #: The GDH's simulated parse-charge basis, stamped by the GDH before
    #: it runs the program (0: never was text); no part of the program.
    n_tokens: int = field(default=0, compare=False, repr=False)

    def facts(self) -> list[Rule]:
        return [rule for rule in self.rules if rule.is_fact]

    def proper_rules(self) -> list[Rule]:
        return [rule for rule in self.rules if not rule.is_fact]

    def predicates(self) -> set[str]:
        names = {rule.head.predicate for rule in self.rules}
        for rule in self.rules:
            names.update(a.predicate for a in rule.body_atoms())
        return names
