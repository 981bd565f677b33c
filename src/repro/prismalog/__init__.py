"""PRISMAlog: a set-oriented, Datalog-class logic language evaluated via
relational algebra with fixpoints (paper Section 2.3)."""

from repro.prismalog.ast import (
    Atom,
    Builtin,
    Const,
    Program,
    Query,
    Rule,
    Var,
)
from repro.prismalog.parser import parse_program, parse_query
from repro.prismalog.translate import (
    ProgramAnalysis,
    analyze_program,
    detect_transitive_closure,
    predicate_schema,
    query_plan,
    translate_rule,
)

__all__ = [
    "Atom",
    "Builtin",
    "Const",
    "Program",
    "ProgramAnalysis",
    "Query",
    "Rule",
    "Var",
    "analyze_program",
    "detect_transitive_closure",
    "parse_program",
    "parse_query",
    "predicate_schema",
    "query_plan",
    "translate_rule",
]
