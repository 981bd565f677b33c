"""Abstract syntax for the SQL front-end.

These nodes are *name-based*: they carry identifiers, not column
indices.  The binder (:mod:`repro.sql.binder`) resolves them against the
data dictionary into the index-based algebra of :mod:`repro.algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


# ---------------------------------------------------------------------------
# Expressions (name-based).
# ---------------------------------------------------------------------------


class SqlExpr:
    """Base class for parsed (unbound) expressions.

    The nodes are slotted: the GDH keeps parsed statements in its parse
    memo, so an AST's footprint is resident memory.
    """

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Name(SqlExpr):
    """A possibly qualified column reference: ``col`` or ``tab.col``."""

    column: str
    qualifier: str | None = None

    def display(self) -> str:
        return f"{self.qualifier}.{self.column}" if self.qualifier else self.column


@dataclass(frozen=True, slots=True)
class Lit(SqlExpr):
    value: Any


@dataclass(frozen=True, slots=True)
class Param(SqlExpr):
    """The *index*-th ``?`` placeholder (0-based, in source order).

    Also stands where the grammar wants a bare constant: an IN-list
    value, a LIKE pattern, a LIMIT/OFFSET count.
    """

    index: int


@dataclass(frozen=True, slots=True)
class Bin(SqlExpr):
    """Binary operator: comparisons, arithmetic, AND/OR."""

    op: str
    left: SqlExpr
    right: SqlExpr


@dataclass(frozen=True, slots=True)
class Un(SqlExpr):
    """Unary operator: NOT, unary minus."""

    op: str
    operand: SqlExpr


@dataclass(frozen=True, slots=True)
class Func(SqlExpr):
    """Scalar function call."""

    name: str
    args: tuple[SqlExpr, ...]


@dataclass(frozen=True, slots=True)
class AggCall(SqlExpr):
    """Aggregate call: ``COUNT(*)``, ``SUM(DISTINCT x)``, ..."""

    func: str
    arg: SqlExpr | None  # None means '*'
    distinct: bool = False


@dataclass(frozen=True, slots=True)
class IsNullExpr(SqlExpr):
    operand: SqlExpr
    negated: bool = False


@dataclass(frozen=True, slots=True)
class InExpr(SqlExpr):
    operand: SqlExpr
    values: tuple[Any, ...]
    negated: bool = False


@dataclass(frozen=True, slots=True)
class LikeExpr(SqlExpr):
    operand: SqlExpr
    pattern: str | Param
    negated: bool = False


@dataclass(frozen=True, slots=True)
class BetweenExpr(SqlExpr):
    operand: SqlExpr
    low: SqlExpr
    high: SqlExpr
    negated: bool = False


@dataclass(frozen=True, slots=True)
class Star(SqlExpr):
    """``*`` or ``alias.*`` in a select list."""

    qualifier: str | None = None


# ---------------------------------------------------------------------------
# FROM items.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class ClosureRef:
    """PRISMA extension: ``CLOSURE(edges)`` in FROM — the transitive
    closure of a binary base relation (paper Section 2.5)."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    """An explicit ``JOIN ... ON`` attached to the preceding FROM item."""

    kind: str  # 'inner' | 'left' | 'cross'
    item: "FromItem"
    condition: SqlExpr | None


FromItem = TableRef | ClosureRef


# ---------------------------------------------------------------------------
# Statements.
# ---------------------------------------------------------------------------


class Statement:
    """Base class for parsed statements.

    :func:`~repro.sql.parser.parse_statement` stamps what it learned
    while lexing onto the statement, so a memoized parse carries it
    along (plain attributes, not dataclass fields: they take no part in
    equality).
    """

    #: The text :func:`~repro.sql.parser.parse_statement` parsed, which is
    #: the GDH's parse-memo key; None for a statement out of a script, a
    #: token list or a hand-built AST.
    text: str | None = None
    #: Lexed tokens, EOF included — the GDH's simulated parse charge is
    #: per token.  0 when the statement did not come from
    #: ``parse_statement``/``parse_tokens`` (a script, a hand-built AST).
    n_tokens: int = 0
    #: Number of ``?`` placeholders.
    n_params: int = 0
    #: Placeholders the binder resolves *by value* (LIMIT/OFFSET counts,
    #: a bare ``ORDER BY ?``): a prepared statement is only reusable for
    #: executions that agree on these.
    by_value: tuple[int, ...] = ()


@dataclass(frozen=True)
class SelectItem:
    expr: SqlExpr
    alias: str | None = None


@dataclass
class SelectStmt(Statement):
    items: list[SelectItem]
    from_items: list[FromItem] = field(default_factory=list)
    joins: list[JoinClause] = field(default_factory=list)
    where: SqlExpr | None = None
    group_by: list[SqlExpr] = field(default_factory=list)
    having: SqlExpr | None = None
    order_by: list[tuple[SqlExpr, bool]] = field(default_factory=list)
    limit: int | Param | None = None
    offset: int | Param = 0
    distinct: bool = False


@dataclass
class SetOpStmt(Statement):
    """UNION / INTERSECT / EXCEPT between two selects."""

    op: str  # 'union' | 'union_all' | 'intersect' | 'except'
    left: Statement
    right: Statement
    order_by: list[tuple[SqlExpr, bool]] = field(default_factory=list)
    limit: int | Param | None = None
    offset: int | Param = 0


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False


@dataclass(frozen=True)
class FragmentationClause:
    """``FRAGMENTED BY HASH(col) INTO n`` and friends."""

    kind: str  # 'hash' | 'range' | 'roundrobin'
    column: str | None
    count: int
    boundaries: tuple[Any, ...] = ()


@dataclass
class CreateTableStmt(Statement):
    name: str
    columns: list[ColumnDef]
    fragmentation: FragmentationClause | None = None
    replicas: int = 1


@dataclass
class DropTableStmt(Statement):
    name: str


@dataclass
class CreateIndexStmt(Statement):
    name: str
    table: str
    columns: list[str]
    unique: bool = False
    method: str = "hash"  # 'hash' | 'btree'


@dataclass
class InsertStmt(Statement):
    table: str
    columns: list[str] | None
    rows: list[list[SqlExpr]]


@dataclass
class UpdateStmt(Statement):
    table: str
    assignments: list[tuple[str, SqlExpr]]
    where: SqlExpr | None = None


@dataclass
class DeleteStmt(Statement):
    table: str
    where: SqlExpr | None = None


@dataclass
class BeginStmt(Statement):
    pass


@dataclass
class CommitStmt(Statement):
    pass


@dataclass
class RollbackStmt(Statement):
    pass


@dataclass
class ExplainStmt(Statement):
    target: Statement


@dataclass
class ShowTablesStmt(Statement):
    pass


@dataclass
class CheckpointStmt(Statement):
    pass


@dataclass
class AnalyzeStmt(Statement):
    """Recompute optimizer statistics (all tables when table is None)."""

    table: str | None = None


@dataclass
class ShowFragmentsStmt(Statement):
    """Fragment placement of one table: id, element, OFM, rows, copies."""

    table: str
