"""Recursive-descent SQL parser.

Covers the subset a 1988 main-memory machine front-end needs, plus the
PRISMA-specific clauses: ``FRAGMENTED BY ...`` on CREATE TABLE (the data
allocation manager's input) and ``CLOSURE(t)`` in FROM (the OFM
transitive-closure operator surfaced in SQL).
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql.ast import (
    AggCall,
    AnalyzeStmt,
    BeginStmt,
    BetweenExpr,
    Bin,
    CheckpointStmt,
    ClosureRef,
    ColumnDef,
    CommitStmt,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    ExplainStmt,
    FragmentationClause,
    Func,
    InExpr,
    InsertStmt,
    IsNullExpr,
    JoinClause,
    LikeExpr,
    Lit,
    Name,
    Param,
    RollbackStmt,
    SelectItem,
    SelectStmt,
    SetOpStmt,
    ShowFragmentsStmt,
    ShowTablesStmt,
    SqlExpr,
    Star,
    Statement,
    TableRef,
    Un,
    UpdateStmt,
)
from repro.sql.lexer import Token, TokenType, tokenize

AGGREGATE_NAMES = frozenset(("count", "sum", "avg", "min", "max"))
SCALAR_FUNCTION_NAMES = frozenset(("abs", "length", "upper", "lower", "mod"))
COMPARISON_OPS = frozenset(("=", "<>", "<", "<=", ">", ">="))


def parse_statement(text: str) -> Statement:
    """Parse exactly one statement (a trailing ``;`` is allowed).

    A pure function of *text*, which is what lets the GDH memoize it.
    """
    statement = parse_tokens(tokenize(text))
    statement.text = text
    return statement


def parse_tokens(tokens: list[Token]) -> Statement:
    """Parse exactly one statement from an already-lexed token stream.

    The list must end with an EOF token, as
    :func:`~repro.sql.lexer.tokenize` produces.  Each ``?`` becomes a
    :class:`~repro.sql.ast.Param`; the token and placeholder counts are
    stamped on the statement (see :class:`~repro.sql.ast.Statement`).
    """
    parser = _Parser(tokens)
    statement = parser.statement()
    parser.accept_operator(";")
    parser.expect_eof()
    statement.n_tokens = len(tokens)
    statement.n_params = parser.n_params
    statement.by_value = tuple(parser.by_value)
    return statement


def parse_script(text: str) -> list[Statement]:
    """Parse a ``;``-separated sequence of statements."""
    parser = _Parser(tokenize(text))
    statements: list[Statement] = []
    while not parser.at_eof():
        statements.append(parser.statement())
        if not parser.accept_operator(";"):
            break
    parser.expect_eof()
    return statements


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.position = 0
        #: ``?`` placeholders consumed so far, and which of them stand
        #: where the binder needs the value itself.
        self.n_params = 0
        self.by_value: list[int] = []

    # -- token plumbing ---------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.type is not TokenType.EOF:
            self.position += 1
        return token

    def at_eof(self) -> bool:
        return self.peek().type is TokenType.EOF

    def error(self, message: str) -> ParseError:
        token = self.peek()
        found = "end of input" if token.type is TokenType.EOF else repr(token.value)
        return ParseError(f"{message} (found {found})", token.line, token.column)

    def accept_keyword(self, *words: str) -> str | None:
        token = self.peek()
        if token.type is TokenType.KEYWORD and token.value in words:
            self.advance()
            return str(token.value)
        return None

    def expect_keyword(self, *words: str) -> str:
        word = self.accept_keyword(*words)
        if word is None:
            raise self.error(f"expected {' or '.join(w.upper() for w in words)}")
        return word

    def accept_operator(self, *ops: str) -> str | None:
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value in ops:
            self.advance()
            return str(token.value)
        return None

    def expect_operator(self, op: str) -> None:
        if self.accept_operator(op) is None:
            raise self.error(f"expected {op!r}")

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.peek()
        if token.type is TokenType.IDENT:
            self.advance()
            return str(token.value)
        raise self.error(f"expected {what}")

    def expect_integer(self, what: str = "integer") -> int:
        token = self.peek()
        if token.type is TokenType.NUMBER and isinstance(token.value, int):
            self.advance()
            return token.value
        raise self.error(f"expected {what}")

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise self.error("unexpected trailing input")

    def accept_param(self, by_value: bool = False) -> Param | None:
        if self.accept_operator("?") is None:
            return None
        param = Param(self.n_params)
        self.n_params += 1
        if by_value:
            self.by_value.append(param.index)
        return param

    def expect_count(self, what: str) -> int | Param:
        """An integer literal or a (by-value) placeholder for one."""
        param = self.accept_param(by_value=True)
        return self.expect_integer(what) if param is None else param

    # -- statements -----------------------------------------------------------------

    def statement(self) -> Statement:
        token = self.peek()
        if token.type is not TokenType.KEYWORD:
            raise self.error("expected a statement keyword")
        word = token.value
        if word == "select":
            return self.query()
        if word == "create":
            return self.create()
        if word == "drop":
            return self.drop_table()
        if word == "insert":
            return self.insert()
        if word == "update":
            return self.update()
        if word == "delete":
            return self.delete()
        if word == "begin":
            self.advance()
            self.accept_keyword("work", "transaction")
            return BeginStmt()
        if word == "commit":
            self.advance()
            self.accept_keyword("work", "transaction")
            return CommitStmt()
        if word in ("rollback", "abort"):
            self.advance()
            self.accept_keyword("work", "transaction")
            return RollbackStmt()
        if word == "explain":
            self.advance()
            return ExplainStmt(self.statement())
        if word == "show":
            self.advance()
            if self.accept_keyword("fragments"):
                return ShowFragmentsStmt(self.expect_ident("table name"))
            self.expect_keyword("tables")
            return ShowTablesStmt()
        if word == "analyze":
            self.advance()
            token = self.peek()
            table = None
            if token.type is TokenType.IDENT:
                table = self.expect_ident()
            return AnalyzeStmt(table)
        if word == "checkpoint":
            self.advance()
            return CheckpointStmt()
        raise self.error(f"unsupported statement {str(word).upper()}")

    # -- SELECT and set operations ------------------------------------------------------

    def query(self) -> Statement:
        left: Statement = self.select_core()
        while True:
            if self.accept_keyword("union"):
                op = "union_all" if self.accept_keyword("all") else "union"
            elif self.accept_keyword("intersect"):
                op = "intersect"
            elif self.accept_keyword("except"):
                op = "except"
            else:
                break
            right = self.select_core()
            left = SetOpStmt(op, left, right)
        order_by = self.order_by_clause()
        limit, offset = self.limit_clause()
        if isinstance(left, SetOpStmt):
            left.order_by = order_by
            left.limit = limit
            left.offset = offset
        else:
            assert isinstance(left, SelectStmt)
            left.order_by = order_by
            left.limit = limit
            left.offset = offset
        return left

    def select_core(self) -> SelectStmt:
        self.expect_keyword("select")
        distinct = bool(self.accept_keyword("distinct"))
        self.accept_keyword("all")
        items = self.select_items()
        from_items: list = []
        joins: list[JoinClause] = []
        if self.accept_keyword("from"):
            from_items.append(self.from_item())
            while True:
                if self.accept_operator(","):
                    from_items.append(self.from_item())
                    continue
                join = self.join_clause()
                if join is None:
                    break
                joins.append(join)
        where = self.expr() if self.accept_keyword("where") else None
        group_by: list[SqlExpr] = []
        having = None
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.expr())
            while self.accept_operator(","):
                group_by.append(self.expr())
            if self.accept_keyword("having"):
                having = self.expr()
        return SelectStmt(
            items=items,
            from_items=from_items,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def select_items(self) -> list[SelectItem]:
        items = [self.select_item()]
        while self.accept_operator(","):
            items.append(self.select_item())
        return items

    def select_item(self) -> SelectItem:
        if self.accept_operator("*"):
            return SelectItem(Star())
        # alias.* form
        if (
            self.peek().type is TokenType.IDENT
            and self.peek(1).matches(TokenType.OPERATOR, ".")
            and self.peek(2).matches(TokenType.OPERATOR, "*")
        ):
            qualifier = self.expect_ident()
            self.expect_operator(".")
            self.expect_operator("*")
            return SelectItem(Star(qualifier))
        expr = self.expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident("alias")
        elif self.peek().type is TokenType.IDENT:
            alias = self.expect_ident()
        return SelectItem(expr, alias)

    def from_item(self):
        if self.accept_keyword("closure"):
            self.expect_operator("(")
            name = self.expect_ident("table name")
            self.expect_operator(")")
            alias = self.optional_alias()
            return ClosureRef(name, alias)
        name = self.expect_ident("table name")
        return TableRef(name, self.optional_alias())

    def optional_alias(self) -> str | None:
        if self.accept_keyword("as"):
            return self.expect_ident("alias")
        if self.peek().type is TokenType.IDENT:
            return self.expect_ident()
        return None

    def join_clause(self) -> JoinClause | None:
        kind = None
        if self.accept_keyword("join"):
            kind = "inner"
        elif self.accept_keyword("inner"):
            self.expect_keyword("join")
            kind = "inner"
        elif self.accept_keyword("left"):
            self.accept_keyword("outer")
            self.expect_keyword("join")
            kind = "left"
        elif self.accept_keyword("cross"):
            self.expect_keyword("join")
            kind = "cross"
        if kind is None:
            return None
        item = self.from_item()
        condition = None
        if kind != "cross":
            self.expect_keyword("on")
            condition = self.expr()
        return JoinClause(kind, item, condition)

    def order_by_clause(self) -> list[tuple[SqlExpr, bool]]:
        if not self.accept_keyword("order"):
            return []
        self.expect_keyword("by")
        keys = [self.order_key()]
        while self.accept_operator(","):
            keys.append(self.order_key())
        return keys

    def order_key(self) -> tuple[SqlExpr, bool]:
        expr = self.expr()
        if isinstance(expr, Param):
            # A bare constant is an output position, not a sort value.
            self.by_value.append(expr.index)
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return expr, descending

    def limit_clause(self) -> tuple[int | Param | None, int | Param]:
        limit = None
        offset = 0
        if self.accept_keyword("limit"):
            limit = self.expect_count("LIMIT count")
        if self.accept_keyword("offset"):
            offset = self.expect_count("OFFSET count")
        return limit, offset

    # -- DDL ---------------------------------------------------------------------------

    def create(self) -> Statement:
        self.expect_keyword("create")
        if self.accept_keyword("table"):
            return self.create_table()
        unique = bool(self.accept_keyword("unique"))
        self.expect_keyword("index")
        return self.create_index(unique)

    def create_table(self) -> CreateTableStmt:
        name = self.expect_ident("table name")
        self.expect_operator("(")
        columns = [self.column_def()]
        while self.accept_operator(","):
            columns.append(self.column_def())
        self.expect_operator(")")
        fragmentation = self.fragmentation_clause()
        replicas = 1
        if self.accept_keyword("with"):
            replicas = self.expect_integer("replica count")
            self.expect_keyword("replicas")
        return CreateTableStmt(name, columns, fragmentation, replicas)

    def column_def(self) -> ColumnDef:
        name = self.expect_ident("column name")
        token = self.peek()
        if token.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise self.error("expected a type name")
        type_name = str(self.advance().value)
        # Optional length, e.g. VARCHAR(32) — accepted and ignored.
        if self.accept_operator("("):
            self.expect_integer("type length")
            self.expect_operator(")")
        not_null = False
        primary_key = False
        while True:
            if self.accept_keyword("not"):
                self.expect_keyword("null")
                not_null = True
            elif self.accept_keyword("primary"):
                self.expect_keyword("key")
                primary_key = True
                not_null = True
            else:
                break
        return ColumnDef(name, type_name, not_null, primary_key)

    def fragmentation_clause(self) -> FragmentationClause | None:
        if not self.accept_keyword("fragmented"):
            return None
        self.expect_keyword("by")
        if self.accept_keyword("hash"):
            self.expect_operator("(")
            column = self.expect_ident("column name")
            self.expect_operator(")")
            self.expect_keyword("into")
            count = self.expect_integer("fragment count")
            return FragmentationClause("hash", column, count)
        if self.accept_keyword("range"):
            self.expect_operator("(")
            column = self.expect_ident("column name")
            self.expect_operator(")")
            self.expect_keyword("values")
            self.expect_operator("(")
            boundaries = [self.literal_value()]
            while self.accept_operator(","):
                boundaries.append(self.literal_value())
            self.expect_operator(")")
            return FragmentationClause(
                "range", column, len(boundaries) + 1, tuple(boundaries)
            )
        if self.accept_keyword("roundrobin"):
            self.expect_keyword("into")
            count = self.expect_integer("fragment count")
            return FragmentationClause("roundrobin", None, count)
        raise self.error("expected HASH, RANGE, or ROUNDROBIN")

    def create_index(self, unique: bool) -> CreateIndexStmt:
        name = self.expect_ident("index name")
        self.expect_keyword("on")
        table = self.expect_ident("table name")
        self.expect_operator("(")
        columns = [self.expect_ident("column name")]
        while self.accept_operator(","):
            columns.append(self.expect_ident("column name"))
        self.expect_operator(")")
        method = "hash"
        if self.accept_keyword("using"):
            method = self.expect_keyword("hash", "btree")
        return CreateIndexStmt(name, table, columns, unique, method)

    def drop_table(self) -> DropTableStmt:
        self.expect_keyword("drop")
        self.expect_keyword("table")
        return DropTableStmt(self.expect_ident("table name"))

    # -- DML ----------------------------------------------------------------------------

    def insert(self) -> InsertStmt:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_ident("table name")
        columns = None
        if self.accept_operator("("):
            columns = [self.expect_ident("column name")]
            while self.accept_operator(","):
                columns.append(self.expect_ident("column name"))
            self.expect_operator(")")
        self.expect_keyword("values")
        rows = [self.value_row()]
        while self.accept_operator(","):
            rows.append(self.value_row())
        return InsertStmt(table, columns, rows)

    def value_row(self) -> list[SqlExpr]:
        self.expect_operator("(")
        exprs = [self.expr()]
        while self.accept_operator(","):
            exprs.append(self.expr())
        self.expect_operator(")")
        return exprs

    def update(self) -> UpdateStmt:
        self.expect_keyword("update")
        table = self.expect_ident("table name")
        self.expect_keyword("set")
        assignments = [self.assignment()]
        while self.accept_operator(","):
            assignments.append(self.assignment())
        where = self.expr() if self.accept_keyword("where") else None
        return UpdateStmt(table, assignments, where)

    def assignment(self) -> tuple[str, SqlExpr]:
        column = self.expect_ident("column name")
        self.expect_operator("=")
        return column, self.expr()

    def delete(self) -> DeleteStmt:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_ident("table name")
        where = self.expr() if self.accept_keyword("where") else None
        return DeleteStmt(table, where)

    # -- expressions -----------------------------------------------------------------------

    def expr(self) -> SqlExpr:
        return self.or_expr()

    def or_expr(self) -> SqlExpr:
        left = self.and_expr()
        while self.accept_keyword("or"):
            left = Bin("or", left, self.and_expr())
        return left

    def and_expr(self) -> SqlExpr:
        left = self.not_expr()
        while self.accept_keyword("and"):
            left = Bin("and", left, self.not_expr())
        return left

    def not_expr(self) -> SqlExpr:
        if self.accept_keyword("not"):
            return Un("not", self.not_expr())
        return self.predicate()

    def predicate(self) -> SqlExpr:
        left = self.additive()
        operator = self.accept_operator(*COMPARISON_OPS)
        if operator is not None:
            return Bin(operator, left, self.additive())
        if self.accept_keyword("is"):
            negated = bool(self.accept_keyword("not"))
            self.expect_keyword("null")
            return IsNullExpr(left, negated)
        negated = bool(self.accept_keyword("not"))
        if self.accept_keyword("in"):
            self.expect_operator("(")
            values = [self.in_value()]
            while self.accept_operator(","):
                values.append(self.in_value())
            self.expect_operator(")")
            return InExpr(left, tuple(values), negated)
        if self.accept_keyword("like"):
            pattern = self.accept_param()
            if pattern is None:
                token = self.peek()
                if token.type is not TokenType.STRING:
                    raise self.error("LIKE expects a string pattern")
                self.advance()
                pattern = str(token.value)
            return LikeExpr(left, pattern, negated)
        if self.accept_keyword("between"):
            low = self.additive()
            self.expect_keyword("and")
            high = self.additive()
            return BetweenExpr(left, low, high, negated)
        if negated:
            raise self.error("expected IN, LIKE, or BETWEEN after NOT")
        return left

    def additive(self) -> SqlExpr:
        left = self.multiplicative()
        while True:
            operator = self.accept_operator("+", "-")
            if operator is None:
                return left
            left = Bin(operator, left, self.multiplicative())

    def multiplicative(self) -> SqlExpr:
        left = self.unary()
        while True:
            operator = self.accept_operator("*", "/", "%")
            if operator is None:
                return left
            left = Bin(operator, left, self.unary())

    def unary(self) -> SqlExpr:
        if self.accept_operator("-"):
            return Un("-", self.unary())
        if self.accept_operator("+"):
            return self.unary()
        return self.primary()

    def primary(self) -> SqlExpr:
        token = self.peek()
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            self.advance()
            return Lit(token.value)
        param = self.accept_param()
        if param is not None:
            return param
        if token.type is TokenType.KEYWORD:
            if self.accept_keyword("null"):
                return Lit(None)
            if self.accept_keyword("true"):
                return Lit(True)
            if self.accept_keyword("false"):
                return Lit(False)
            raise self.error("unexpected keyword in expression")
        if self.accept_operator("("):
            inner = self.expr()
            self.expect_operator(")")
            return inner
        if token.type is TokenType.IDENT:
            return self.name_or_call()
        raise self.error("expected an expression")

    def name_or_call(self) -> SqlExpr:
        first = self.expect_ident()
        if self.peek().matches(TokenType.OPERATOR, "("):
            return self.call(first)
        if self.accept_operator("."):
            column = self.expect_ident("column name")
            return Name(column, qualifier=first)
        return Name(first)

    def call(self, name: str) -> SqlExpr:
        lowered = name.lower()
        self.expect_operator("(")
        if lowered in AGGREGATE_NAMES:
            distinct = bool(self.accept_keyword("distinct"))
            if self.accept_operator("*"):
                if lowered != "count":
                    raise self.error(f"{name.upper()}(*) is not valid")
                self.expect_operator(")")
                return AggCall("count", None, False)
            arg = self.expr()
            self.expect_operator(")")
            return AggCall(lowered, arg, distinct)
        if lowered in SCALAR_FUNCTION_NAMES:
            args = [self.expr()]
            while self.accept_operator(","):
                args.append(self.expr())
            self.expect_operator(")")
            return Func(lowered, tuple(args))
        raise self.error(f"unknown function {name!r}")

    def in_value(self):
        param = self.accept_param()
        return self.literal_value() if param is None else param

    def literal_value(self):
        negative = bool(self.accept_operator("-"))
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            return -token.value if negative else token.value
        if negative:
            raise self.error("expected a number after '-'")
        if token.type is TokenType.STRING:
            self.advance()
            return token.value
        if self.accept_keyword("null"):
            return None
        if self.accept_keyword("true"):
            return True
        if self.accept_keyword("false"):
            return False
        raise self.error("expected a literal value")
