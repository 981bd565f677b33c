"""SQL tokenizer.

Hand-written, position-tracking lexer for the SQL subset of the PRISMA
front-end (Section 2.1 lists SQL as one of the two query interfaces).
Keywords are case-insensitive; identifiers are folded to lower case;
strings use single quotes with ``''`` escaping; ``--`` starts a line
comment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ParseError

KEYWORDS = frozenset(
    """
    select from where group by having order asc desc limit offset distinct
    and or not in is null like between as on join inner left outer cross
    union all intersect except create table drop insert into values update
    analyze fragments
    set delete begin commit rollback abort work transaction primary key
    unique index using hash btree fragmented range roundrobin with replicas
    true false closure explain checkpoint crash restart show tables stats
    """.split()
)

MULTI_CHAR_OPERATORS = ("<>", "!=", "<=", ">=")
#: ``?`` is the DBAPI parameter placeholder (repro.serve); it lexes like
#: any operator and parses to a ``Param`` node wherever an expression,
#: an IN-list value, a LIKE pattern or a LIMIT/OFFSET count may stand.
SINGLE_CHAR_TOKENS = "+-*/%(),.;=<>?"


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    EOF = "eof"


@dataclass(frozen=True, slots=True)
class Token:
    type: TokenType
    value: object
    line: int
    column: int

    def matches(self, token_type: TokenType, value: object = None) -> bool:
        if self.type is not token_type:
            return False
        return value is None or self.value == value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.value}, {self.value!r} @{self.line}:{self.column})"


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*; raises :class:`ParseError` with position on error."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        ch = text[i]
        column = i - line_start + 1
        if ch == "\n":
            line += 1
            line_start = i + 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            value, i = _read_string(text, i, line, column)
            tokens.append(Token(TokenType.STRING, value, line, column))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            value, i = _read_number(text, i, line, column)
            tokens.append(Token(TokenType.NUMBER, value, line, column))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i].lower()
            token_type = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            tokens.append(Token(token_type, word, line, column))
            continue
        if ch == '"':
            # Quoted identifier: preserves case, allows keywords as names.
            end = text.find('"', i + 1)
            if end < 0:
                raise ParseError("unterminated quoted identifier", line, column)
            tokens.append(Token(TokenType.IDENT, text[i + 1 : end], line, column))
            i = end + 1
            continue
        matched = False
        for operator in MULTI_CHAR_OPERATORS:
            if text.startswith(operator, i):
                canonical = "<>" if operator == "!=" else operator
                tokens.append(Token(TokenType.OPERATOR, canonical, line, column))
                i += len(operator)
                matched = True
                break
        if matched:
            continue
        if ch in SINGLE_CHAR_TOKENS:
            tokens.append(Token(TokenType.OPERATOR, ch, line, column))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token(TokenType.EOF, None, line, n - line_start + 1))
    return tokens


def _read_string(text: str, i: int, line: int, column: int) -> tuple[str, int]:
    parts: list[str] = []
    i += 1  # opening quote
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        if ch == "\n":
            raise ParseError("newline inside string literal", line, column)
        parts.append(ch)
        i += 1
    raise ParseError("unterminated string literal", line, column)


def _read_number(text: str, i: int, line: int, column: int) -> tuple[object, int]:
    start = i
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            # Distinguish "1.5" from "t.col": a dot not followed by a
            # digit terminates the number.
            if i + 1 < n and text[i + 1].isdigit():
                seen_dot = True
                i += 1
            else:
                break
        elif ch in "eE" and not seen_exp and i + 1 < n and (
            text[i + 1].isdigit() or text[i + 1] in "+-"
        ):
            seen_exp = True
            i += 2 if text[i + 1] in "+-" else 1
        else:
            break
    literal = text[start:i]
    try:
        if seen_dot or seen_exp:
            return float(literal), i
        return int(literal), i
    except ValueError:
        raise ParseError(f"bad numeric literal {literal!r}", line, column) from None
