"""Token kinds and the token record produced by the lexer."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


#: Reserved words recognised case-insensitively; stored upper-case in tokens.
#: Type names (INT, DATE, ...) are deliberately NOT reserved — they are
#: parsed contextually inside CREATE TABLE so that columns named ``date``
#: or ``year`` (as in the TLC benchmark) remain ordinary identifiers.
KEYWORDS = frozenset(
    {
        "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
        "ORDER", "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "IN",
        "BETWEEN", "LIKE", "IS", "NULL", "TRUE", "FALSE", "JOIN", "INNER",
        "LEFT", "RIGHT", "OUTER", "CROSS", "ON", "UNION", "INTERSECT",
        "EXCEPT", "ALL", "ASC", "DESC", "COUNT", "SUM", "AVG", "MIN", "MAX",
        "CREATE", "TABLE", "PRIMARY", "KEY", "INSERT", "INTO", "VALUES",
    }
)

#: Multi-character operators first so the lexer can do longest-match.
OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "||")

PUNCTUATION = ("(", ")", ",", ".", ";")


class Token(NamedTuple):
    """One lexical token with its source location."""

    kind: TokenKind
    text: str
    value: Any
    position: int
    line: int
    column: int

    def is_keyword(self, *words: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in words

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"
