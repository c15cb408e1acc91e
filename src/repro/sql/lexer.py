"""SQL lexer: one compiled pattern, one ``finditer`` pass.

Produces a list of :class:`~repro.sql.tokens.Token` ending with an EOF
token. Handles line comments (``--``), block comments (``/* ... */``),
single-quoted strings with ``''`` escaping, double-quoted identifiers,
numbers (integer/float with exponent), keywords, operators, punctuation.

The string and number alternatives (:data:`STRING_PATTERN`,
:data:`NUMBER_PATTERN`) are the one definition of "what is a literal":
:mod:`repro.sql.shape` splits ad-hoc text on the same two patterns.
"""

from __future__ import annotations

import re
from typing import Any

from repro.errors import LexerError
from repro.sql.tokens import KEYWORDS, OPERATORS, PUNCTUATION, Token, TokenKind

#: A closed string literal; ``''`` is an escaped quote, so the closing
#: quote is the first one not followed by another.
STRING_PATTERN = r"'(?:[^']|'')*'(?!')"
#: ASCII digits only (``str.isdigit`` accepts '²', which ``int()``
#: rejects). ``1..2`` is ``1`` ``.`` ``.2``; ``1e`` is ``1`` then ``e``.
NUMBER_PATTERN = (
    r"[0-9]+(?:\.(?!\.)[0-9]*)?(?:[eE][+-]?[0-9]+)?"
    r"|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
)

_WHITESPACE = r"[ \t\r\n]"
#: Every match is whitespace and comments, then exactly one token (or
#: the end of the text, or the start of something malformed), so matches
#: tile the text and ``lastgroup`` names the token's kind. Order matters
#: where alternatives share a first character: a literal before a word
#: (digits are ``\w``) and before punctuation (``.5``), ``/*`` that the
#: skip did not consume before the ``/`` operator.
_MASTER = re.compile(
    rf"(?:{_WHITESPACE}+|--[^\n]*|/\*[\s\S]*?\*/)*"
    rf"(?:(?P<literal>{STRING_PATTERN}|{NUMBER_PATTERN})"
    r"|(?P<word>\w+)"
    r'|(?P<quoted>"[^"]*")'
    r"|(?P<open_comment>/\*)"
    rf"|(?P<operator>{'|'.join(re.escape(op) for op in OPERATORS)})"
    rf"|(?P<punctuation>[{re.escape(''.join(PUNCTUATION))}])"
    r"|(?P<eof>\Z)"
    r"|(?P<other>[\s\S]))"
)

_KEYWORD = TokenKind.KEYWORD
_IDENTIFIER = TokenKind.IDENTIFIER
_INTEGER = TokenKind.INTEGER
_FLOAT = TokenKind.FLOAT
_STRING = TokenKind.STRING
_OPERATOR = TokenKind.OPERATOR
_PUNCTUATION = TokenKind.PUNCTUATION


def literal_value(raw: str) -> tuple[TokenKind, Any]:
    """The token kind and value of one :data:`STRING_PATTERN` /
    :data:`NUMBER_PATTERN` match."""
    if raw[0] == "'":
        return _STRING, raw[1:-1].replace("''", "'")
    if raw.isdigit():
        return _INTEGER, int(raw)
    return _FLOAT, float(raw)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into SQL tokens (EOF-terminated)."""
    tokens: list[Token] = []
    append = tokens.append
    # Token.__new__ without its Python-level frame: a third of the pass
    new = tuple.__new__
    keywords = KEYWORDS
    ascii_only = text.isascii()
    multiline = "\n" in text
    line = 1
    line_start = 0
    counted = 0  # newlines before this offset are already in ``line``

    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        pos = match.start(kind)
        if multiline:
            newlines = text.count("\n", counted, pos)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", counted, pos) + 1
            # a quoted identifier's own newlines are not counted
            counted = match.end() if kind == "quoted" else pos
        column = pos - line_start + 1
        raw = match.group(kind)

        if kind == "word":
            if not (ascii_only or raw[0].isalpha() or raw[0] == "_"):
                # ``\w`` admits numerics such as '²' that cannot start a name
                raise LexerError(
                    f"unexpected character {raw[0]!r}", pos, line, column
                )
            upper = raw.upper()
            if upper in keywords:
                append(new(Token, (_KEYWORD, upper, upper, pos, line, column)))
            else:
                append(new(Token, (_IDENTIFIER, raw, raw, pos, line, column)))
        elif kind == "punctuation":
            append(new(Token, (_PUNCTUATION, raw, raw, pos, line, column)))
        elif kind == "operator":
            append(new(Token, (_OPERATOR, raw, raw, pos, line, column)))
        elif kind == "literal":
            literal_kind, value = literal_value(raw)
            append(new(Token, (literal_kind, raw, value, pos, line, column)))
        elif kind == "quoted":
            name = raw[1:-1]
            if not name:
                raise LexerError("empty quoted identifier", pos, line, column)
            append(new(Token, (_IDENTIFIER, name, name, pos, line, column)))
        elif kind == "eof":
            append(new(Token, (TokenKind.EOF, "", None, pos, line, column)))
            break  # trailing whitespace makes this match non-empty: no second one
        elif kind == "open_comment":
            raise LexerError("unterminated block comment", pos, line, column)
        elif raw == '"':
            raise LexerError("unterminated quoted identifier", pos, line, column)
        elif raw == "'":
            # reported where the scan for the closing quote gave up: the
            # string's start, on the text's last line
            tail = text.count("\n", pos)
            if tail:
                line += tail
                column = pos - text.rfind("\n")
            raise LexerError("unterminated string literal", pos, line, column)
        else:
            raise LexerError(f"unexpected character {raw!r}", pos, line, column)
    return tokens
