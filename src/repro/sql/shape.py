"""Literal lifting: split SQL text into its shape and its literals.

``split_literals`` is the serving layer's second probe for ad-hoc text
(``docs/invariants.md``, "Literal lifting"): one ``re.split`` over the
lexer's own string and number patterns, no tokens and no AST. Two texts
with one shape differ in nothing but the values of their literals, so
whatever one parse established about the first (which literal fills
which parameter slot) holds for the second.

The split may decline, never guess: it answers only for text on which
it finds exactly the literal tokens :func:`~repro.sql.lexer.tokenize`
would.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from repro.sql.lexer import NUMBER_PATTERN, STRING_PATTERN, literal_value
from repro.sql.tokens import TokenKind

#: Ends a literal's mark in a shape; the kind's initial precedes it, so
#: ``LIMIT '5'`` and ``LIMIT 5`` never share a shape. The lexer accepts
#: it nowhere outside a string.
MARK = "\x00"

_MARKS = {
    kind: kind.value[0] + MARK
    for kind in (TokenKind.STRING, TokenKind.INTEGER, TokenKind.FLOAT)
}

#: A number is lifted only where it can be told apart without the lexer's
#: left-to-right scan, whatever other number stands in its place: not
#: directly after a word character or a dot (``t1``, ``x.5``, ``1..5``),
#: not directly before one (``1e5e5`` is ``1e5`` then ``e5``, but
#: ``0.5e5`` is one number).
_LITERAL = re.compile(
    rf"({STRING_PATTERN}|(?<![\w.])(?:{NUMBER_PATTERN})(?![\w.]))"
)
#: What is left outside the literals must not open a comment, a quoted
#: identifier or an unclosed string (each could hide a literal from one
#: of the two scans), nor hold a number the pattern stepped over: a
#: digit that does not continue a name.
_OPAQUE = re.compile(r"""['"]|--|/\*|(?<!\w)[0-9]""")


def split_literals(text: str) -> Optional[tuple[str, list[Any]]]:
    """``(shape, literal values in text order)``, or ``None`` to decline.

    ``shape`` is ``text`` with each literal replaced by its kind (``s`` /
    ``i`` / ``f``) and :data:`MARK`; the values are what the lexer's
    tokens would carry."""
    if MARK in text:
        return None
    parts = _LITERAL.split(text)
    values = []
    for index in range(1, len(parts), 2):
        kind, value = literal_value(parts[index])
        parts[index] = _MARKS[kind]
        values.append(value)
    shape = "".join(parts)
    if _OPAQUE.search(shape):
        return None
    return shape, values
