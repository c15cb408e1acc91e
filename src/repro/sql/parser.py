"""Recursive-descent parser for the SQL subset.

Grammar (simplified):

    statement    := select_block ((UNION|INTERSECT|EXCEPT) [ALL] select_block)*
    select_block := SELECT [DISTINCT] items FROM from_list
                    [WHERE expr] [GROUP BY expr_list] [HAVING expr]
                    [ORDER BY order_list] [LIMIT int [OFFSET int]]
    from_list    := from_item (',' from_item)*
    from_item    := table_ref (join_clause)*
    join_clause  := [INNER|LEFT [OUTER]|CROSS] JOIN table_ref [ON expr]
    expr         := or_expr; standard precedence with NOT, comparisons,
                    BETWEEN / IN / LIKE / IS NULL, additive, multiplicative,
                    unary minus, parentheses, aggregate calls.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenKind


_LITERAL_KINDS = (TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.STRING)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0
        #: token index -> the node a string/number token became as is
        #: (see :func:`parse_with_literals`)
        self._literal_nodes: dict[int, ast.Literal] = {}

    # ----------------------------------------------------------------- #
    # token plumbing
    # ----------------------------------------------------------------- #
    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._current
        at = f" near {token.text!r}" if token.kind is not TokenKind.EOF else " at end"
        return ParseError(f"{message}{at}", token.line, token.column)

    def _check_keyword(self, *words: str) -> bool:
        token = self._tokens[self._index]
        return token.kind is TokenKind.KEYWORD and token.text in words

    def _accept_keyword(self, *words: str) -> bool:
        token = self._tokens[self._index]
        if token.kind is TokenKind.KEYWORD and token.text in words:
            self._index += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        if not self._check_keyword(word):
            raise self._error(f"expected {word}")
        return self._advance()

    def _accept_punct(self, text: str) -> bool:
        token = self._tokens[self._index]
        if token.kind is TokenKind.PUNCTUATION and token.text == text:
            self._index += 1
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        token = self._current
        if token.kind is TokenKind.PUNCTUATION and token.text == text:
            return self._advance()
        raise self._error(f"expected {text!r}")

    def _accept_operator(self, *ops: str) -> Optional[str]:
        token = self._tokens[self._index]
        if token.kind is TokenKind.OPERATOR and token.text in ops:
            self._index += 1
            return token.text
        return None

    def _expect_identifier(self, what: str) -> str:
        token = self._current
        if token.kind is TokenKind.IDENTIFIER:
            self._advance()
            return token.text
        raise self._error(f"expected {what}")

    # ----------------------------------------------------------------- #
    # statements
    # ----------------------------------------------------------------- #
    def parse_statement(self) -> ast.Statement:
        left: ast.Statement = self._parse_select_block()
        while self._check_keyword("UNION", "INTERSECT", "EXCEPT"):
            op = self._advance().text
            use_all = self._accept_keyword("ALL")
            right = self._parse_select_block()
            left = ast.SetOperation(op, left, right, all=use_all)
        return left

    def parse_script_statement(self) -> ast.ScriptStatement:
        if self._check_keyword("CREATE"):
            return self._parse_create_table()
        if self._check_keyword("INSERT"):
            return self._parse_insert_values()
        return self.parse_statement()

    # ----------------------------------------------------------------- #
    # DDL / DML
    # ----------------------------------------------------------------- #
    #: accepted type spellings -> canonical DataType value names
    _TYPE_ALIASES = {
        "int": "int", "integer": "int", "bigint": "int", "smallint": "int",
        "float": "float", "real": "float", "double": "float",
        "numeric": "float", "decimal": "float",
        "string": "string", "text": "string", "varchar": "string",
        "char": "string",
        "bool": "bool", "boolean": "bool",
        "date": "date",
    }

    def _parse_create_table(self) -> ast.CreateTable:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        name = self._expect_identifier("table name")
        self._expect_punct("(")
        columns: list[ast.ColumnDefinition] = []
        primary_key: tuple[str, ...] = ()
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._expect_punct("(")
                key = [self._expect_identifier("key column")]
                while self._accept_punct(","):
                    key.append(self._expect_identifier("key column"))
                self._expect_punct(")")
                if primary_key:
                    raise self._error("duplicate PRIMARY KEY clause")
                primary_key = tuple(key)
            else:
                column = self._expect_identifier("column name")
                type_token = self._current
                if type_token.kind is not TokenKind.IDENTIFIER:
                    raise self._error(f"expected a type for column {column!r}")
                canonical = self._TYPE_ALIASES.get(type_token.text.lower())
                if canonical is None:
                    raise self._error(
                        f"unknown column type {type_token.text!r}"
                    )
                self._advance()
                # swallow length arguments like VARCHAR(32)
                if self._accept_punct("("):
                    self._parse_nonnegative_int("type length")
                    self._expect_punct(")")
                columns.append(ast.ColumnDefinition(column, canonical))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        if not columns:
            raise self._error("CREATE TABLE needs at least one column")
        return ast.CreateTable(name, tuple(columns), primary_key)

    def _parse_insert_values(self) -> ast.InsertValues:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier("table name")
        columns: tuple[str, ...] = ()
        if self._accept_punct("("):
            names = [self._expect_identifier("column name")]
            while self._accept_punct(","):
                names.append(self._expect_identifier("column name"))
            self._expect_punct(")")
            columns = tuple(names)
        self._expect_keyword("VALUES")
        rows: list[tuple[ast.Expression, ...]] = []
        while True:
            self._expect_punct("(")
            values = [self._parse_insert_value()]
            while self._accept_punct(","):
                values.append(self._parse_insert_value())
            self._expect_punct(")")
            rows.append(tuple(values))
            if not self._accept_punct(","):
                break
        return ast.InsertValues(table, columns, tuple(rows))

    def _parse_insert_value(self) -> ast.Expression:
        expr = self.parse_expression()
        if not isinstance(expr, ast.Literal):
            raise self._error("INSERT VALUES entries must be literals")
        return expr

    def _parse_select_block(self) -> ast.SelectStatement:
        if self._accept_punct("("):
            inner = self._parse_select_block()
            self._expect_punct(")")
            return inner
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        if self._accept_keyword("ALL"):
            distinct = False
        items = self._parse_select_items()

        from_items: tuple[ast.FromItem, ...] = ()
        if self._accept_keyword("FROM"):
            from_items = self._parse_from_list()

        where = self.parse_expression() if self._accept_keyword("WHERE") else None

        group_by: tuple[ast.Expression, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._parse_expression_list())

        having = self.parse_expression() if self._accept_keyword("HAVING") else None

        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = tuple(self._parse_order_list())

        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_nonnegative_int("LIMIT")
            if self._accept_keyword("OFFSET"):
                offset = self._parse_nonnegative_int("OFFSET")

        return ast.SelectStatement(
            items=tuple(items),
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_nonnegative_int(self, clause: str) -> int:
        token = self._current
        if token.kind is TokenKind.INTEGER:
            self._advance()
            return int(token.value)
        raise self._error(f"expected a non-negative integer after {clause}")

    def _parse_select_items(self) -> list[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        expr = self.parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias after AS")
        elif self._current.kind is TokenKind.IDENTIFIER:
            alias = self._advance().text
        return ast.SelectItem(expr, alias)

    # ----------------------------------------------------------------- #
    # FROM clause
    # ----------------------------------------------------------------- #
    def _parse_from_list(self) -> tuple[ast.FromItem, ...]:
        items = [self._parse_from_item()]
        while self._accept_punct(","):
            items.append(self._parse_from_item())
        return tuple(items)

    def _parse_from_item(self) -> ast.FromItem:
        item: ast.FromItem = self._parse_table_ref()
        while True:
            kind = None
            if self._accept_keyword("CROSS"):
                kind = "CROSS"
            elif self._accept_keyword("INNER"):
                kind = "INNER"
            elif self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                kind = "LEFT"
            elif self._check_keyword("JOIN"):
                kind = "INNER"
            if kind is None:
                return item
            self._expect_keyword("JOIN")
            right = self._parse_table_ref()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self.parse_expression()
            item = ast.Join(kind, item, right, condition)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect_identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias after AS")
        elif self._current.kind is TokenKind.IDENTIFIER:
            alias = self._advance().text
        return ast.TableRef(name, alias)

    def _parse_order_list(self) -> list[ast.OrderItem]:
        items = []
        while True:
            expr = self.parse_expression()
            ascending = True
            if self._accept_keyword("DESC"):
                ascending = False
            else:
                self._accept_keyword("ASC")
            items.append(ast.OrderItem(expr, ascending))
            if not self._accept_punct(","):
                return items

    def _parse_expression_list(self) -> list[ast.Expression]:
        items = [self.parse_expression()]
        while self._accept_punct(","):
            items.append(self.parse_expression())
        return items

    # ----------------------------------------------------------------- #
    # expressions (precedence climbing)
    # ----------------------------------------------------------------- #
    def parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        left = self._parse_additive()

        op = self._accept_operator("=", "<>", "!=", "<", "<=", ">", ">=")
        if op:
            op = "<>" if op == "!=" else op
            return ast.BinaryOp(op, left, self._parse_additive())

        negated = False
        if self._check_keyword("NOT"):
            # lookahead: NOT must be followed by IN/BETWEEN/LIKE to bind here
            nxt = self._tokens[self._index + 1]
            if nxt.is_keyword("IN", "BETWEEN", "LIKE"):
                self._advance()
                negated = True
            else:
                return left

        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            items = [self.parse_expression()]
            while self._accept_punct(","):
                items.append(self.parse_expression())
            self._expect_punct(")")
            return ast.InList(left, tuple(items), negated)
        if self._accept_keyword("LIKE"):
            return ast.Like(left, self._parse_additive(), negated)
        if self._accept_keyword("IS"):
            is_negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, is_negated)
        if negated:  # pragma: no cover - unreachable given lookahead
            raise self._error("dangling NOT")
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            op = self._accept_operator("+", "-", "||")
            if not op:
                return left
            left = ast.BinaryOp(op, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            op = self._accept_operator("*", "/", "%")
            if not op:
                return left
            left = ast.BinaryOp(op, left, self._parse_unary())

    def _parse_unary(self) -> ast.Expression:
        if self._accept_operator("-"):
            operand = self._parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if self._accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._current

        if token.kind in _LITERAL_KINDS:
            node = self._literal_nodes[self._index] = ast.Literal(token.value)
            self._index += 1
            return node
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)

        if token.is_keyword(*ast.AGGREGATES):
            name = self._advance().text
            self._expect_punct("(")
            distinct = self._accept_keyword("DISTINCT")
            if self._current.kind is TokenKind.OPERATOR and self._current.text == "*":
                self._advance()
                args: tuple[ast.Expression, ...] = (ast.Star(),)
            else:
                args = tuple(self._parse_expression_list())
            self._expect_punct(")")
            return ast.FunctionCall(name, args, distinct)

        if token.kind is TokenKind.OPERATOR and token.text == "*":
            self._advance()
            return ast.Star()

        if token.kind is TokenKind.IDENTIFIER:
            name = self._advance().text
            if self._accept_punct("."):
                nxt = self._current
                if nxt.kind is TokenKind.OPERATOR and nxt.text == "*":
                    self._advance()
                    return ast.Star(table=name)
                column = self._expect_identifier("column name after '.'")
                return ast.ColumnRef(column, table=name)
            return ast.ColumnRef(name)

        if self._accept_punct("("):
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr

        raise self._error("expected an expression")


def _parse_one(sql: str) -> tuple[ast.Statement, _Parser]:
    parser = _Parser(tokenize(sql))
    statement = parser.parse_statement()
    parser._accept_punct(";")
    if parser._current.kind is not TokenKind.EOF:
        raise parser._error("unexpected trailing input")
    return statement, parser


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement (a trailing ``;`` is allowed)."""
    return _parse_one(sql)[0]


def parse_with_literals(
    sql: str,
) -> tuple[ast.Statement, list[tuple[Any, Optional[ast.Literal]]]]:
    """:func:`parse`, plus what became of each string / number token, in
    text order: ``(token value, node)``. ``node`` is the
    :class:`~repro.sql.ast.Literal` the parser built from the token, or
    ``None`` when the grammar consumed it some other way (``LIMIT 5``).
    Match nodes by identity: a number folded under unary minus is
    replaced in the statement by a new node, so its token's node is not
    part of the statement."""
    statement, parser = _parse_one(sql)
    nodes = parser._literal_nodes
    return statement, [
        (token.value, nodes.get(index))
        for index, token in enumerate(parser._tokens)
        if token.kind in _LITERAL_KINDS
    ]


def parse_script(sql: str) -> list[ast.ScriptStatement]:
    """Parse a ``;``-separated script of CREATE TABLE / INSERT / SELECT."""
    parser = _Parser(tokenize(sql))
    statements: list[ast.ScriptStatement] = []
    while parser._current.kind is not TokenKind.EOF:
        statements.append(parser.parse_script_statement())
        had_semicolon = parser._accept_punct(";")
        if parser._current.kind is TokenKind.EOF:
            break
        if not had_semicolon:
            raise parser._error("expected ';' between statements")
    return statements


def parse_expression(sql: str) -> ast.Expression:
    """Parse a standalone expression (used by tests and the REPL-ish API)."""
    parser = _Parser(tokenize(sql))
    expr = parser.parse_expression()
    if parser._current.kind is not TokenKind.EOF:
        raise parser._error("unexpected trailing input")
    return expr
