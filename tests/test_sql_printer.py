"""Printer tests: fixed cases plus a hypothesis parse/print round-trip,
and the AST's traversal table checked on the same generated trees."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import ast
from repro.sql.parser import parse, parse_expression
from repro.sql.printer import expression_to_sql, to_sql

# --------------------------------------------------------------------------- #
# fixed cases
# --------------------------------------------------------------------------- #


class TestFixedPrinting:
    def test_simple_select(self):
        sql = "SELECT a FROM t"
        assert to_sql(parse(sql)) == sql

    def test_full_block(self):
        sql = (
            "SELECT a.x, COUNT(*) AS cnt FROM t AS a WHERE a.y BETWEEN 1 AND 5 "
            "GROUP BY a.x HAVING COUNT(*) > 2 ORDER BY cnt DESC LIMIT 3"
        )
        assert to_sql(parse(sql)) == sql

    def test_string_escaping(self):
        expr = ast.Literal("it's")
        assert expression_to_sql(expr) == "'it''s'"

    def test_null_true_false(self):
        assert expression_to_sql(ast.Literal(None)) == "NULL"
        assert expression_to_sql(ast.Literal(True)) == "TRUE"
        assert expression_to_sql(ast.Literal(False)) == "FALSE"

    def test_precedence_parens_kept(self):
        sql = "SELECT (a + b) * c FROM t"
        printed = to_sql(parse(sql))
        assert "(a + b) * c" in printed

    def test_or_inside_and_parenthesised(self):
        stmt = parse("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        printed = to_sql(stmt)
        assert parse(printed) == stmt

    def test_join_printing(self):
        sql = "SELECT a FROM t JOIN u ON t.x = u.y"
        assert to_sql(parse(sql)) == sql

    def test_set_op_printing(self):
        sql = "SELECT a FROM t UNION ALL SELECT a FROM u"
        assert to_sql(parse(sql)) == sql

    def test_not_in_printing(self):
        sql = "SELECT a FROM t WHERE a NOT IN (1, 2)"
        assert to_sql(parse(sql)) == sql

    def test_is_not_null_printing(self):
        sql = "SELECT a FROM t WHERE a IS NOT NULL"
        assert to_sql(parse(sql)) == sql


# --------------------------------------------------------------------------- #
# hypothesis round-trip: parse(to_sql(ast)) == ast
# --------------------------------------------------------------------------- #

_identifiers = st.sampled_from(["a", "b", "c", "x1", "col_2", "t", "u"])
_tables = st.sampled_from(["t", "u", "v"])

_literals = st.one_of(
    st.integers(-1000, 1000).map(ast.Literal),
    st.floats(allow_nan=False, allow_infinity=False, width=32)
    .filter(lambda f: f >= 0)
    .map(ast.Literal),
    st.text(alphabet="abc '%_", max_size=8).map(ast.Literal),
    st.booleans().map(ast.Literal),
    st.just(ast.Literal(None)),
)

_columns = st.builds(
    ast.ColumnRef,
    name=_identifiers,
    table=st.one_of(st.none(), _tables),
)

_atoms = st.one_of(_literals, _columns)


def _expressions(depth: int):
    if depth == 0:
        return _atoms
    sub = _expressions(depth - 1)
    return st.one_of(
        _atoms,
        st.builds(
            ast.BinaryOp,
            op=st.sampled_from(["+", "-", "*", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"]),
            left=sub,
            right=sub,
        ),
        st.builds(ast.UnaryOp, op=st.just("NOT"), operand=sub),
        st.builds(
            ast.InList,
            operand=sub,
            items=st.lists(_literals, min_size=1, max_size=3).map(tuple),
            negated=st.booleans(),
        ),
        st.builds(
            ast.Between,
            operand=sub,
            low=_atoms,
            high=_atoms,
            negated=st.booleans(),
        ),
        st.builds(ast.IsNull, operand=sub, negated=st.booleans()),
        st.builds(
            ast.Like,
            operand=sub,
            pattern=st.text(alphabet="ab%_", max_size=5).map(ast.Literal),
            negated=st.booleans(),
        ),
    )


_select_statements = st.builds(
    ast.SelectStatement,
    items=st.lists(
        st.builds(
            ast.SelectItem,
            expression=_expressions(1),
            alias=st.one_of(st.none(), st.sampled_from(["o1", "o2"])),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
    from_items=st.lists(
        st.builds(
            ast.TableRef,
            name=_tables,
            alias=st.one_of(st.none(), st.sampled_from(["r", "s"])),
        ),
        min_size=1,
        max_size=2,
    ).map(tuple),
    where=st.one_of(st.none(), _expressions(2)),
    distinct=st.booleans(),
    limit=st.one_of(st.none(), st.integers(0, 100)),
)


_aggregates = st.builds(
    ast.FunctionCall,
    name=st.sampled_from(ast.AGGREGATES),
    args=st.one_of(
        st.builds(ast.Star, table=st.one_of(st.none(), _tables)).map(lambda s: (s,)),
        st.lists(_expressions(2), min_size=1, max_size=2).map(tuple),
    ),
    distinct=st.booleans(),
)


def _pre_order(node):
    """Pre-order over every dataclass field holding an expression: an
    oracle that does not read ``ast.CHILD_FIELDS``."""
    yield node
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, ast.Expression):
                yield from _pre_order(child)


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(expr=_expressions(3))
    def test_expression_round_trip(self, expr):
        """parse(print(e)) == e for arbitrary expression trees."""
        printed = expression_to_sql(expr)
        assert parse_expression(printed) == expr

    @settings(max_examples=150, deadline=None)
    @given(stmt=_select_statements)
    def test_statement_round_trip(self, stmt):
        printed = to_sql(stmt)
        assert parse(printed) == stmt

    @settings(max_examples=200, deadline=None)
    @given(expr=_expressions(3) | _aggregates)
    def test_rebuild_with_identity_is_equal(self, expr):
        assert ast.rebuild(expr, lambda child: child) == expr

    @settings(max_examples=200, deadline=None)
    @given(expr=_expressions(3) | _aggregates)
    def test_walk_visits_every_node_once_in_pre_order(self, expr):
        walked = [id(node) for node in ast.walk_expression(expr)]
        assert walked == [id(node) for node in _pre_order(expr)]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_expression_type_lists_its_sub_expression_fields():
    """A new node type cannot land without its row in the field table:
    every Expression subclass is listed, leaves with no fields, and the
    fields listed are exactly those typed as expressions."""
    for cls in _subclasses(ast.Expression):
        assert cls in ast.CHILD_FIELDS, cls
        typed = tuple(
            f.name for f in dataclasses.fields(cls) if "Expression" in str(f.type)
        )
        assert ast.CHILD_FIELDS[cls] == typed, cls
