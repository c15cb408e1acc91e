"""The query canon agrees with itself.

The fingerprint, the normaliser and the parameter slots share one
BETWEEN rewrite (``ast.between_comparison``), one rule for what a
selection is (``normalize.selection_literals``) and one value order
(``normalize.canonical_selection``). Over spellings of one query —
BETWEEN against its comparisons, ``const = col`` against ``col =
const``, IN lists permuted or with duplicates — equal fingerprints must
mean equal normalized queries, and the slots must be the normaliser's
selections on an attribute constrained once.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.serving.params import extract_slots
from repro.sql import ast
from repro.sql.fingerprint import statement_fingerprint
from repro.sql.normalize import normalize
from repro.sql.parser import parse

from tests.conftest import example1_schema

_SELECT = "SELECT c.recnum FROM call c, package p WHERE p.pnum = c.pnum AND "

#: each group's spellings share one fingerprint, and no other spelling
#: here shares it
GROUPS = [
    ["c.call_id BETWEEN 3 AND 9", "c.call_id >= 3 AND c.call_id <= 9"],
    ["c.call_id NOT BETWEEN 3 AND 9", "(c.call_id < 3 OR c.call_id > 9)"],
    # a NULL or column bound keeps BETWEEN apart from its comparisons
    ["c.call_id BETWEEN NULL AND 9"],
    ["c.call_id >= NULL AND c.call_id <= 9"],
    ["c.call_id NOT BETWEEN 3 AND NULL"],
    ["(c.call_id < 3 OR c.call_id > NULL)"],
    ["c.call_id BETWEEN p.pkg_id AND 9"],
    ["c.call_id >= p.pkg_id AND c.call_id <= 9"],
    ["c.call_id NOT BETWEEN p.pkg_id AND p.year"],
    ["(c.call_id < p.pkg_id OR c.call_id > p.year)"],
    # the fingerprint keeps the two sides of ``=`` as written; the
    # normaliser and the slots read both the same way
    ["c.region = 'east'"],
    ["'east' = c.region"],
    ["c.region = 'east' AND p.year = 2016"],
    ["2016 = p.year AND 'east' = c.region"],
    [
        "p.year IN (2016, 2015)",
        "p.year IN (2015, 2016)",
        "p.year IN (2015, 2016, 2015)",
    ],
    ["p.year IN (2016)", "p.year IN (2016, 2016)"],
    ["p.year = 2016"],
    # an attribute constrained twice is a selection but not a slot
    ["p.year IN (2015, 2016) AND p.year = 2016", "p.year = 2016 AND p.year IN (2016, 2015)"],
    [
        "c.region = 'east' AND c.call_id BETWEEN 3 AND 9",
        "c.call_id >= 3 AND c.region = 'east' AND c.call_id <= 9",
    ],
]

SPELLINGS = [(index, where) for index, group in enumerate(GROUPS) for where in group]


def _statement(where: str) -> ast.SelectStatement:
    statement = parse(_SELECT + where)
    assert isinstance(statement, ast.SelectStatement)
    return statement


@pytest.mark.parametrize(("group", "where"), SPELLINGS)
def test_the_canon_agrees_with_itself(group, where):
    schema = example1_schema()
    statement = _statement(where)
    cq = normalize(statement, schema)

    fingerprint = statement_fingerprint(statement)
    twins = [
        (index, other)
        for index, other in SPELLINGS
        if statement_fingerprint(_statement(other)) == fingerprint
    ]
    assert {index for index, _ in twins} == {group}
    assert len(twins) == len(GROUPS[group])
    for _, other in twins:
        assert normalize(_statement(other), schema) == cq

    constrained = Counter(
        attr
        for conjunct in ast.conjuncts(statement.where)
        for attr in normalize(replace(statement, where=conjunct), schema).selections
    )
    assert set(extract_slots(statement, schema)) == {
        str(attr) for attr in cq.selections if constrained[attr] == 1
    }
