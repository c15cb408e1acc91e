"""table-mutation: only storage/table.py edits a Table's row list.

The invariant (PR 14): ``Table`` keeps a row locator — row → ids of its
live occurrences, plus an id column parallel to ``rows`` — so that
``delete_rows`` and WAL replay cost O(batch), not
O(table). The locator is exact only while every edit of the list goes
through a ``Table`` method; an ``x.rows.append(...)`` behind its back
leaves the id column one short, and the next delete removes the *wrong*
row. Before the locator existed four modules edited ``rows`` directly
(the CSV loader, the partial-plan temp table, and the maintenance
rollback and restore loops); they now call ``Table.from_trusted_rows``
/ ``insert_rows`` / ``delete_rows``, and this rule keeps it that way.

Without type information the rule reads ``<expr>.rows`` as a table's
rows, which is what the attribute means on every non-``self`` receiver
in ``src/repro`` that is mutated at all; a class assigning its own
``self.rows`` is exempt (``Table`` itself lives in the exempt module).
Reassigning ``table.rows = [...]`` wholesale is *safe* at run time (the
setter drops the locator) and stays available to outside code, but
in-tree code must still use the methods, which also keep ``version``
honest.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.core import Checker, Finding, ModuleContext, register

_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
)


def _rows_of_other(node: ast.AST) -> bool:
    """``<receiver>.rows`` where the receiver is not plain ``self``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "rows"
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    )


def _stored_rows(target: ast.AST) -> Optional[str]:
    """How an assignment/``del`` target edits a rows list, if it does."""
    if _rows_of_other(target):
        return "rebinds"
    if isinstance(target, ast.Subscript) and _rows_of_other(target.value):
        return "edits an item of"
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            if (how := _stored_rows(element)) is not None:
                return how
    return None


@register
class TableMutationChecker(Checker):
    rule = "table-mutation"
    description = (
        "a Table's rows list is edited only by storage/table.py — "
        "everything else goes through Table methods, which keep the row "
        "locator and version in step"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath != "storage/table.py"

    def check(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            findings.append(
                module.finding(
                    self.rule,
                    node,
                    f"{what} outside storage/table.py — use a Table method "
                    f"(insert_rows, delete_rows, clear, "
                    f"from_trusted_rows) so the row locator and version "
                    f"stay exact",
                )
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                    and _rows_of_other(func.value)
                ):
                    flag(node, f"`.rows.{func.attr}(...)`")
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                continue
            for target in targets:
                if (how := _stored_rows(target)) is not None:
                    flag(node, f"a statement that {how} `.rows`")
        return findings
