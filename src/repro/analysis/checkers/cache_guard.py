"""cache-guard: serving-path cache reads must check freshness.

The bug class (PR 6, and the PR 2 invariant it refined): a cached
result served without re-validating the table version vector / catalog
schema generation can return rows from before a maintenance batch — a
stale read the differential suites exist to catch. Any serving-path
function that pulls rows out of a cache (``.lookup(...)`` /
``.peek(...)``) must, in the same function, reference the freshness
machinery (``_entry_fresh``, ``schema_generation``, version vectors).

The rule covers ``serving/`` and ``beas/system.py`` (the engine holds
the serving caches). ``serving/shard.py`` and ``serving/cache.py`` are
out of scope: they *implement* the guarded containers this rule forces
callers through.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers._util import on_serving_path, terminal_name, walk_scope
from repro.analysis.core import Checker, Finding, ModuleContext, register

#: names whose presence marks a freshness check
FRESHNESS_TOKENS = frozenset(
    {
        "_entry_fresh",
        "schema_generation",
        "generation",
        "table_versions",
        "versions",
        "observe_version",
        "version",
    }
)

_READ_ATTRS = frozenset({"lookup", "peek"})

#: modules that implement (rather than consume) the guarded containers
_EXEMPT = frozenset({"serving/shard.py", "serving/cache.py"})


@register
class CacheGuardChecker(Checker):
    rule = "cache-guard"
    description = (
        "serving-path cache reads returning rows must sit in a function "
        "that validates version-vector / schema-generation freshness"
    )

    def applies_to(self, relpath: str) -> bool:
        return on_serving_path(relpath) and relpath not in _EXEMPT

    def check(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reads: list[ast.Call] = []
            fresh = False
            for node in walk_scope(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _READ_ATTRS
                ):
                    reads.append(node)
                if isinstance(node, ast.Attribute) and node.attr in FRESHNESS_TOKENS:
                    fresh = True
                elif isinstance(node, ast.Name) and node.id in FRESHNESS_TOKENS:
                    fresh = True
                elif (
                    isinstance(node, ast.Call)
                    and (terminal_name(node.func) or "") in FRESHNESS_TOKENS
                ):
                    fresh = True
            if reads and not fresh:
                for call in reads:
                    attr = terminal_name(call.func)
                    findings.append(
                        module.finding(
                            self.rule,
                            call,
                            f"cache read `.{attr}(...)` in `{scope.name}` "
                            f"with no freshness check in the same function "
                            f"— validate the version vector or schema "
                            f"generation before serving cached rows",
                        )
                    )
        return findings
