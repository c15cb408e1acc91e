"""metrics-accounting: ExecutionMetrics sites must account honestly.

The bug class (PR 7): cache-hit and subsumed serves constructed
``ExecutionMetrics(..., seconds=0.0)``, so the learned router trained
on "free" latencies and the cost-aware admission compared against
zeros. A construction site may only write fields the dataclass
declares, and must never hardcode a zero latency — measure it
(``time.perf_counter()`` deltas) or leave the field to its default.
"""

from __future__ import annotations

import ast
import dataclasses

from repro.analysis.checkers._util import terminal_name
from repro.analysis.core import Checker, Finding, ModuleContext, register


def _declared_fields() -> frozenset[str]:
    from repro.engine.metrics import ExecutionMetrics

    return frozenset(f.name for f in dataclasses.fields(ExecutionMetrics))


def _is_zero_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value == 0
    )


@register
class MetricsAccountingChecker(Checker):
    rule = "metrics-accounting"
    description = (
        "ExecutionMetrics sites may only write declared fields and must "
        "never hardcode seconds=0 — measure the latency or use the default"
    )

    def check(self, module: ModuleContext) -> list[Finding]:
        declared = _declared_fields()
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                if terminal_name(node.func) != "ExecutionMetrics":
                    continue
                findings.extend(self._check_call(module, node, declared))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "seconds"
                        and _is_zero_literal(node.value)
                    ):
                        findings.append(
                            module.finding(
                                self.rule,
                                node,
                                "`.seconds = 0` literal — measure the "
                                "latency (perf_counter delta) instead of "
                                "zeroing it",
                            )
                        )
        return findings

    def _check_call(
        self, module: ModuleContext, node: ast.Call, declared: frozenset[str]
    ) -> list[Finding]:
        findings: list[Finding] = []
        if node.args:
            findings.append(
                module.finding(
                    self.rule,
                    node,
                    "positional ExecutionMetrics args — use keywords so the "
                    "field being written is auditable",
                )
            )
        for keyword in node.keywords:
            if keyword.arg is None:
                findings.append(
                    module.finding(
                        self.rule,
                        node,
                        "`**kwargs` into ExecutionMetrics hides which fields "
                        "are written — spell them out",
                    )
                )
            elif keyword.arg not in declared:
                findings.append(
                    module.finding(
                        self.rule,
                        node,
                        f"unknown ExecutionMetrics field `{keyword.arg}` — "
                        f"declare it on the dataclass first",
                    )
                )
            elif keyword.arg == "seconds" and _is_zero_literal(keyword.value):
                findings.append(
                    module.finding(
                        self.rule,
                        node,
                        "hardcoded `seconds=0` — measure the serve latency "
                        "(perf_counter delta); zero latencies poison the "
                        "learned router's latency means",
                    )
                )
        return findings
