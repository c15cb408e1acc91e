"""remote-dispatch: only engine/router.py ships a plan to a peer process.

The invariant (PR 17): which way a bounded plan runs is decided once
(``engine.router.allowed_routes``) and run by one dispatcher
(``PlanRunner.run_route``), which holds the only
``EnginePool.execute_plan`` / ``ReplicaFleet.execute_plan`` call sites,
the one remote -> local-columnar fallback edge, and the stamping of
``pool_*`` / ``replica_id`` / ``wire_seconds``. Before that the decision
lived in five places that disagreed — an executor built without its
``fleet=`` served a ``replicas=3`` request locally without saying so. A
second call site anywhere else is a second dispatcher with its own idea
of when to fall back and what to stamp.

Without type information the rule reads any ``<expr>.execute_plan(...)``
as a dispatch to a pool or fleet: no other class in ``src/repro``
defines the method.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, Finding, ModuleContext, register


@register
class RemoteDispatchChecker(Checker):
    rule = "remote-dispatch"
    description = (
        "a plan is shipped to a pool worker or fleet replica "
        "(`.execute_plan(...)`) only by engine/router.py — everything "
        "else goes through PlanRunner.run_route"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath != "engine/router.py"

    def check(self, module: ModuleContext) -> list[Finding]:
        return [
            module.finding(
                self.rule,
                node,
                "`.execute_plan(...)` outside engine/router.py — run the "
                "plan with PlanRunner.run_route(route, plan), which owns "
                "the fallback edge and the pool/fleet metrics",
            )
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "execute_plan"
        ]
