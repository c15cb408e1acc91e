"""Prepared queries: parse and pin once, execute many times.

A :class:`PreparedQuery` does the frontend work a single time — parse,
stable fingerprint, dependency (table) set, parameter-slot extraction —
and then serves every execution through the owning
:class:`~repro.serving.server.BEASServer`'s caches. The coverage
decision and bounded plan for each distinct binding are pinned in the
server's decision cache, keyed by (fingerprint, access-schema
generation), so a repeated execute touches neither the parser, the
normalizer, nor the BE Checker.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.sql import ast
from repro.sql.fingerprint import statement_fingerprint, statement_tables
from repro.serving.params import (
    ParameterSlot,
    binding_signature,
    extract_slots,
    resolve_overrides,
    signature_shape,
    substitute,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.beas.session import ExecutionOptions, Result
    from repro.bounded.coverage import CoverageDecision
    from repro.serving.server import BEASServer

#: Distinct bindings whose substituted AST + fingerprint stay memoised.
_BINDING_CACHE_LIMIT = 64


def binding_fingerprint(template_fingerprint: str, signature: tuple) -> str:
    """A stable fingerprint for (template, canonical overrides).

    Derived from the template's canonical fingerprint plus the binding's
    :func:`~repro.serving.params.binding_signature` (resolved overrides,
    deduped/sorted by ``canonical_values``, in slot-name order), so it is
    computed in microseconds — without substituting and canonically
    re-printing the bound AST. The same bound query arriving as raw SQL
    text hashes under its own statement fingerprint instead; per
    ``sql.fingerprint``'s doctrine, a missed equivalence costs a cache
    miss, never a wrong answer.
    """
    preimage = template_fingerprint + "|" + repr(signature)
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


class PreparedBinding:
    """One concrete binding of a prepared template.

    Carries everything the serving layer needs to execute the binding
    *and* to reuse a pinned plan across bindings: its fingerprint
    (result-cache key — the values matter for answers), the resolved
    slot overrides, and the binding's arity/type-class
    :func:`~repro.serving.params.rebind_signature` (rebind-template key
    — only the shape matters for plan reuse).

    The substituted ``statement`` is built **lazily**: a binding whose
    decision is served by rebinding (or from the exact decision cache)
    and whose plan covers the query never needs its own AST at decision
    time, so the common serving path skips the substitution entirely.
    """

    __slots__ = (
        "fingerprint",
        "overrides",
        "signature",
        "_statement",
        "_template_statement",
        "_schema",
    )

    def __init__(
        self,
        statement: Optional[ast.Statement],
        fingerprint: str,
        overrides: Optional[Mapping[str, tuple]] = None,
        signature: tuple = (),
        *,
        template_statement: Optional[ast.Statement] = None,
        schema=None,
    ):
        self._statement = statement
        self.fingerprint = fingerprint
        self.overrides: Mapping[str, tuple] = (
            overrides if overrides is not None else {}
        )
        self.signature = signature
        self._template_statement = template_statement
        self._schema = schema

    @property
    def statement(self) -> ast.Statement:
        statement = self._statement
        if statement is None:
            # pure + idempotent: a concurrent duplicate build is benign
            statement = substitute(
                self._template_statement, self.overrides, self._schema
            )
            self._statement = statement
        return statement

    @property
    def is_template(self) -> bool:
        """True when this binding is the template's own constants."""
        return not self.overrides

    def __repr__(self) -> str:
        return (
            f"PreparedBinding({self.fingerprint[:12]}…, "
            f"overrides={sorted(self.overrides)})"
        )


class PreparedQuery:
    """One parsed template plus its parameterisable constant slots."""

    def __init__(
        self,
        server: "BEASServer",
        statement: ast.Statement,
        sql: str,
        name: Optional[str] = None,
        *,
        fingerprint: Optional[str] = None,
        tables: Optional[frozenset[str]] = None,
    ):
        self._server = server
        self.sql = sql
        self.statement = statement
        self.fingerprint = fingerprint or statement_fingerprint(statement)
        self.tables = tables if tables is not None else statement_tables(statement)
        self.slots: dict[str, ParameterSlot] = extract_slots(
            statement, server.database.schema
        )
        self.name = name or f"pq-{self.fingerprint[:12]}"
        self._template_binding = PreparedBinding(statement, self.fingerprint)
        self._bindings: OrderedDict[tuple, PreparedBinding] = OrderedDict()
        # one handle is shared by every thread executing the template;
        # the memo's OrderedDict reordering is not safe bare
        self._bindings_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def binding(
        self, params: Optional[Mapping[str, Any]] = None
    ) -> PreparedBinding:
        """The concrete :class:`PreparedBinding` for one set of overrides.

        With no overrides the template's own constants are used. Distinct
        bindings are memoised (LRU) so repeated executes skip the
        substitution, the canonical re-print, and the signature build.
        """
        if not params:
            return self._template_binding
        schema = self._server.database.schema
        resolved = resolve_overrides(params, self.slots, self.statement, schema)
        # sorted once: memo key, fingerprint and arity signature all
        # derive from it
        signature = binding_signature(resolved)
        with self._bindings_lock:
            bound = self._bindings.get(signature)
            if bound is not None:
                self._bindings.move_to_end(signature)
                return bound
            bound = self._bindings[signature] = PreparedBinding(
                statement=None,  # substituted lazily, on first .statement use
                fingerprint=binding_fingerprint(self.fingerprint, signature),
                overrides=MappingProxyType(resolved),
                signature=signature_shape(signature),
                template_statement=self.statement,
                schema=schema,
            )
            if len(self._bindings) > _BINDING_CACHE_LIMIT:
                self._bindings.popitem(last=False)
        return bound

    def bind(
        self, params: Optional[Mapping[str, Any]] = None
    ) -> tuple[ast.Statement, str]:
        """The concrete (statement, fingerprint) for one set of overrides
        (the narrow view of :meth:`binding`, kept for callers that only
        need the substituted AST)."""
        bound = self.binding(params)
        return bound.statement, bound.fingerprint

    def clear_bindings(self) -> None:
        """Drop the per-binding memo (``BEASServer.reset_caches``)."""
        with self._bindings_lock:
            self._bindings.clear()

    # ------------------------------------------------------------------ #
    def execute(
        self,
        params: Optional[Mapping[str, Any]] = None,
        *,
        options: Optional["ExecutionOptions"] = None,
        **fields: Any,
    ) -> "Result":
        """Execute one binding through the serving caches; ``options`` /
        keyword fields are the call layer, as in ``Query.run``."""
        return self._server.execute_prepared(
            self, params, options=options, **fields
        )

    __call__ = execute

    def check(
        self,
        params: Optional[Mapping[str, Any]] = None,
        budget: Optional[int] = None,
    ) -> "CoverageDecision":
        """The (cached) coverage decision for one binding."""
        return self._server.check_prepared(self, params, budget=budget)

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        lines = [
            f"prepared {self.name}: {self.fingerprint[:12]}…",
            f"  tables: {', '.join(sorted(self.tables)) or '(none)'}",
            f"  slots: "
            + (
                "; ".join(
                    self.slots[name].describe() for name in sorted(self.slots)
                )
                or "(none)"
            ),
            f"  bindings memoised: {len(self._bindings)}",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self.name}, slots={sorted(self.slots)}, "
            f"bindings={len(self._bindings)})"
        )
