"""Prepared queries: parse and pin once, execute many times.

A :class:`PreparedQuery` does the frontend work a single time — parse,
stable fingerprint, dependency (table) set, parameter-slot extraction —
and then serves every execution through the owning
:class:`~repro.serving.server.BEASServer`'s caches. The coverage
decision and bounded plan for each distinct binding are pinned in the
server's decision cache, keyed by (fingerprint, access-schema
generation), so a repeated execute touches neither the parser, the
normalizer, nor the BE Checker.

Ad-hoc SQL text takes the same path: :class:`AdhocTemplates` resolves a
text to a template of its shape plus the text's own literals as that
template's parameters (``docs/invariants.md``, "Literal lifting").
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.sql import ast
from repro.sql.fingerprint import statement_fingerprint, statement_tables
from repro.sql.parser import parse_with_literals
from repro.sql.shape import MARK, split_literals
from repro.serving.cache import CacheStats
from repro.serving.params import (
    ParameterSlot,
    binding_signature,
    extract_slots,
    resolve_overrides,
    signature_shape,
    slot_literals,
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

    __slots__ = ("template", "fingerprint", "overrides", "signature", "_statement")

    def __init__(
        self,
        template: "PreparedQuery",
        fingerprint: str,
        overrides: Optional[Mapping[str, tuple]] = None,
        signature: tuple = (),
    ):
        self.template = template
        self.fingerprint = fingerprint
        self.overrides: Mapping[str, tuple] = (
            overrides if overrides is not None else {}
        )
        self.signature = signature
        self._statement: Optional[ast.Statement] = None

    @property
    def statement(self) -> ast.Statement:
        statement = self._statement
        if statement is None:
            # pure + idempotent: a concurrent duplicate build is benign
            template = self.template
            statement = self._statement = substitute(
                template.statement, self.overrides, template.schema
            )
        return statement

    def rebind_key(self, generation: int) -> tuple:
        """Where the decision cache pins the plan every binding of this
        template with this signature reuses. The decision cache holds,
        next to the per-binding exact entries, one pinned template per
        (template fingerprint, arity signature, schema generation): the
        first binding of each signature pays a full BE Checker run and
        pins its decision plus a
        :class:`~repro.bounded.rebind.RebindTemplate`; every later
        equal-signature binding patches the pinned plan's constant key
        parts directly. A binding that changes a slot's IN-list arity or
        type class lands on a different signature (or trips the
        rebinder's merged-arity guard) and re-checks. The values of a
        binding never enter the key, only its shape."""
        return ("rebind", self.template.fingerprint, self.signature, generation)

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
        #: ``tables`` in the canonical (sorted) order per-table vectors use
        self.table_order = tuple(sorted(self.tables))
        self.schema = server.database.schema
        self.slots: dict[str, ParameterSlot] = extract_slots(
            statement, self.schema
        )
        self.name = name or f"pq-{self.fingerprint[:12]}"
        self._template_binding = PreparedBinding(self, self.fingerprint)
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
        resolved = resolve_overrides(
            params, self.slots, self.statement, self.schema
        )
        # sorted once: memo key, fingerprint and arity signature all
        # derive from it
        signature = binding_signature(resolved)
        with self._bindings_lock:
            bound = self._bindings.get(signature)
            if bound is not None:
                self._bindings.move_to_end(signature)
                return bound
            bound = self._bindings[signature] = PreparedBinding(
                self,
                binding_fingerprint(self.fingerprint, signature),
                MappingProxyType(resolved),
                signature_shape(signature),
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


#: Ad-hoc templates kept, least recently bound first out. A shape has
#: one per distinct combination of its pinned literals (Q1: one per date).
_TEMPLATE_LIMIT = 256
#: What a slot's constants print as in a template's fingerprint: a value
#: no lifted literal can have (the split declines text holding MARK).
_MASKED = (MARK,)


class _Shape:
    """What one parse established for every text of a shape: which
    literal positions fill which slot, and which are pinned."""

    __slots__ = ("slots", "pinned", "templates")

    def __init__(
        self, slots: tuple[tuple[str, tuple[int, ...]], ...], pinned: tuple[int, ...]
    ):
        self.slots = slots
        self.pinned = pinned
        self.templates = 0  # how many of this shape are held

    def pinned_values(self, literals: list) -> tuple:
        return tuple(literals[position] for position in self.pinned)

    def params(self, literals: list) -> dict[str, Any]:
        return {
            name: (
                literals[positions[0]]
                if len(positions) == 1
                else [literals[position] for position in positions]
            )
            for name, positions in self.slots
        }


class AdhocTemplates:
    """Raw SQL text -> a binding of the template of its shape.

    A text is a prepared template whose constants arrived inline. The
    literals at slot sites (``attr = const`` / ``attr IN (consts)``
    top-level conjuncts, :func:`~repro.serving.params.slot_literals`)
    become the binding's parameters; every other literal is *pinned*:
    part of the template's identity. A template's fingerprint is the
    ``statement_fingerprint`` of its statement with the slot constants
    masked, so spellings that differ in whitespace, keyword case or
    conjunct order bind under one fingerprint whichever constants each
    was first seen with.

    Only a text whose (shape, pinned literals) is new reaches the
    parser. Templates live here, never in the server's named registry.
    """

    def __init__(self, server: "BEASServer"):
        self._server = server
        self._lock = threading.Lock()
        self._shapes: dict[str, _Shape] = {}
        #: (shape, pinned values) -> template, in LRU order
        self._templates: OrderedDict[tuple, PreparedQuery] = OrderedDict()
        self._stats = CacheStats("template")

    def binding(self, text: str) -> PreparedBinding:
        split = split_literals(text)
        known = template = None
        with self._lock:
            if split is not None:
                shape, literals = split
                known = self._shapes.get(shape)
                if known is not None:
                    key = (shape, known.pinned_values(literals))
                    template = self._templates.get(key)
            if template is None:
                self._stats.misses += 1
            else:
                self._stats.hits += 1
                self._templates.move_to_end(key)
        if template is None:
            return self._parse(text, split)
        return template.binding(known.params(literals))

    def _parse(
        self, text: str, split: Optional[tuple[str, list]]
    ) -> PreparedBinding:
        """The shape-miss path: the one place serving calls the parser."""
        server = self._server
        statement, tokens = parse_with_literals(text)
        if split is None or [repr(value) for value in split[1]] != [
            repr(value) for value, _ in tokens
        ]:
            # the split declined (or, never seen, disagrees with the
            # lexer): a template of this exact text
            return PreparedQuery(server, statement, text).binding()
        shape, literals = split
        position = {
            id(node): index
            for index, (_, node) in enumerate(tokens)
            if node is not None
        }
        slots = tuple(
            (name, tuple(position[id(node)] for node in nodes))
            for name, (_, nodes) in slot_literals(
                statement, server.database.schema
            ).items()
            # a constant folded under unary minus is not its token's node
            if all(id(node) in position for node in nodes)
        )
        lifted = {index for _, positions in slots for index in positions}
        pinned = tuple(i for i in range(len(tokens)) if i not in lifted)
        masked = substitute(
            statement, {name: _MASKED for name, _ in slots}, server.database.schema
        )
        template = PreparedQuery(
            server, statement, text, fingerprint=statement_fingerprint(masked)
        )
        with self._lock:
            known = self._shapes.setdefault(shape, _Shape(slots, pinned))
            key = (shape, known.pinned_values(literals))
            held = self._templates.setdefault(key, template)
            if held is template:  # else a concurrent first text won
                known.templates += 1
                if len(self._templates) > _TEMPLATE_LIMIT:
                    (old, _), _ = self._templates.popitem(last=False)
                    self._stats.evictions += 1
                    self._shapes[old].templates -= 1
                    if not self._shapes[old].templates:
                        del self._shapes[old]
        return held.binding(known.params(literals))

    def clear(self) -> None:
        with self._lock:
            self._shapes.clear()
            self._templates.clear()

    def __len__(self) -> int:
        """Templates held."""
        return len(self._templates)

    def stats(self) -> CacheStats:
        with self._lock:
            return replace(self._stats)
