"""Prepared queries: parse and pin once, execute many times.

A :class:`PreparedQuery` does the frontend work a single time — parse,
stable fingerprint, dependency (table) set, parameter-slot extraction —
and every execution of it (a Session request) is served through the
:class:`~repro.beas.system.BEAS` engine's caches. The coverage
decision and bounded plan are pinned in the engine's decision cache
once per binding shape (:meth:`PreparedBinding.rebind_key`) and rebound
for every binding of that shape, so a repeated execute touches neither
the parser, the normalizer, nor the BE Checker.

Ad-hoc SQL text takes the same path: :class:`AdhocTemplates` resolves a
text to a template of its shape plus the text's own literals as that
template's parameters (``docs/invariants.md``, "Literal lifting").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Hashable, Mapping, Optional

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
    from repro.storage.database import Database

class PreparedBinding:
    """One concrete binding of a prepared template.

    Carries everything the serving layer needs to execute the binding
    *and* to reuse a pinned plan across bindings: its ``fingerprint``
    (the result- and decision-cache key — the values matter for
    answers), the resolved slot overrides, and the binding's
    arity/type-class :func:`~repro.serving.params.rebind_signature`
    (rebind-template key — only the shape matters for plan reuse).

    A bound binding's key is the tuple (template fingerprint, sorted
    overrides, type-class signature): no hash is computed for it. The
    type classes keep apart what Python equality merges (``7`` /
    ``7.0`` / ``True`` against ``1``). The template's own binding is
    keyed by the template's fingerprint. The same bound query arriving
    as raw SQL text binds to its ad-hoc template instead; per
    ``sql.fingerprint``'s doctrine, a missed equivalence costs a cache
    miss, never a wrong answer.

    It copies what it needs of its template (fingerprint, tables,
    statement, schema) rather than pointing back at it, so it keeps no
    template alive.

    The substituted ``statement`` is built **lazily**: a binding whose
    decision is served by rebinding (or from the exact decision cache)
    and whose plan covers the query never needs its own AST at decision
    time, so the common serving path skips the substitution entirely.
    """

    __slots__ = (
        "fingerprint", "overrides", "signature", "template_fingerprint",
        "tables", "table_order", "_template_statement", "_schema", "_statement",
    )  # fmt: skip

    def __init__(
        self,
        template: "PreparedQuery",
        fingerprint: Hashable,
        overrides: Optional[Mapping[str, tuple]] = None,
        signature: tuple = (),
    ):
        self.fingerprint = fingerprint
        self.overrides: Mapping[str, tuple] = (
            overrides if overrides is not None else {}
        )
        self.signature = signature
        #: what the router (with ``signature``) and the rebind key name
        self.template_fingerprint = template.fingerprint
        self.tables = template.tables
        self.table_order = template.table_order
        self._template_statement = template.statement
        self._schema = template.schema
        self._statement: Optional[ast.Statement] = None

    @property
    def statement(self) -> ast.Statement:
        statement = self._statement
        if statement is None:
            # pure + idempotent: a concurrent duplicate build is benign
            statement = self._statement = substitute(
                self._template_statement, self.overrides, self._schema
            )
        return statement

    def rebind_key(self, generation: int) -> tuple:
        """Where the decision cache pins the plan every binding of this
        template with this signature reuses: one pinned template per
        (template fingerprint, arity signature, schema generation). The
        first binding of each signature pays a full BE Checker run and
        pins its decision as a
        :class:`~repro.bounded.rebind.RebindTemplate`; every later
        equal-signature binding (a repeat included) rebinds it by value.
        A binding that changes a slot's IN-list arity or type class
        lands on a different signature (or trips the rebinder's
        merged-arity guard) and re-checks. The values of a binding never
        enter the key, only its shape."""
        return ("rebind", self.template_fingerprint, self.signature, generation)

    def __repr__(self) -> str:
        return (
            f"PreparedBinding({self.template_fingerprint[:12]}…, "
            f"overrides={sorted(self.overrides)})"
        )


class PreparedQuery:
    """One parsed template plus its parameterisable constant slots.

    ``owner`` is what it is prepared on (an engine): only its
    ``database``'s schema is read, and the handle keeps no reference to
    the owner, so a template an engine caches does not refer back to
    it. Reads of a prepared template go through a Session
    (``Session.query``)."""

    def __init__(
        self,
        owner: Any,
        statement: ast.Statement,
        sql: str,
        name: Optional[str] = None,
        *,
        fingerprint: Optional[str] = None,
        tables: Optional[frozenset[str]] = None,
    ):
        self.sql = sql
        self.statement = statement
        self.fingerprint = fingerprint or statement_fingerprint(statement)
        self.tables = tables if tables is not None else statement_tables(statement)
        #: ``tables`` in the canonical (sorted) order per-table vectors use
        self.table_order = tuple(sorted(self.tables))
        self.schema = owner.database.schema
        self.slots: dict[str, ParameterSlot] = extract_slots(
            statement, self.schema
        )
        self.name = name or f"pq-{self.fingerprint[:12]}"
        self._template_binding = PreparedBinding(self, self.fingerprint)

    # ------------------------------------------------------------------ #
    def binding(
        self, params: Optional[Mapping[str, Any]] = None
    ) -> PreparedBinding:
        """The concrete :class:`PreparedBinding` for one set of overrides.

        With no overrides the template's own constants are used. The
        overrides are sorted once: the binding's key and its arity
        signature both derive from that sort. Nothing is memoised: a
        binding is a few tuples, and a stream of distinct bindings
        would only churn a memo."""
        if not params:
            return self._template_binding
        resolved = resolve_overrides(params, self.slots)
        signature = binding_signature(resolved)
        shape = signature_shape(signature)
        return PreparedBinding(
            self,
            (self.fingerprint, signature, shape),
            MappingProxyType(resolved),
            shape,
        )

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
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PreparedQuery({self.name}, slots={sorted(self.slots)})"


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
    parser. Templates live here, never in the engine's named registry.
    """

    def __init__(self, database: "Database"):
        #: what templates are prepared on: only its schema is read
        self.database = database
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
        statement, tokens = parse_with_literals(text)
        if split is None or [repr(value) for value in split[1]] != [
            repr(value) for value, _ in tokens
        ]:
            # the split declined (or, never seen, disagrees with the
            # lexer): a template of this exact text
            return PreparedQuery(self, statement, text).binding()
        shape, literals = split
        position = {
            id(node): index
            for index, (_, node) in enumerate(tokens)
            if node is not None
        }
        slots = tuple(
            (name, tuple(position[id(node)] for node in nodes))
            for name, (_, nodes) in slot_literals(
                statement, self.database.schema
            ).items()
            # a constant folded under unary minus is not its token's node
            if all(id(node) in position for node in nodes)
        )
        lifted = {index for _, positions in slots for index in positions}
        pinned = tuple(i for i in range(len(tokens)) if i not in lifted)
        masked = substitute(
            statement, {name: _MASKED for name, _ in slots}, self.database.schema
        )
        template = PreparedQuery(
            self, statement, text, fingerprint=statement_fingerprint(masked)
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
