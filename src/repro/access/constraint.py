"""Access constraints ``R(X -> Y, N)``.

Example (paper, Example 1): ``call({pnum, date} -> {recnum, region}, 500)``
states that each number calls at most 500 distinct numbers per region per
day, and that an index can retrieve those (recnum, region) pairs given a
(pnum, date) key by accessing at most 500 tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro.catalog.schema import TableSchema
from repro.errors import AccessSchemaError

_counter = itertools.count(1)


def _fresh_name() -> str:
    return f"psi{next(_counter)}"


@dataclass(frozen=True)
class AccessConstraint:
    """One access constraint ``R(X -> Y, N)``.

    ``x`` and ``y`` are stored as sorted tuples so the constraint is
    hashable and its index key order is deterministic. ``X`` may be empty
    (the constraint then bounds the whole relation: at most ``N`` distinct
    ``Y``-values overall), matching the paper's foundation work where
    ``R(() -> Y, N)`` encodes a bounded relation.
    """

    relation: str
    x: tuple[str, ...]
    y: tuple[str, ...]
    n: int
    name: str = field(default_factory=_fresh_name, compare=False)

    def __init__(
        self,
        relation: str,
        x: Iterable[str],
        y: Iterable[str],
        n: int,
        name: str | None = None,
    ):
        x_tuple = tuple(sorted(set(x)))
        y_tuple = tuple(sorted(set(y)))
        if not y_tuple:
            raise AccessSchemaError("an access constraint needs at least one Y attribute")
        if set(x_tuple) & set(y_tuple):
            overlap = sorted(set(x_tuple) & set(y_tuple))
            raise AccessSchemaError(
                f"X and Y attributes must be disjoint (overlap: {overlap})"
            )
        if n < 0:
            raise AccessSchemaError("the cardinality bound N must be non-negative")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "x", x_tuple)
        object.__setattr__(self, "y", y_tuple)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "name", name or _fresh_name())

    # ------------------------------------------------------------------ #
    @property
    def attributes(self) -> frozenset[str]:
        """All attributes the constraint's index exposes (``X ∪ Y``)."""
        return frozenset(self.x) | frozenset(self.y)

    def validate_against(self, schema: TableSchema) -> None:
        """Check that the constraint's attributes exist in ``schema``."""
        if schema.name != self.relation:
            raise AccessSchemaError(
                f"constraint {self.name} targets {self.relation!r}, "
                f"not {schema.name!r}"
            )
        for attr in self.x + self.y:
            if attr not in schema:
                raise AccessSchemaError(
                    f"constraint {self.name}: attribute {attr!r} is not a "
                    f"column of {self.relation!r}"
                )

    def covers_key_of(self, schema: TableSchema) -> bool:
        """True when ``X ∪ Y`` contains a declared candidate key of ``R``.

        Key-covering fetches return partial tuples in bijection with rows,
        which makes bag-semantics aggregates exact.
        """
        return schema.has_key_within(self.attributes)

    def __str__(self) -> str:
        x_text = "{" + ", ".join(self.x) + "}" if self.x else "()"
        y_text = "{" + ", ".join(self.y) + "}"
        return f"{self.name}: {self.relation}({x_text} -> {y_text}, {self.n})"
