"""The columnar intermediate of the BE Plan Executor's batch fetch.

Following the MonetDB/X100 batch-processing lineage, columnar mode
replaces the fetch pipeline's row-tuple intermediates with one Python
list per attribute plus a *selection vector* of live row positions:

* a fetch gathers index postings for a whole key batch and materialises
  its output column by column (no per-row tuple concatenation);
* a selection only shrinks the selection vector — no data is copied.

Everything else is the row mode's code: a selection tests each live
position's row tuple with the skeleton's one compiled predicate, and
the final intermediate goes through :meth:`ColumnarIntermediate.to_rows`
into the same prepared tail (``engine.physical.PreparedTail``) the row
executor runs. The row-vs-columnar differential suite
(``tests/test_columnar_differential.py``) locks the two modes together.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence


@dataclass
class ColumnarIntermediate:
    """A materialised intermediate in columnar layout.

    ``columns[k][i]`` is the value of attribute ``labels[k]`` in physical
    row ``i``; ``count`` is the physical row count (needed because a
    zero-width intermediate — the bounded pipeline's seed row — still has
    a length); ``sel`` lists the *live* physical positions in row order,
    or ``None`` when every position is live.
    """

    labels: list[object]
    columns: list[list]
    count: int
    sel: Optional[list[int]] = None

    @property
    def live(self) -> Sequence[int]:
        """The live physical positions, in row order."""
        return range(self.count) if self.sel is None else self.sel

    @property
    def live_count(self) -> int:
        return self.count if self.sel is None else len(self.sel)

    @classmethod
    def seed(cls) -> "ColumnarIntermediate":
        """The bounded pipeline's seed: one zero-width row."""
        return cls(labels=[], columns=[], count=1)

    def to_rows(self) -> list[tuple]:
        """Materialise the live rows as tuples (row-executor currency),
        in row order: one C-level gather per column, one ``zip``."""
        columns, sel = self.columns, self.sel
        if not columns:
            return [()] * self.live_count
        if sel is None:
            return list(zip(*columns))
        if len(sel) < 2:  # ``itemgetter`` of one index yields the bare cell
            return [tuple(column[i] for column in columns) for i in sel]
        return list(zip(*map(itemgetter(*sel), columns)))
