"""The four workloads as seeded op streams over the TLC templates.

An op is the tuple ``(kind, target, payload, due)``:

* ``("bind", "Q2", {"call.pnum": ..., "call.date": ...}, due)`` — a
  prepared template and the slot overrides to bind;
* ``("sql", "Q2", "select ...", due)`` — raw SQL text for ``Session.run``;
* ``("insert" | "delete", "call", [row, ...], due)`` — one maintenance batch.

``due`` is seconds from the start of the run for the open loop and ``None``
for closed loops. The program under test sees only these ops; ``--seed``
drives which bindings are drawn, their order and the arrival times, never
the data.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from repro.workloads.tlc import TLCDataset, TLCParams, tlc_queries

from perf import config

Op = tuple  # (kind, target, payload, due)


@dataclass(frozen=True)
class Template:
    """One TLC query as a prepared template and as a text template."""

    name: str
    sql: str  # the repo's own text, default constants: prepared once
    text: str  # the same text with str.format fields for ad-hoc SQL
    fields: tuple[str, ...]  # TLCParams fields a key binds, in key order
    slots: tuple[str, ...]  # the prepared slot each field overrides
    space: str  # name of the key space its bindings are drawn from

    def params(self, key: Sequence[Any]) -> dict[str, Any]:
        return dict(zip(self.slots, key))

    def render(self, key: Sequence[Any]) -> str:
        return self.text.format(**dict(zip(self.fields, key)))


# template -> (key space, ((TLCParams field, prepared slot), ...)).
# Fields not listed keep the dataset's planted constants.
_BINDINGS = {
    "Q1": ("biz_date", (("t0", "business.type"), ("r0", "business.region"),
                        ("d0", "call.date"))),
    "Q2": ("call_key", (("p0", "call.pnum"), ("d0", "call.date"))),
    "Q3": ("pnum", (("p0", "package.pnum"),)),
    "Q4": ("biz", (("t0", "business.type"), ("r0", "business.region"))),
    "Q5": ("callee_key", (("x0", "call.recnum"), ("d0", "call.date"))),
    "Q6": ("call_key", (("p0", "call.pnum"), ("d0", "call.date"))),
    "Q7": ("call_key", (("p0", "call.pnum"), ("d0", "call.date"))),
    "Q8": ("pid", (("c0", "pk.pid"),)),
    "Q9": ("sms_key", (("p0", "sms.pnum"), ("d0", "sms.date"))),
    "Q10": ("biz", (("t0", "b.type"), ("r0", "b.region"))),
    "Q11": ("biz_month", (("t0", "b.type"), ("r0", "b.region"),
                          ("m0", "d.month"))),
}


def templates(params: TLCParams) -> dict[str, Template]:
    """Q1-Q11, built from the repo's own ``tlc_queries`` (no SQL is
    duplicated here): once with the planted constants, once with
    ``{field}`` placeholders standing in for them."""
    defaults = vars(params)
    holes = TLCParams(**{name: "{" + name + "}" for name in defaults})
    out = {}
    for query, holed in zip(tlc_queries(params), tlc_queries(holes)):
        space, pairs = _BINDINGS[query.name]
        bound = {field for field, _ in pairs}
        # unbound fields keep the planted constant in the text too
        text = holed.sql.format(
            **{
                name: ("{" + name + "}" if name in bound else value)
                for name, value in defaults.items()
            }
        )
        out[query.name] = Template(
            name=query.name,
            sql=query.sql,
            text=text,
            fields=tuple(field for field, _ in pairs),
            slots=tuple(slot for _, slot in pairs),
            space=space,
        )
    return out


def key_spaces(dataset: TLCDataset) -> dict[str, list[tuple]]:
    """Every distinct binding the data supports, in first-seen row order
    (deterministic for a fixed data seed)."""
    db = dataset.database
    call, sms, package = db.table("call"), db.table("sms"), db.table("package")
    biz = db.table("business").project(["type", "region"], distinct=True)
    dates = sorted({row[0] for row in call.project(["date"], distinct=True)})
    months = sorted(
        {row[0] for row in db.table("data_usage").project(["month"], distinct=True)}
    )
    return {
        "call_key": call.project(["pnum", "date"], distinct=True),
        "callee_key": call.project(["recnum", "date"], distinct=True),
        "sms_key": sms.project(["pnum", "date"], distinct=True),
        "pnum": package.project(["pnum"], distinct=True),
        "pid": package.project(["pid"], distinct=True),
        "biz": biz,
        "biz_date": [pair + (d,) for pair in biz for d in dates],
        "biz_month": [pair + (m,) for pair in biz for m in months],
    }


COVERED = tuple(f"Q{i}" for i in range(1, 11))  # Q11 is not covered
ALL_QUERIES = COVERED + ("Q11",)


class Mix:
    """Draws (template, key) pairs for one workload seed."""

    def __init__(
        self,
        dataset: TLCDataset,
        rng: random.Random,
    ):
        self.templates = templates(dataset.params)
        self.spaces = key_spaces(dataset)
        self.rng = rng
        # uniform over the union of the covered templates' key spaces
        self._cold_names = list(COVERED)
        self._cold_edges = list(
            itertools.accumulate(
                len(self.spaces[self.templates[name].space])
                for name in self._cold_names
            )
        )

    def cold(self) -> tuple[Template, tuple]:
        """One (template, key) drawn uniformly from every distinct key of
        the covered templates: small key spaces are drawn rarely, so
        repeats — and result-cache hits — stay negligible."""
        pick = self.rng.randrange(self._cold_edges[-1])
        slot = bisect.bisect_right(self._cold_edges, pick)
        template = self.templates[self._cold_names[slot]]
        space = self.spaces[template.space]
        base = self._cold_edges[slot - 1] if slot else 0
        return template, space[pick - base]

    def hot_set(self, names: Sequence[str], size: int) -> list[tuple[Template, tuple]]:
        """``size`` ranked (template, key) pairs: rank r belongs to template
        ``names[r % len(names)]`` at every seed (so the per-shard cache
        pressure does not depend on the seed); the key is seeded."""
        out = []
        taken: set[tuple] = set()
        for rank in range(size):
            template = self.templates[names[rank % len(names)]]
            space = self.spaces[template.space]
            key = self.rng.choice(space)
            for _ in range(8):  # small spaces run out of unseen keys
                if (template.name, key) not in taken:
                    break
                key = self.rng.choice(space)
            taken.add((template.name, key))
            out.append((template, key))
        return out

    def zipf(self, size: int, count: int) -> list[int]:
        """``count`` ranks in [0, size) drawn Zipf(s)."""
        weights = [1.0 / (rank + 1) ** config.ZIPF_S for rank in range(size)]
        return self.rng.choices(
            range(size), cum_weights=list(itertools.accumulate(weights)), k=count
        )


class WriteStream:
    """Insert/delete batches of conforming rows that keep table sizes level.

    Each inserted row copies an existing row of its table and takes a
    fresh id, so every access constraint keeps holding: the copy adds no
    new Y-value to any bucket except the id-bearing one (psi6), whose
    buckets sit far below their bound. Tables take turns; on each table
    two insert batches are followed by one delete of both. Inserts thus
    outnumber deletes two to one, which keeps the median write latency
    inside the insert population instead of on the edge between the two.
    """

    def __init__(
        self,
        dataset: TLCDataset,
        rng: random.Random,
        tables: Sequence[str],
        first_id: int = config.NEW_ID_BASE,
    ):
        self._tables = tables
        self._rows = {name: dataset.database.table(name).rows for name in tables}
        self._rng = rng
        self._next_id = first_id
        self._turn = 0
        self._pending: dict[str, list[tuple]] = {name: [] for name in tables}

    def next(self) -> tuple[str, str, list[tuple]]:
        table = self._tables[self._turn % len(self._tables)]
        self._turn += 1
        pending = self._pending[table]
        if len(pending) == 2 * config.WRITE_BATCH_ROWS:
            self._pending[table] = []
            return "delete", table, pending
        source = self._rows[table]
        batch = []
        for _ in range(config.WRITE_BATCH_ROWS):
            row = source[self._rng.randrange(len(source))]
            batch.append((self._next_id,) + tuple(row[1:]))
            self._next_id += 1
        pending.extend(batch)
        return "insert", table, batch


def _read_sql(template: Template, key: tuple) -> Op:
    return ("sql", template.name, template.render(key), None)


def _read_bind(template: Template, key: tuple) -> Op:
    return ("bind", template.name, template.params(key), None)


def generate(
    workload: str,
    dataset: TLCDataset,
    seed: int,
    length: int,
    steps: Sequence[tuple[float, float, float]] = (),
) -> list[Op]:
    """The op stream of ``workload`` for ``seed``: ``length`` ops without a
    due time (closed loops cycle over them; the first ``warmup_ops`` are
    the warm-up), followed on ``herd_open`` by the arrivals of ``steps``."""
    rng = random.Random(f"{workload}:{seed}")
    mix = Mix(dataset, rng)
    if workload == "bind_cold":
        return [_read_bind(*mix.cold()) for _ in range(length)]
    if workload == "adhoc_hot":
        hot = [_read_sql(t, k) for t, k in mix.hot_set(ALL_QUERIES, config.HOT_KEYS)]
        return [hot[r] for r in mix.zipf(len(hot), length)]
    if workload == "maint_mix":
        reads = [
            _read_sql(t, k) for t, k in mix.hot_set(ALL_QUERIES, config.MAINT_KEYS)
        ]
        ranks = iter(mix.zipf(len(reads), length))
        writes = WriteStream(dataset, rng, config.WRITE_TABLES)
        ops: list[Op] = []
        for _ in range(length):
            if rng.random() < config.MAINT_WRITE_SHARE:
                kind, table, rows = writes.next()
                ops.append((kind, table, rows, None))
            else:
                ops.append(reads[next(ranks)])
        return ops
    if workload == "herd_open":
        return _herd(mix, dataset, rng, steps, length)
    raise ValueError(f"unknown workload {workload!r}")


def herd_steps(seconds: float) -> list[tuple[float, float, float]]:
    """(start, end, rate) of each ladder step, in seconds from the start
    of the schedule and requests per second."""
    rates = [factor * config.HERD_C for factor in config.HERD_LADDER]
    shares = config.HERD_STEP_SHARE
    edges = [0.0] + [share * seconds for share in itertools.accumulate(shares)]
    return [(edges[i], edges[i + 1], rate) for i, rate in enumerate(rates)]


def _herd(
    mix: Mix, dataset: TLCDataset, rng: random.Random, steps, warmup: int
) -> list[Op]:
    hot = [_read_bind(t, k) for t, k in mix.hot_set(COVERED, config.HOT_KEYS)]
    hot_weights = list(
        itertools.accumulate(
            1.0 / (rank + 1) ** config.ZIPF_S for rank in range(len(hot))
        )
    )
    writes = WriteStream(dataset, rng, config.LIGHT_WRITE_TABLES)
    ops: list[Op] = []
    # warm-up ops are not scheduled: they run before the clock starts
    for _ in range(warmup):
        ops.append(_herd_op(mix, rng, hot, hot_weights, writes, None))
    for start, end, rate in steps:
        due = start + rng.expovariate(rate)
        while due < end:
            ops.append(_herd_op(mix, rng, hot, hot_weights, writes, due))
            due += rng.expovariate(rate)
    return ops


def _herd_op(mix, rng, hot, hot_weights, writes, due: Optional[float]) -> Op:
    draw = rng.random()
    if draw < config.HERD_WRITE_SHARE:
        kind, table, rows = writes.next()
        return (kind, table, rows, due)
    if draw < config.HERD_WRITE_SHARE + (1.0 - config.HERD_WRITE_SHARE) / 2:
        kind, name, params, _ = rng.choices(hot, cum_weights=hot_weights)[0]
    else:
        kind, name, params, _ = _read_bind(*mix.cold())
    return (kind, name, params, due)


# --------------------------------------------------------------------------- #
# saved query files: a run is reproducible from its .ops.jsonl, not only
# from the seed that produced it
# --------------------------------------------------------------------------- #
def save_ops(path: Path, ops: Iterable[Op]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for kind, target, payload, due in ops:
            handle.write(
                json.dumps(
                    {"op": kind, "target": target, "payload": payload, "due": due},
                    separators=(",", ":"),
                )
            )
            handle.write("\n")


def load_ops(path: Path) -> list[Op]:
    ops: list[Op] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            payload = record["payload"]
            if record["op"] in ("insert", "delete"):
                payload = [tuple(row) for row in payload]
            ops.append((record["op"], record["target"], payload, record["due"]))
    return ops
