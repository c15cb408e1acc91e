"""The load generators: one closed loop and one open loop.

Both drive the public ``repro.Session`` surface only, from one process.
The closed loop is a single client on the calling thread. The open loop
is one asyncio event loop on the calling thread feeding
``Session.serve_async(max_workers=nproc-1)``, so generator plus workers
never exceed ``nproc`` threads. All times are raw ``perf_counter`` wall
clock; the closed loop also reads the host's speed between its timed
slices (:mod:`perf.hostref`), while nothing else runs.
"""

from __future__ import annotations

import asyncio
import os
import selectors
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from perf import hostref
from perf.hostref import clock
from perf.workloads import Op, Template

_BIND, _SQL, _INSERT, _DELETE = range(4)
_KINDS = {"bind": _BIND, "sql": _SQL, "insert": _INSERT, "delete": _DELETE}


def compile_ops(handles: Mapping[str, object], ops: Sequence[Op]) -> list[tuple]:
    """Resolve template names to prepared handles and kinds to ints, so the
    timed loops do no lookups of their own."""
    out = []
    for kind, target, payload, due in ops:
        code = _KINDS[kind]
        out.append((code, handles[target] if code == _BIND else target, payload, due))
    return out


def prepare(session, templates: Mapping[str, Template]) -> dict[str, object]:
    """``Query`` handles for the closed loop (idempotent per session)."""
    return {name: session.query(t.sql) for name, t in templates.items()}


def prepare_async(session, templates: Mapping[str, Template]) -> dict[str, object]:
    """``PreparedQuery`` handles, which is what the asyncio front end takes."""
    return {name: session.server.prepare(t.sql) for name, t in templates.items()}


@dataclass
class Slice:
    """One timed slice of a closed loop; times in seconds."""

    elapsed: float
    ops: int
    reads: list[float]
    writes: list[float]
    speed: float = 1.0  # the host's, mean of the readings around the slice


@dataclass
class Tally:
    """What a loop observed, warm-up included."""

    slices: list[Slice] = field(default_factory=list)
    executed: int = 0  # ops completed
    reads: int = 0
    tuples: int = 0  # tuples_fetched + tuples_scanned over those reads
    errors: int = 0  # exceptions and refusals
    bound_violations: int = 0  # tuples_fetched above the deduced bound
    short_writes: int = 0  # a batch acknowledged fewer rows than sent

    def check_read(self, result) -> None:
        metrics = result.metrics
        bound = result.decision.access_bound
        if bound is not None and metrics.tuples_fetched > bound:
            self.bound_violations += 1
        self.reads += 1
        self.tuples += metrics.tuples_fetched + metrics.tuples_scanned

    def check_write(self, code: int, result, sent: int) -> None:
        acked = result.inserted if code == _INSERT else result.deleted
        if acked != sent:
            self.short_writes += 1


class ClosedLoop:
    """One client: the next op is sent when the previous one returns."""

    def __init__(self, session, ops: Sequence[tuple]):
        self._session = session
        self.ops = ops
        self._position = 0
        self.tally = Tally()

    def _run(self, *, max_ops: int = 0, seconds: float = 0.0) -> Slice:
        """Run ``max_ops`` ops, or for ``seconds``."""
        session, ops, tally = self._session, self.ops, self.tally
        run_sql, insert, delete = session.run, session.insert, session.delete
        reads: list[float] = []
        writes: list[float] = []
        size = len(ops)
        position = self._position
        done = 0
        begin = clock()
        deadline = begin + seconds if seconds else float("inf")
        while done != max_ops or not max_ops:
            code, target, payload, _ = ops[position]
            position += 1
            if position == size:
                position = 0
            done += 1
            failed = False
            start = clock()
            try:
                if code == _BIND:
                    result = target.bind(payload).run()
                elif code == _SQL:
                    result = run_sql(payload)
                elif code == _INSERT:
                    result = insert(target, payload)
                else:
                    result = delete(target, payload)
            except Exception:  # a failed op is counted, the run goes on
                tally.errors += 1
                failed = True
            end = clock()
            if failed:
                pass
            elif code <= _SQL:
                tally.check_read(result)
                reads.append(end - start)
            else:
                tally.check_write(code, result, len(payload))
                writes.append(end - start)
            if end >= deadline:
                break
        self._position = position
        tally.executed += done
        return Slice(clock() - begin, done, reads, writes)

    def warm_up(self, op_count: int) -> None:
        self._run(max_ops=op_count)

    def timed_slices(
        self, seconds: float, slices: int, probe: Sequence[tuple] = ()
    ) -> None:
        """``slices`` timed slices of the stream. ``probe`` is a run of
        maintenance ops for a workload that has none: an equal share of it
        follows each slice, outside the slice's clock, and its latencies
        are filed as the slice's writes."""
        share = len(probe) // slices
        before = hostref.read_speed()
        for index in range(slices):
            piece = self._run(seconds=seconds / slices)
            if share:
                batch = probe[index * share: (index + 1) * share]
                piece.writes.extend(self.run_batch(batch).writes)
            after = hostref.read_speed()
            piece.speed = (before + after) / 2
            before = after
            self.tally.slices.append(piece)

    def run_batch(self, ops: Sequence[tuple]) -> Slice:
        """Run exactly ``ops`` as one slice, outside the stream (the write
        probe of the read-only workloads; the traced run's closed pass)."""
        saved = self.ops, self._position
        self.ops, self._position = ops, 0
        try:
            return self._run(max_ops=len(ops))
        finally:
            self.ops, self._position = saved


# --------------------------------------------------------------------------- #
# open loop
# --------------------------------------------------------------------------- #
@dataclass
class OpenTally(Tally):
    #: one (step, is_read, due, issued, completed) per scheduled op, all in
    #: seconds from the start of the schedule
    samples: list[tuple] = field(default_factory=list)
    peak_in_flight: int = 0
    speed: float = 1.0  # the host's, mean of a reading before and one after


class OpenLoop:
    """Seeded arrivals into ``Session.serve_async``; each request is timed
    from the moment it was DUE, not from when it was actually issued, so a
    stall of the front end or of the generator is charged to every request
    it delayed."""

    def __init__(
        self,
        session,
        ops: Sequence[tuple],
        steps: Sequence[tuple[float, float, float]],
    ):
        self._session = session
        self._ops = ops
        self.steps = steps
        self.tally = OpenTally()

    def run(self) -> None:
        # the stock epoll selector rounds timer waits up to a whole
        # millisecond, which would make the generator later than the
        # service time it is measuring; select() keeps microseconds
        loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        before = hostref.read_speed()
        try:
            loop.run_until_complete(self._drive())
        finally:
            loop.close()
        self.tally.speed = (before + hostref.read_speed()) / 2

    async def _drive(self) -> None:
        workers = max(1, (os.cpu_count() or 2) - 1)
        async with self._session.serve_async(max_workers=workers) as server:
            loop = asyncio.get_running_loop()
            pending = []
            step_ends = [end for _, end, _ in self.steps]
            step = 0
            origin = clock()
            for op in self._ops:
                due = op[3]
                while due >= step_ends[step]:
                    step += 1
                delay = origin + due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                pending.append(
                    loop.create_task(
                        self._one(server, op, step, origin, clock() - origin)
                    )
                )
            await asyncio.gather(*pending)
            self.tally.peak_in_flight = (await server.stats()).peak_in_flight

    async def _one(self, server, op, step: int, origin: float, issued: float) -> None:
        code, target, payload, due = op
        tally = self.tally
        try:
            if code == _BIND:
                result = await server.execute_prepared(target, payload)
            elif code == _SQL:
                result = await server.execute(payload)
            elif code == _INSERT:
                result = await server.insert(target, payload)
            else:
                result = await server.delete(target, payload)
        except Exception:  # a failed op is counted, the run goes on
            tally.errors += 1
            return
        completed = clock() - origin
        tally.executed += 1
        if code <= _SQL:
            tally.check_read(result)
        else:
            tally.check_write(code, result, len(payload))
        tally.samples.append((step, code <= _SQL, due, issued, completed))
