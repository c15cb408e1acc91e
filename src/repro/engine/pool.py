"""Multiprocessing engine pool for parallel bounded execution.

Every bounded plan run in-process runs on one GIL-bound thread:
concurrent clients of the serving layer serialise on the interpreter
even when their queries touch disjoint data. The :class:`EnginePool`
breaks that ceiling by executing whole bounded plans on **worker
processes**, each outside the parent's GIL.

It is one configuration of :class:`~repro.distributed.peerset.PeerSet`,
the coordinator side the serving fleet shares: every worker may hold
every access index (the caller passes the snapshot key and payload
with each plan), any idle worker serves, and the transport is a duplex
pipe carrying the same ``u32 len | u32 crc32 | pickle`` frames as the
fleet's sockets (:class:`~repro.distributed.protocol.PipeChannel`). A
worker runs :func:`repro.distributed.peer.serve`, the one serve loop:
it holds **only** indices keyed by *(schema generation, table version
vector)* and answers ``stale`` to a plan planned under another key, so
it can never compute over data the coordinator has since mutated, and
like the paper's bounded plans it physically cannot scan. A worker is
caught up with the pickled index map, under either storage engine; the
pool keeps no delta tail.

No pool, no idle worker, a dead worker (respawned under the same budget
as a replica), a broken frame, or a plan outside the parallelisable
fragment all fall back to in-process execution. Answers are never
wrong, only slower; the chaos suite (``tests/test_pool_chaos.py``)
locks this in. The §3 bound arithmetic is enforced by the worker that
runs the plan, exactly as in-process; a bound violation is relayed and
re-raised.
"""

from __future__ import annotations

from repro import config
from repro.distributed.peer import serve
from repro.distributed.peerset import Peer, PeerSet
from repro.distributed.protocol import PipeChannel


def _worker_main(conn, worker_id: int) -> None:  # pragma: no cover - subprocess
    """Entry point of one worker process: serve over the pipe, exit."""
    channel = PipeChannel(conn)
    try:
        serve(channel, worker_id)
    finally:
        channel.close()


class EnginePool(PeerSet):
    """A fixed set of worker processes executing bounded plans."""

    kind = "pool"

    def __init__(self, workers: int):
        self.workers = config.validate_parallelism(workers, source="pool workers")
        super().__init__(workers)

    def _launch(self, peer: Peer) -> PipeChannel:
        parent, child = self._context.Pipe(duplex=True)
        self._spawn(peer, _worker_main, child)
        child.close()
        return PipeChannel(parent, self.task_timeout)

    def execute_plan(
        self,
        snapshot_key: tuple,
        payload_fn,
        plan,
        *,
        rows_per_batch: int,
    ):
        """Run one bounded plan on a worker.

        Returns ``(columns, rows, metrics, wait_seconds)`` on success or
        ``None`` when the pool cannot serve it (exhausted, worker died,
        unsupported shape) — the caller falls back in-process. Semantic
        errors raised by the plan itself
        (:class:`~repro.errors.ReproError`) propagate.
        """
        outcome = self._run(None, snapshot_key, payload_fn, plan, rows_per_batch)
        return None if outcome is None else outcome[:4]
