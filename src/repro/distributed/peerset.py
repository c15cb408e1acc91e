"""The coordinator's side of a peer set: one handle per peer process.

A :class:`PeerSet` owns N peer processes (:mod:`repro.distributed.peer`)
and everything the coordinator does with them, whatever the transport:
the start method, spawn and a budgeted respawn per peer slot, the task
deadline and the stale retry, the catch-up ladder, dispatch, the chaos
hooks, close and GC, and one :class:`PeerStats`. The engine pool
(:class:`~repro.engine.pool.EnginePool`, pipes) and the serving fleet
(:class:`~repro.distributed.fleet.ReplicaFleet`, sockets) are thin
configurations of it that differ in placement (every constraint on every
peer, or round-robin) and pick (any idle peer, or the one peer holding
all the plan's constraints).

**Catch-up ladder.** A peer whose snapshot key is not the task's is
caught up with the delta tail (the fleet's, when it covers the gap
contiguously), else with the pickled snapshot.

**Failure is never an answer.** A dead peer, a torn frame, a CRC
mismatch, a reply missing its deadline, or a second ``stale`` after a
re-ship make the dispatch return ``None``: the caller runs the plan
in-process, the peer is torn down and respawned, and the event shows in
:class:`PeerStats`, never in a row set.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.errors import BEASError
from repro.distributed.protocol import (
    MSG_DEBUG,
    MSG_DELTA,
    MSG_EXIT,
    MSG_PING,
    MSG_PLAN,
    MSG_SNAPSHOT,
    REPLY_OK,
    REPLY_RAISE,
    REPLY_RESULT,
    Channel,
    StalePeer,
    WireError,
    compute_with_stale_retry,
)

#: a permanently flapping peer (port conflict, crash loop) stops being
#: respawned after this many attempts and serves nothing
RESPAWN_BUDGET = 3

#: per kind of peer set: the describe line's title and its peers' noun
_WORDING = {"pool": ("engine pool", "workers"), "fleet": ("serving fleet", "replicas")}

#: what :meth:`PeerSet._pick` answers when waiting cannot help
_NONE_USABLE = object()


@dataclass
class PeerStats:
    """Cumulative counters of one peer set, each event counted once."""

    kind: str = "pool"  # "pool" or "fleet"
    peers: int = 0
    alive: int = 0
    plans_dispatched: int = 0
    serves: dict[int, int] = field(default_factory=dict)  # peer id -> plans
    snapshots_sent: int = 0  # whole-snapshot installs
    delta_reships: int = 0
    delta_records_shipped: int = 0
    bytes_shipped: int = 0  # wire bytes of every install
    stale_reships: int = 0  # stale replies that triggered a re-ship
    failovers: int = 0  # dispatches whose peer died or whose wire broke
    respawns: int = 0
    routing_misses: int = 0  # plans no single peer holds every constraint of
    exhaustion_fallbacks: int = 0  # no idle peer within acquire_timeout
    fallbacks: int = 0  # dispatches served in-process for any reason
    wait_seconds: float = 0.0  # time spent acquiring peers
    wire_seconds: float = 0.0  # dispatch round-trips of the plans served

    def describe(self) -> str:
        title, noun = _WORDING[self.kind]
        serves = " ".join(f"{noun[0]}{i}:{n}" for i, n in sorted(self.serves.items()))
        return (
            f"{title}: {self.alive}/{self.peers} {noun} alive, "
            f"{self.plans_dispatched} plans dispatched"
            f"{f' ({serves})' if serves else ''}, {self.snapshots_sent} "
            f"snapshots + {self.delta_reships} delta reships shipped "
            f"({self.bytes_shipped} B, {self.delta_records_shipped} records), "
            f"{self.stale_reships} stale reships, "
            f"{self.failovers} failovers ({self.respawns} respawns), "
            f"{self.routing_misses} routing misses, {self.fallbacks} fallbacks "
            f"({self.exhaustion_fallbacks} on exhaustion), waited "
            f"{self.wait_seconds * 1000:.2f} ms, wire "
            f"{self.wire_seconds * 1000:.2f} ms"
        )


@dataclass(eq=False)
class Peer:
    """One peer process plus the coordinator's bookkeeping for it.

    A thread owns a peer from :meth:`PeerSet.acquire` to
    :meth:`PeerSet.release`; only the owner touches its channel, which
    is one serial request/reply stream.
    """

    id: int
    process: Any = None
    channel: Optional[Channel] = None
    snapshot_key: Optional[tuple] = None
    busy: bool = False
    respawn_budget: int = RESPAWN_BUDGET

    @property
    def alive(self) -> bool:
        return self.channel is not None and self.process.is_alive()


class PeerSet:
    """N peer processes behind one coordinator.

    Thread-safe: serving threads dispatch concurrently, one task per
    peer at a time; a dispatch waits for an idle peer at most
    ``acquire_timeout`` before falling back in-process. Peers are
    daemonic, so an abandoned set cannot outlive the interpreter;
    :meth:`close` shuts them down deterministically.
    """

    kind = "pool"

    #: 'fork' where available: a peer starts in milliseconds and runs
    #: nothing but already-imported repro code over its channel (no exec,
    #: no logging, no new imports), which sidesteps the classic
    #: fork-with-threads hazards. 'forkserver' measured ~0.5 s per set
    #: (each peer re-imports the package).
    start_method = (
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    #: the wait for an idle peer before a dispatch falls back in-process
    acquire_timeout = 0.05
    #: the bound on one reply: a peer alive but wedged past it is
    #: terminated and treated as dead (fallback + respawn), so a hung
    #: peer can never hang a client thread
    task_timeout = 120.0

    def __init__(self, count: int):
        self._context = multiprocessing.get_context(self.start_method)
        self._stats = PeerStats(kind=self.kind, peers=count)
        self._lock = threading.Lock()  # guards _stats
        self._free = threading.Condition()  # guards busy flags and _closed
        self._closed = False
        self._peers = [Peer(i) for i in range(count)]
        for peer in self._peers:
            self._start(peer)

    # ------------------------------------------------------------------ #
    # the transport: the one thing a subclass must say
    # ------------------------------------------------------------------ #
    def _launch(self, peer: Peer) -> Optional[Channel]:
        """Start ``peer``'s process (:meth:`_spawn`) and open its
        channel; ``None`` when the peer cannot be reached."""
        raise NotImplementedError

    def _spawn(self, peer: Peer, target: Callable[..., None], *args: Any) -> None:
        process = self._context.Process(
            target=target,
            args=(*args, peer.id),
            name=f"beas-{self.kind}-{peer.id}",
            daemon=True,
        )
        process.start()
        peer.process = process

    def _delta_for(self, old_key: Optional[tuple], new_key: tuple) -> Optional[list]:
        """The delta records advancing ``old_key`` to ``new_key``, or
        ``None`` when no delta source covers the gap (the default)."""
        return None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _start(self, peer: Peer) -> bool:
        """Start a peer; on failure it is left dead (its plans run
        in-process until a respawn succeeds)."""
        peer.channel = self._launch(peer)
        if peer.channel is None:
            self._stop(peer)
        return peer.channel is not None

    def _stop(self, peer: Peer, *, polite: bool = False) -> None:
        """Close ``peer``'s channel and end its process: asked to exit
        first when ``polite``, terminated otherwise."""
        channel, peer.channel = peer.channel, None
        peer.snapshot_key = None
        if channel is not None:
            if polite:
                with suppress(WireError):
                    channel.send((MSG_EXIT,))
            channel.close()
        process = peer.process
        if process is not None:
            if polite:
                process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
            process.join(timeout=1.0)

    def _respawn(self, peer: Peer) -> bool:
        """Caller owns ``peer``. One restart, against the peer slot's
        budget, so a crash-looping peer cannot stall serving."""
        if self._closed or peer.respawn_budget <= 0:
            return False
        peer.respawn_budget -= 1
        self._stop(peer)
        if not self._start(peer):
            return False
        self._count(respawns=1)
        return True

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut every idle peer down; a peer in use is shut down by its
        owner's :meth:`release` (its channel belongs to that thread)."""
        with self._free:
            self._closed = True
            idle = [peer for peer in self._peers if not peer.busy]
            for peer in idle:
                peer.busy = True
            self._free.notify_all()
        for peer in idle:
            self._stop(peer, polite=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-time best effort
        try:
            if not self._closed:
                self.close()
        except Exception:  # beaslint: ok(except-discipline) - GC-time best effort; __del__ must never raise
            pass

    # ------------------------------------------------------------------ #
    # ownership
    # ------------------------------------------------------------------ #
    def _pick(self, candidates) -> Any:
        usable = [p for p in candidates if p.channel is not None or p.respawn_budget > 0]
        if self._closed or not usable:
            return _NONE_USABLE
        return next((p for p in usable if not p.busy), None)

    def acquire(
        self, timeout: Optional[float] = None, *, peer_id: Optional[int] = None
    ) -> Optional[Peer]:
        """An idle peer — ``peer_id``'s, or any — that the caller owns
        until :meth:`release`; ``None`` when none frees up within
        ``timeout`` (default ``acquire_timeout``), the set is closed, or
        the peer is dead past its respawn budget. A dead peer is
        respawned here."""
        candidates = self._peers if peer_id is None else (self._peers[peer_id],)
        start = time.perf_counter()
        with self._free:
            peer = self._free.wait_for(
                lambda: self._pick(candidates),
                self.acquire_timeout if timeout is None else timeout,
            )
            if isinstance(peer, Peer):
                peer.busy = True
        self._count(
            wait_seconds=time.perf_counter() - start,
            exhaustion_fallbacks=peer is None,
        )
        if not isinstance(peer, Peer):
            return None
        if not peer.alive and not self._respawn(peer):
            self._hand_back(peer)
            return None
        return peer

    def release(self, peer: Peer) -> None:
        """Hand ``peer`` back, respawning it first if it died."""
        if not peer.alive:
            self._respawn(peer)
        self._hand_back(peer)

    def _hand_back(self, peer: Peer) -> None:
        with self._free:
            closing = self._closed
            if not closing:
                peer.busy = False
                self._free.notify_all()
        if closing:
            # close() left this peer to its owner, which is this thread
            self._stop(peer, polite=True)

    # ------------------------------------------------------------------ #
    # the task round-trip
    # ------------------------------------------------------------------ #
    def _call(self, peer: Peer, task: tuple) -> tuple[int, tuple]:
        """One round-trip: the bytes sent and the reply."""
        sent = peer.channel.send(task)
        return sent, peer.channel.recv()

    def _count(self, **counts: float) -> None:
        with self._lock:
            for name, value in counts.items():
                setattr(self._stats, name, getattr(self._stats, name) + value)

    def _install(self, peer: Peer, key: tuple, payload_fn: Callable[[], dict]) -> None:
        """Catch ``peer`` up to ``key``: the delta tail when one covers
        the gap, else the pickled snapshot."""
        if peer.snapshot_key == key:
            return
        delta = self._delta_for(peer.snapshot_key, key)
        if delta is not None:
            sent, reply = self._call(peer, (MSG_DELTA, key, delta))
            if reply[0] == REPLY_OK:
                peer.snapshot_key = key
                self._count(
                    delta_reships=1, delta_records_shipped=len(delta), bytes_shipped=sent
                )
                return
            # the peer could not apply it: its installed state is unknown
            peer.snapshot_key = None
        sent, reply = self._call(peer, (MSG_SNAPSHOT, key, payload_fn()))
        if reply[0] != REPLY_OK:  # pragma: no cover - defensive
            raise WireError(f"snapshot install failed: {reply[0]!r}")
        peer.snapshot_key = key
        self._count(snapshots_sent=1, bytes_shipped=sent)

    def _run(
        self,
        peer_id: Optional[int],
        key: tuple,
        payload_fn: Callable[[], dict],
        plan,
        rows_per_batch: int,
    ) -> Optional[tuple]:
        """Run one bounded plan on a peer (``peer_id``'s, or any idle
        one) under snapshot ``key``: ``(columns, rows, metrics,
        wait_seconds, wire_seconds, peer_id)``, or ``None`` when the
        caller must run it in-process. A semantic error the peer relays
        (a bound exceeded, a type error) is raised here, exactly as the
        in-process run raises it."""
        start = time.perf_counter()
        peer = self.acquire(peer_id=peer_id)
        wait = time.perf_counter() - start
        if peer is None:
            self._count(fallbacks=1)
            return None
        task = (MSG_PLAN, key, plan, rows_per_batch)

        def on_stale() -> None:
            # the peer's installed snapshot disagrees with our bookkeeping
            # (chaos, or a respawn raced us)
            self._count(stale_reships=1)
            peer.snapshot_key = None

        try:
            reply: Optional[tuple] = compute_with_stale_retry(
                ensure=lambda: self._install(peer, key, payload_fn),
                roundtrip=lambda: self._call(peer, task)[1],
                on_stale=on_stale,
            )
            wire = time.perf_counter() - start - wait
        except (WireError, StalePeer):
            # the peer or its stream is gone: tear it down, release
            # respawns it, and this plan runs in-process
            self._stop(peer)
            reply = None
        finally:
            self.release(peer)
        if reply is None:
            self._count(failovers=1, fallbacks=1)
            return None
        if reply[0] == REPLY_RAISE:
            raise reply[1]
        if reply[0] != REPLY_RESULT:  # unsupported
            self._count(fallbacks=1)
            return None
        with self._lock:
            self._stats.plans_dispatched += 1
            self._stats.serves[peer.id] = self._stats.serves.get(peer.id, 0) + 1
            self._stats.wire_seconds += wire
        return reply[1], reply[2], reply[3], wait, wire, peer.id

    # ------------------------------------------------------------------ #
    # introspection / chaos hooks
    # ------------------------------------------------------------------ #
    def stats(self) -> PeerStats:
        with self._lock:
            snapshot = replace(self._stats, serves=dict(self._stats.serves))
        snapshot.alive = sum(peer.alive for peer in self._peers)
        return snapshot

    def debug(self, action: str, *args: Any, peer_id: Optional[int] = None) -> tuple:
        """Send a chaos hook to one peer (``peer_id``'s, or any idle
        one): ``die``, ``die_on_next_task``, ``sleep``,
        ``set_snapshot_key``, ``corrupt_next_reply`` or ``ping``. ``die``
        answers ok once the peer is gone, which is its success."""
        peer = self.acquire(timeout=1.0, peer_id=peer_id)
        if peer is None:
            raise BEASError(f"no live idle {self.kind} peer for debug {action!r}")
        try:
            task = (MSG_PING,) if action == "ping" else (MSG_DEBUG, action, *args)
            return self._call(peer, task)[1]
        except WireError as error:
            self._stop(peer)
            if action == "die":
                return (REPLY_OK,)
            raise BEASError(f"debug {action!r} failed: {error}") from error
        finally:
            self.release(peer)
