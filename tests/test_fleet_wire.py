"""Wire-frame corruption on a peer's channel degrades, never lies.

The wire twin of ``tests/test_storage_persistence.py``'s WAL-tail
cases: the same ``u32 len | u32 crc32 | payload`` frame, the same
corruption classes (torn frame, short payload, CRC flip, implausible
length), and the same contract — a corrupt stream is detected, never
resynchronised, and never produces a wrong answer. At the protocol
layer every class raises :class:`~repro.distributed.protocol.WireError`
deterministically (driven over a ``socketpair``); end to end, a fault
injected into a replica's socket reply or a pool worker's pipe reply
makes the coordinator tear the peer down and answer locally, with the
failover visible in ``PeerStats`` — and the respawned peer serves the
next read.
"""

from __future__ import annotations

import itertools
import pickle
import socket
import threading

import pytest

from repro import BEAS, EnginePool
from repro.engine.router import PlanRunner
from repro.distributed.protocol import (
    WireError,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
)
from repro.storage.wal import MAX_FRAME_BYTES, frame_record

from tests.conftest import example1_access_schema, example1_database

_PORTS = itertools.count(8100, 16)

CALL_SQL = (
    "SELECT recnum, region FROM call "
    "WHERE pnum = '100' AND date = '2016-06-01'"
)


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def _recv_in_thread(sock):
    """Run recv_message on a thread so a sender can close mid-frame."""
    outcome = {}

    def run():
        try:
            outcome["message"] = recv_message(sock)
        except BaseException as error:  # noqa: BLE001 - assertion target
            outcome["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


# --------------------------------------------------------------------------- #
# protocol layer: every corruption class is a deterministic WireError
# --------------------------------------------------------------------------- #
class TestFrameProtocol:
    def test_roundtrip(self, pair):
        left, right = pair
        send_message(left, ("ping", 42))
        assert recv_message(right) == ("ping", 42)
        send_frame(left, b"raw-payload")
        assert recv_frame(right) == b"raw-payload"

    def test_partial_header_then_eof(self, pair):
        left, right = pair
        frame = frame_record(pickle.dumps(("ok",)))
        thread, outcome = _recv_in_thread(right)
        left.sendall(frame[:3])  # 3 of the 8 header bytes
        left.close()
        thread.join(timeout=10)
        assert isinstance(outcome.get("error"), WireError)
        assert "3 bytes into a 8-byte read" in str(outcome["error"])

    def test_short_payload_then_eof(self, pair):
        left, right = pair
        frame = frame_record(pickle.dumps(("ok", "x" * 64)))
        thread, outcome = _recv_in_thread(right)
        left.sendall(frame[: len(frame) - 10])  # honest header, torn body
        left.close()
        thread.join(timeout=10)
        assert isinstance(outcome.get("error"), WireError)
        assert "bytes into a" in str(outcome["error"])

    def test_crc_flip(self, pair):
        left, right = pair
        frame = bytearray(frame_record(pickle.dumps(("ok",))))
        frame[-1] ^= 0xFF  # last payload byte; header stays honest
        left.sendall(bytes(frame))
        with pytest.raises(WireError, match="checksum mismatch"):
            recv_message(right)

    def test_implausible_length(self, pair):
        left, right = pair
        frame = frame_record(pickle.dumps(("ok",)))
        bad = (MAX_FRAME_BYTES + 1).to_bytes(4, "little") + frame[4:]
        left.sendall(bad)
        # rejected from the header alone: no attempt to read ~1 GiB
        with pytest.raises(WireError, match="length"):
            recv_message(right)

    def test_crc_valid_but_unpicklable_payload(self, pair):
        left, right = pair
        send_frame(left, b"\x80\x05this is not a pickle")
        with pytest.raises(WireError, match="unpickle"):
            recv_message(right)

    def test_crc_valid_but_not_a_tuple(self, pair):
        left, right = pair
        send_frame(left, pickle.dumps(["not", "a", "tuple"]))
        with pytest.raises(WireError, match="not a protocol tuple"):
            recv_message(right)

    def test_oversized_send_is_refused_locally(self, pair):
        left, _ = pair
        with pytest.raises(WireError):
            send_frame(left, b"x" * (MAX_FRAME_BYTES + 1))


# --------------------------------------------------------------------------- #
# end to end: a corrupt reply fails over to coordinator-local serving
# --------------------------------------------------------------------------- #
class TestCorruptReplyFailover:
    @pytest.mark.parametrize("mode", ["truncate", "crc", "length"])
    def test_corrupt_reply_degrades_to_local_and_recovers(self, mode):
        beas = BEAS(
            example1_database(),
            example1_access_schema(),
            replicas=2,
            fleet_port_base=next(_PORTS),
        )
        oracle = BEAS(example1_database(), example1_access_schema())
        try:
            session = beas.session()
            query = session.query(CALL_SQL)
            clean = query.run(use_result_cache=False)
            victim = clean.metrics.replica_id
            assert victim >= 0
            expected = (
                oracle.session().query(CALL_SQL).run(use_result_cache=False)
            )
            assert clean.rows == expected.rows

            beas.fleet.debug("corrupt_next_reply", mode, replica_id=victim)
            base = beas.fleet_stats()
            # the corrupted reply must neither hang the coordinator nor
            # leak a wrong answer: the dispatch fails over and the
            # coordinator's local execution answers, identically
            corrupted = query.run(use_result_cache=False)
            assert corrupted.rows == expected.rows
            assert corrupted.metrics.replica_id == -1
            stats = beas.fleet_stats()
            assert stats.failovers == base.failovers + 1
            assert stats.fallbacks == base.fallbacks + 1

            # the torn connection is never resynchronised: the replica is
            # respawned with a fresh stream and serves again
            recovered = query.run(use_result_cache=False)
            assert recovered.rows == expected.rows
            assert recovered.metrics.replica_id == victim
            assert beas.fleet_stats().respawns >= 1
        finally:
            beas.close()
            oracle.close()

    @pytest.mark.parametrize("mode", ["truncate", "crc", "length"])
    def test_corrupt_pipe_reply_degrades_to_local_and_recovers(self, mode):
        # the pool's pipe carries the same frames, so the same three
        # faults must end the same way: WireError, fallback, respawn
        beas = BEAS(example1_database(), example1_access_schema())
        plan = beas.check(CALL_SQL).plan
        expected = beas.runner.run_route("columnar", plan)
        with EnginePool(1) as pool:
            runner = PlanRunner(beas.catalog, pool=lambda: pool)
            assert runner.run_route("pool", plan).metrics.pool_fallbacks == 0
            pool.debug("corrupt_next_reply", mode)
            corrupted = runner.run_route("pool", plan)
            assert corrupted.rows == expected.rows
            assert corrupted.metrics.tuples_fetched == expected.metrics.tuples_fetched
            assert corrupted.metrics.pool_fallbacks == 1
            stats = pool.stats()
            assert (stats.failovers, stats.fallbacks, stats.respawns) == (1, 1, 1)
            assert stats.alive == 1

            recovered = runner.run_route("pool", plan)
            assert recovered.rows == expected.rows
            assert recovered.metrics.pool_fallbacks == 0
        beas.close()

    def test_unapplicable_delta_reships_full_snapshot(self):
        # not byte corruption, but the same degrade-don't-lie contract
        # one layer up: a delta the replica cannot apply must answer
        # unsupported and trigger a full snapshot re-ship
        beas = BEAS(
            example1_database(),
            example1_access_schema(),
            replicas=2,
            fleet_port_base=next(_PORTS),
        )
        try:
            session = beas.session()
            query = session.query(CALL_SQL)
            victim = query.run(use_result_cache=False).metrics.replica_id
            # claim a bogus installed key: the next dispatch believes the
            # replica is current, gets a stale reply, and re-ships
            beas.fleet.debug(
                "set_snapshot_key", (999, ()), replica_id=victim
            )
            base = beas.fleet_stats()
            result = query.run(use_result_cache=False)
            assert result.rows
            assert result.metrics.replica_id == victim
            stats = beas.fleet_stats()
            assert stats.stale_reships == base.stale_reships + 1
        finally:
            beas.close()
