"""The distributed serving tier: coordinator + read replicas over TCP.

Covers the fleet's contract end to end: option validation and engine
pinning, constraint-group placement and template routing, version-vector
consistent serves (delta re-ship after maintenance), death/failover with
in-coordinator fallback and budgeted respawn, the ``FleetStats`` /
``ServingStats.fleet`` surfaces, and the ``serve-stats --replicas`` CLI.

Every test uses its own port range (``_ports``) so replica listeners
never collide across tests, and oracles always run with ``replicas=1``.
"""

from __future__ import annotations

import itertools

import pytest

from repro import BEAS
from repro.beas.session import ExecutionOptions, Session
from repro.errors import BEASError
from repro import config

from tests.conftest import example1_access_schema, example1_database

_PORTS = itertools.count(7800, 16)


def _ports() -> int:
    """A fresh, per-test base port (replica i listens on base + i)."""
    return next(_PORTS)


CALL_SQL = (
    "SELECT recnum, region FROM call "
    "WHERE pnum = '100' AND date = '2016-06-01'"
)
PACKAGE_SQL = "SELECT pid FROM package WHERE pnum = '100' AND year = 2016"
BUSINESS_SQL = (
    "SELECT pnum FROM business WHERE type = 'bank' AND region = 'east'"
)
JOIN_SQL = (
    "SELECT call.region FROM call, package, business "
    "WHERE business.type = 'bank' AND business.region = 'east' "
    "AND business.pnum = call.pnum AND call.date = '2016-06-01' "
    "AND call.pnum = package.pnum AND package.year = 2016 "
    "AND package.start <= '2016-06-01' AND package.end >= '2016-06-01' "
    "AND package.pid = 'c0'"
)


@pytest.fixture
def fleet_beas():
    beas = BEAS(
        example1_database(),
        example1_access_schema(),
        replicas=3,
        fleet_port_base=_ports(),
    )
    yield beas
    beas.close()


@pytest.fixture
def oracle_beas():
    beas = BEAS(example1_database(), example1_access_schema())
    yield beas
    beas.close()


# --------------------------------------------------------------------------- #
# configuration and option plumbing
# --------------------------------------------------------------------------- #
class TestConfig:
    def test_validate_replicas_rejects_non_positive(self):
        with pytest.raises(BEASError):
            config.validate_replicas(0)
        with pytest.raises(BEASError):
            config.validate_replicas(-2)
        with pytest.raises(BEASError):
            config.validate_replicas("three")

    def test_validate_fleet_port_base_bounds(self):
        assert config.validate_fleet_port_base(7641) == 7641
        with pytest.raises(BEASError):
            config.validate_fleet_port_base(80)  # privileged
        with pytest.raises(BEASError):
            config.validate_fleet_port_base(70_000)  # off the port space

    def test_env_readers(self, monkeypatch):
        monkeypatch.setenv(config.ENV_REPLICAS, "4")
        monkeypatch.setenv(config.ENV_FLEET_PORT_BASE, "9100")
        assert config.env_replicas() == 4
        assert config.env_fleet_port_base() == 9100
        env = config.load_env_config()
        assert env.replicas == 4 and env.fleet_port_base == 9100
        monkeypatch.setenv(config.ENV_REPLICAS, "0")
        with pytest.raises(BEASError):
            config.env_replicas()

    def test_options_validate_at_construction(self):
        with pytest.raises(BEASError):
            ExecutionOptions(replicas=0)
        with pytest.raises(BEASError):
            ExecutionOptions(fleet_port_base=99)

    def test_replicas_is_engine_pinned(self, oracle_beas):
        session = Session(beas=oracle_beas)
        query = session.query(CALL_SQL)
        with pytest.raises(BEASError, match="replicas"):
            query.run(options=ExecutionOptions(replicas=3))

    def test_default_is_in_process(self, oracle_beas):
        assert oracle_beas.replicas == 1
        assert oracle_beas.fleet is None
        assert oracle_beas.fleet_stats() is None
        result = oracle_beas.session().query(CALL_SQL).run()
        assert result.metrics.replica_id == -1
        assert result.metrics.wire_seconds == 0.0

    def test_fleet_needs_two_replicas(self, oracle_beas):
        from repro.distributed.fleet import ReplicaFleet

        with pytest.raises(BEASError):
            ReplicaFleet(oracle_beas.catalog, replicas=1, port_base=_ports())


# --------------------------------------------------------------------------- #
# the shared snapshot protocol
# --------------------------------------------------------------------------- #
class TestSharedProtocol:
    def test_pool_and_fleet_share_the_protocol_vocabulary(self):
        # the engine pool's pipe protocol and the fleet's socket protocol
        # must be the same state machine, not two drifting copies
        from repro.distributed import protocol, replica
        from repro.engine import pool

        assert pool.run_plan_task is protocol.run_plan_task
        assert replica.run_plan_task is protocol.run_plan_task
        assert pool.REPLY_STALE is protocol.REPLY_STALE
        assert pool.compute_with_stale_retry is protocol.compute_with_stale_retry

    def test_stale_retry_state_machine(self):
        from repro.distributed.protocol import (
            REPLY_RESULT,
            REPLY_STALE,
            StalePeer,
            compute_with_stale_retry,
        )

        calls = {"ensure": 0, "stale": 0}
        replies = iter([(REPLY_STALE, None), (REPLY_RESULT, "rows")])

        def ensure():
            calls["ensure"] += 1

        def on_stale():
            calls["stale"] += 1

        reply = compute_with_stale_retry(
            ensure=ensure, roundtrip=lambda: next(replies), on_stale=on_stale
        )
        assert reply == (REPLY_RESULT, "rows")
        assert calls == {"ensure": 2, "stale": 1}

        always_stale = itertools.repeat((REPLY_STALE, None))
        with pytest.raises(StalePeer):
            compute_with_stale_retry(
                ensure=ensure,
                roundtrip=lambda: next(always_stale),
                on_stale=on_stale,
            )


# --------------------------------------------------------------------------- #
# placement, routing, and consistent serves
# --------------------------------------------------------------------------- #
class TestServing:
    def test_single_constraint_queries_route_to_distinct_replicas(
        self, fleet_beas, oracle_beas
    ):
        session = fleet_beas.session()
        oracle = oracle_beas.session()
        served_by = {}
        for sql in (CALL_SQL, PACKAGE_SQL, BUSINESS_SQL):
            result = session.query(sql).run(use_result_cache=False)
            expected = oracle.query(sql).run(use_result_cache=False)
            assert result.rows == expected.rows
            assert result.metrics.tuples_fetched == expected.metrics.tuples_fetched
            assert result.metrics.replica_id >= 0
            assert result.metrics.wire_seconds > 0.0
            served_by[sql] = result.metrics.replica_id
        # three constraints round-robined over three replicas: each
        # template lands on its own replica
        assert len(set(served_by.values())) == 3
        stats = fleet_beas.fleet_stats()
        assert stats.plans_dispatched == 3
        assert sum(stats.serves.values()) == 3
        assert stats.alive == 3

    def test_cross_replica_template_falls_back_in_coordinator(
        self, fleet_beas, oracle_beas
    ):
        # the join needs psi1+psi2+psi3, which placement scattered over
        # three replicas: no single replica covers it, so the
        # coordinator answers locally and counts the routing miss
        result = (
            fleet_beas.session().query(JOIN_SQL).run(use_result_cache=False)
        )
        expected = (
            oracle_beas.session().query(JOIN_SQL).run(use_result_cache=False)
        )
        assert result.rows == expected.rows
        assert result.metrics.replica_id == -1
        stats = fleet_beas.fleet_stats()
        assert stats.routing_misses >= 1
        assert stats.fallbacks >= 1
        assert stats.plans_dispatched == 0

    def test_maintenance_then_read_ships_delta_and_stays_exact(
        self, fleet_beas, oracle_beas
    ):
        session = fleet_beas.session()
        query = session.query(CALL_SQL)
        query.run(use_result_cache=False)  # snapshot installed
        base = fleet_beas.fleet_stats()
        assert base.snapshots_sent >= 1

        new_rows = [(800, "100", "801", "2016-06-01", "delta-town")]
        fleet_beas.insert("call", new_rows)
        oracle_beas.insert("call", new_rows)
        result = query.run(use_result_cache=False)
        expected = (
            oracle_beas.session().query(CALL_SQL).run(use_result_cache=False)
        )
        assert result.rows == expected.rows
        assert result.metrics.replica_id >= 0  # still served remotely
        stats = fleet_beas.fleet_stats()
        # the one-batch catch-up travels as a delta, not a full snapshot
        assert stats.delta_reships == base.delta_reships + 1
        assert stats.delta_records_shipped >= 1
        assert stats.snapshots_sent == base.snapshots_sent

    def test_delete_delta_keeps_replicas_exact(self, fleet_beas, oracle_beas):
        session = fleet_beas.session()
        query = session.query(CALL_SQL)
        query.run(use_result_cache=False)
        victim = [(1, "100", "555", "2016-06-01", "north")]
        fleet_beas.delete("call", victim)
        oracle_beas.delete("call", victim)
        result = query.run(use_result_cache=False)
        expected = (
            oracle_beas.session().query(CALL_SQL).run(use_result_cache=False)
        )
        assert result.rows == expected.rows
        assert result.metrics.replica_id >= 0

    def test_cold_replica_after_many_batches_full_reships(self, fleet_beas):
        # more batches than the delta tail retains, against a replica
        # that never held a snapshot: the catch-up must be a full
        # snapshot ship, and the answer must include every batch
        from repro.distributed.fleet import DELTA_TAIL_RECORDS

        for i in range(DELTA_TAIL_RECORDS + 4):
            fleet_beas.insert(
                "call", [(900 + i, "100", f"t{i}", "2016-06-01", "tail")]
            )
        result = (
            fleet_beas.session().query(CALL_SQL).run(use_result_cache=False)
        )
        assert result.metrics.replica_id >= 0
        tails = [row for row in result.rows if row[1] == "tail"]
        assert len(tails) == DELTA_TAIL_RECORDS + 4
        stats = fleet_beas.fleet_stats()
        assert stats.snapshots_sent >= 1

    def test_serving_stats_surface_fleet_counters(self, fleet_beas):
        session = fleet_beas.session()
        session.query(CALL_SQL).run(use_result_cache=False)
        stats = session.stats()
        assert stats.fleet is not None
        assert stats.fleet.plans_dispatched == 1
        text = stats.describe()
        assert "serving fleet:" in text
        assert "replicas alive" in text


# --------------------------------------------------------------------------- #
# death, failover, respawn
# --------------------------------------------------------------------------- #
class TestFailover:
    def test_replica_death_fails_over_then_respawns(
        self, fleet_beas, oracle_beas
    ):
        session = fleet_beas.session()
        query = session.query(CALL_SQL)
        first = query.run(use_result_cache=False)
        victim = first.metrics.replica_id
        assert victim >= 0

        # die_on_next_task: the replica exits mid-dispatch, so the death
        # is only discovered when the plan's reply never arrives — the
        # answer must come from the coordinator, not hang or be wrong
        fleet_beas.fleet.debug("die_on_next_task", replica_id=victim)
        during = query.run(use_result_cache=False)
        expected = (
            oracle_beas.session().query(CALL_SQL).run(use_result_cache=False)
        )
        assert during.rows == expected.rows
        assert during.metrics.replica_id == -1
        stats = fleet_beas.fleet_stats()
        assert stats.failovers >= 1
        assert stats.fallbacks >= 1

        # the next dispatch respawns the replica and serves remotely again
        after = query.run(use_result_cache=False)
        assert after.rows == expected.rows
        assert after.metrics.replica_id == victim
        stats = fleet_beas.fleet_stats()
        assert stats.respawns >= 1
        assert stats.alive == 3

    def test_respawn_budget_caps_crash_loops(self, fleet_beas):
        from repro.distributed.fleet import RESPAWN_BUDGET

        session = fleet_beas.session()
        query = session.query(CALL_SQL)
        victim = query.run(use_result_cache=False).metrics.replica_id
        exhausted = False
        for _ in range(RESPAWN_BUDGET + 2):
            try:
                fleet_beas.fleet.debug("die", replica_id=victim)
            except BEASError:
                # budget exhausted: the replica stays down for good
                exhausted = True
                break
            # every serve stays correct; respawns are budgeted, and once
            # the budget is spent the template is answered in-coordinator
            result = query.run(use_result_cache=False)
            assert result.rows
        assert exhausted
        stats = fleet_beas.fleet_stats()
        assert stats.respawns <= RESPAWN_BUDGET
        final = query.run(use_result_cache=False)
        assert final.rows
        assert final.metrics.replica_id == -1

    def test_close_is_idempotent_and_kills_replicas(self, fleet_beas):
        session = fleet_beas.session()
        session.query(CALL_SQL).run(use_result_cache=False)
        fleet = fleet_beas.fleet
        processes = [r.process for r in fleet._replicas]
        fleet_beas.close()
        fleet_beas.close()
        assert fleet.closed
        for process in processes:
            process.join(timeout=10)
            assert not process.is_alive()
        # serving still works after the fleet is gone — and, mirroring
        # the engine pool's close() contract, the next covered execute
        # transparently restarts a fresh fleet
        result = session.query(CALL_SQL).run(use_result_cache=False)
        assert result.rows
        assert result.metrics.replica_id >= 0
        assert fleet_beas.fleet is not fleet
        fleet_beas.close()


# --------------------------------------------------------------------------- #
# the CLI surface
# --------------------------------------------------------------------------- #
class TestCli:
    def test_serve_stats_with_replicas(self, tmp_path, capsys):
        from repro.cli import main
        from repro.access.io import dump_schema
        from repro.storage.csvio import dump_csv

        data = tmp_path / "data"
        data.mkdir()
        for table in example1_database():
            dump_csv(table, data / f"{table.schema.name}.csv")
        schema_path = tmp_path / "schema.json"
        dump_schema(example1_access_schema(), schema_path)

        code = main(
            [
                "serve-stats",
                "--data", str(data),
                "--schema", str(schema_path),
                "--sql", CALL_SQL,
                "--repeat", "3",
                "--replicas", "2",
                "--fleet-port-base", str(_ports()),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet: replica=" in out
        assert "serving fleet:" in out
        assert "stale reships" in out and "failovers" in out
