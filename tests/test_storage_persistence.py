"""Crash-recovery suite for the persistent store (``storage="mmap"``).

Every failure mode a crash can leave on disk must recover to a state
the brute-force oracle agrees with, or fall back to a cold rebuild —
never serve from a half-applied store:

* a torn WAL tail (partial header, short payload, CRC flip) is
  truncated to the longest consistent prefix and replay continues,
* a garbage, truncated or foreign manifest fails ``try_load`` and the
  engine cold-rebuilds from base data (then re-checkpoints),
* a crash on either side of a checkpoint's manifest replace recovers
  one manifest and the log it names, never an older lineage's log,
* kill -9 mid-maintenance recovers *exactly* the last fully-logged
  batch: the differential test compares the recovered index buckets
  and query answers against an oracle rebuilt from scratch at the
  recovered version vector.
"""

from __future__ import annotations

import gc
import json
import marshal
import os
import signal
import subprocess
import sys
import textwrap
import threading
import weakref
from pathlib import Path

import pytest

import repro.storage.mmapstore as mmapstore_module
from repro import BEAS, ExecutionOptions, Session
from repro.access.catalog import ASCatalog
from repro.access.constraint import AccessConstraint
from repro.access.index import AccessIndex
from repro.access.schema import AccessSchema
from repro.catalog.schema import DatabaseSchema, TableSchema
from repro.catalog.types import DataType
from repro.errors import MaintenanceError
from repro.storage.codec import CANONICAL_NAN
from repro.storage.database import Database
from repro.storage.mmapstore import MmapStore
from repro.storage.wal import WriteAheadLog, frame_record

from tests.conftest import engine_run, nan_keyed, store_log

SRC = Path(__file__).resolve().parent.parent / "src"
ROOT = SRC.parent

QUERY = (
    "SELECT DISTINCT recnum, amount FROM event "
    "WHERE k = 'k000' AND date = '2016-06-01'"
)


def event_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            TableSchema(
                "event",
                [
                    ("k", DataType.STRING),
                    ("date", DataType.STRING),
                    ("recnum", DataType.STRING),
                    ("amount", DataType.FLOAT),
                ],
                keys=[("recnum",)],
            )
        ]
    )


def build_base() -> Database:
    """A deterministic base dataset, identical on every call — the
    kill-9 child and the recovering parent must fingerprint equal."""
    db = Database(event_schema())
    for i in range(120):
        db.insert(
            "event",
            (
                f"k{i % 6:03d}",
                "2016-06-01" if i % 2 == 0 else "2016-06-02",
                f"r{i:05d}",
                float(i),
            ),
        )
    # float specials ride through the fingerprint + WAL codecs
    db.insert("event", ("k000", "2016-06-01", "rnan0", float("nan")))
    db.insert("event", ("k000", "2016-06-01", "rinf0", float("inf")))
    db.insert("event", ("k000", "2016-06-01", "rnull", None))
    return db


ACCESS = AccessSchema(
    [
        AccessConstraint(
            "event",
            ["k", "date"],
            ["recnum", "amount"],
            500_000,
            name="by_key",
        )
    ],
    name="A-persist",
)


def gen_insert(i: int) -> tuple:
    return (f"k{i % 6:03d}", "2016-06-01", f"w{i:06d}", float(i))


# --------------------------------------------------------------------------- #
# WAL framing under torn tails
# --------------------------------------------------------------------------- #
class TestWalRepair:
    def _log_with_records(self, tmp_path, count=3) -> WriteAheadLog:
        wal = WriteAheadLog(tmp_path / "log.wal")
        for i in range(count):
            wal.append({"op": "insert", "seq": i})
        wal.close()
        return wal

    def test_partial_header_tail_is_truncated(self, tmp_path):
        wal = self._log_with_records(tmp_path)
        with open(wal.path, "ab") as handle:
            handle.write(b"\x07\x00")  # 2 of the 8 header bytes
        report = wal.replay(repair=True)
        assert [r["seq"] for r in report.records] == [0, 1, 2]
        assert report.truncated and report.dropped_bytes == 2
        # the repair leaves a consistent prefix: appends continue from it
        wal.append({"op": "insert", "seq": 3})
        wal.close()
        assert [r["seq"] for r in wal.replay().records] == [0, 1, 2, 3]

    def test_short_payload_tail_is_truncated(self, tmp_path):
        wal = self._log_with_records(tmp_path)
        frame = frame_record(b'{"op":"insert","seq":9}')
        with open(wal.path, "ab") as handle:
            handle.write(frame[:-4])  # crash mid-payload
        report = wal.replay(repair=True)
        assert [r["seq"] for r in report.records] == [0, 1, 2]
        assert report.truncated and report.reason == "short frame payload"

    def test_crc_flip_drops_the_flipped_record_and_everything_after(
        self, tmp_path
    ):
        wal = self._log_with_records(tmp_path, count=3)
        data = bytearray(wal.path.read_bytes())
        # flip one payload byte of the middle record: the WAL is an
        # ordered history, so record 2 must NOT survive record 1's loss
        middle = len(data) // 2
        data[middle] ^= 0xFF
        wal.path.write_bytes(bytes(data))
        report = wal.replay(repair=True)
        assert len(report.records) < 3
        assert report.truncated
        assert report.reason in (
            "frame checksum mismatch",
            "frame payload is not valid JSON",
            "implausible frame length "
            f"{int.from_bytes(bytes(data[middle:middle + 4]), 'little')}",
        ) or report.reason.startswith("implausible frame length")
        # the surviving prefix is exactly the records before the flip
        assert [r["seq"] for r in report.records] == list(
            range(len(report.records))
        )

    def test_non_object_payload_is_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "log.wal")
        wal.append({"op": "insert", "seq": 0})
        wal.close()
        with open(wal.path, "ab") as handle:
            # valid CRC, wrong shape
            handle.write(frame_record(marshal.dumps([1, 2, 3], 4)))
        report = wal.replay(repair=True)
        assert [r["seq"] for r in report.records] == [0]
        assert report.truncated

    def test_concurrent_appends_share_one_handle(self, tmp_path):
        """Writers of different tables append from different shard write
        sections: every frame must land whole, through one handle (a
        second, leaked handle surfaces as a ResourceWarning)."""
        wal = WriteAheadLog(tmp_path / "log.wal")
        writers, each = 8, 50
        barrier = threading.Barrier(writers)

        def write(writer: int) -> None:
            barrier.wait(timeout=30)
            for seq in range(each):
                wal.append({"op": "insert", "writer": writer, "seq": seq})

        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wal.records_appended == writers * each
        wal.close()
        report = wal.replay()
        assert not report.truncated
        for writer in range(writers):
            mine = [r["seq"] for r in report.records if r["writer"] == writer]
            assert mine == list(range(each))


# --------------------------------------------------------------------------- #
# warm restart through the BEAS constructor
# --------------------------------------------------------------------------- #
class TestWarmRestart:
    def test_wal_replay_recovers_maintenance(self, tmp_path):
        first = BEAS(
            build_base(), ACCESS, storage="mmap", storage_dir=tmp_path
        )
        for i in range(5):
            first.insert("event", [gen_insert(i)])
        first.delete("event", [gen_insert(0)])
        expected = engine_run(first, QUERY)
        version = first.database.table("event").version
        first.close()

        second = BEAS(
            build_base(), ACCESS, storage="mmap", storage_dir=tmp_path
        )
        stats = second.storage_stats()
        assert stats is not None and stats.warm_start
        assert stats.wal_records_replayed >= 6
        assert second.database.table("event").version == version
        recovered = engine_run(second, QUERY)
        assert nan_keyed(recovered.rows) == nan_keyed(expected.rows)
        second.close()

    def test_generator_batches_reach_the_wal(self, tmp_path):
        """A delete given as a generator used to be refused (the batch
        was consumed twice), and the WAL record and fleet delta after the
        apply were handed the exhausted iterator."""
        options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))
        first = Session(build_base(), ACCESS, options=options)
        inserted = first.insert("event", (gen_insert(i) for i in range(3)))
        assert inserted.inserted == 3
        victims = [gen_insert(1), ("k000", "2016-06-01", "r00000", 0.0)]
        deleted = first.delete("event", (row for row in victims))
        assert deleted.deleted == 2
        survivors = list(first.database.table("event").rows)
        assert not set(victims) & set(survivors)
        first.close()

        second = Session(build_base(), ACCESS, options=options)
        try:
            assert second.stats().storage.warm_start
            # NaN cells come back as the one canonical object: list-equal
            assert second.database.table("event").rows == survivors
        finally:
            second.close()

    def test_wal_rows_are_canonical_bytes(self, tmp_path):
        """The log holds the stored tuples of NaN, NULL, ``""``, ``'"x"'``
        and ``-inf`` cells as they are; a delete logs the rows the table
        stored, so ``log_delete`` needs no ``canonical_key`` pass, and a
        reopen replays them with every NaN the one canonical object."""
        options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))
        rows = [
            ("k000", "2016-06-01", "wnan", float("nan")),
            ("k000", "2016-06-01", "wnull", None),
            ("", "2016-06-01", "wempty", 1.0),
            ('"x"', "2016-06-01", "wquote", float("-inf")),
        ]
        first = Session(build_base(), ACCESS, options=options)
        first.insert("event", rows)
        # a NaN that is not the canonical object, and the base data's own
        first.delete(
            "event",
            [rows[0], rows[2], ("k000", "2016-06-01", "rnan0", float("nan"))],
        )
        first.delete("event", [rows[1], rows[3]])
        survivors = list(first.database.table("event").rows)
        assert first.stats().storage.wal_text_batches == 0
        first.close()

        records = WriteAheadLog(store_log(tmp_path)).replay().records
        assert [
            (record.pop("op"), record.pop("table"), record.pop("version"))
            for record in records
        ] == [("insert", "event", 127), ("delete", "event", 128), ("delete", "event", 129)]
        assert [nan_keyed(record.pop("values")) for record in records] == [
            nan_keyed(rows),
            nan_keyed([rows[0], rows[2], ("k000", "2016-06-01", "rnan0", float("nan"))]),
            nan_keyed([rows[1], rows[3]]),
        ]
        assert records == [{}, {}, {}]

        second = Session(build_base(), ACCESS, options=options)
        try:
            assert second.stats().storage.wal_records_replayed == 3
            replayed = second.database.table("event").rows
            assert replayed == survivors
            assert all(cell is CANONICAL_NAN for row in replayed for cell in row if cell != cell)
        finally:
            second.close()

    def test_refused_delete_leaves_live_and_recovered_versions_equal(self, tmp_path):
        options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))
        first = Session(build_base(), ACCESS, options=options)
        table = first.database.table("event")
        first.insert("event", [gen_insert(0)])
        before, version = list(table.rows), table.version
        with pytest.raises(MaintenanceError):
            first.delete("event", [gen_insert(0), gen_insert(99)])  # 99: absent
        # no reorder, no bump — and so nothing the WAL would have to carry
        assert table.rows == before and table.version == version
        first.close()

        second = Session(build_base(), ACCESS, options=options)
        try:
            assert second.stats().storage.warm_start
            assert second.database.table("event").version == version
            assert second.database.table("event").rows == before
        finally:
            second.close()

    def test_base_data_drift_forces_cold_rebuild(self, tmp_path):
        BEAS(build_base(), ACCESS, storage="mmap", storage_dir=tmp_path).close()
        drifted = build_base()
        drifted.insert("event", ("k000", "2016-06-01", "extra", 1.0))
        beas = BEAS(drifted, ACCESS, storage="mmap", storage_dir=tmp_path)
        stats = beas.storage_stats()
        assert stats is not None and not stats.warm_start
        oracle_db = build_base()
        oracle_db.insert("event", ("k000", "2016-06-01", "extra", 1.0))
        oracle = BEAS(oracle_db, ACCESS)
        assert nan_keyed(engine_run(beas, QUERY).rows) == nan_keyed(
            engine_run(oracle, QUERY).rows
        )
        beas.close()
        oracle.close()

    def test_access_schema_drift_forces_cold_rebuild(self, tmp_path):
        BEAS(build_base(), ACCESS, storage="mmap", storage_dir=tmp_path).close()
        narrower = AccessSchema(
            [
                AccessConstraint(
                    "event", ["k", "date"], ["recnum"], 500_000, name="by_key"
                )
            ],
            name="A-persist",
        )
        beas = BEAS(
            build_base(), narrower, storage="mmap", storage_dir=tmp_path
        )
        stats = beas.storage_stats()
        assert stats is not None and not stats.warm_start
        beas.close()

    def test_adjust_record_widens_recovered_bound(self, tmp_path):
        db = build_base()
        catalog = ASCatalog(db, ACCESS)
        store = MmapStore(tmp_path)
        store.checkpoint(catalog)
        store.log_adjust("by_key", 750_000)
        store.close()

        fresh = ASCatalog(build_base())
        fresh.schema = AccessSchema(name="A-persist")
        reopened = MmapStore(tmp_path)
        assert reopened.try_load(fresh)
        assert fresh.schema.get("by_key").n == 750_000
        reopened.close()

    def test_a_reopen_never_holds_the_closed_engines_indices(self, tmp_path):
        """A closed engine holds no reference cycle: dropping its last
        Session frees it, indices included, by reference counting alone,
        so a reopen never builds its indices beside the old ones."""
        options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))
        first = Session(build_base(), ACCESS, options=options)
        first.run(QUERY)
        catalog = weakref.ref(first.beas.catalog)
        first.close()
        collecting = gc.isenabled()
        gc.disable()
        try:
            del first
            assert catalog() is None
        finally:
            if collecting:
                gc.enable()
        second = Session(build_base(), ACCESS, options=options)
        assert second.stats().storage.warm_start
        second.close()

    def test_float_specials_round_trip_the_store(self, tmp_path):
        first = BEAS(
            build_base(), ACCESS, storage="mmap", storage_dir=tmp_path
        )
        expected = engine_run(first, QUERY)
        first.close()
        second = BEAS(
            build_base(), ACCESS, storage="mmap", storage_dir=tmp_path
        )
        assert second.storage_stats().warm_start
        constraint = ACCESS.get("by_key")
        index = second.catalog.index_for(constraint)
        key_parts = {"k": "k000", "date": "2016-06-01"}
        bucket = index.fetch(
            tuple(key_parts[attr] for attr in constraint.x)
        )
        recnum_pos = constraint.y.index("recnum")
        amount_pos = constraint.y.index("amount")
        by_recnum = {y[recnum_pos]: y[amount_pos] for y in bucket}
        assert by_recnum["rnan0"] is CANONICAL_NAN
        assert by_recnum["rinf0"] == float("inf")
        assert by_recnum["rnull"] is None
        assert nan_keyed(engine_run(second, QUERY).rows) == nan_keyed(expected.rows)
        second.close()


# --------------------------------------------------------------------------- #
# corrupt store artifacts: never serve, always cold-rebuild
# --------------------------------------------------------------------------- #
class TestCorruptStore:
    def _seed_store(self, tmp_path) -> Path:
        """A checkpointed store with one logged batch; its manifest."""
        beas = BEAS(build_base(), ACCESS, storage="mmap", storage_dir=tmp_path)
        beas.insert("event", [gen_insert(0)])
        beas.close()
        return tmp_path / "MANIFEST.json"

    def _edit_manifest(self, tmp_path, edit) -> None:
        manifest = self._seed_store(tmp_path)
        data = json.loads(manifest.read_text())
        edit(data)
        manifest.write_text(json.dumps(data))

    def _assert_cold_but_correct(self, tmp_path):
        beas = BEAS(build_base(), ACCESS, storage="mmap", storage_dir=tmp_path)
        stats = beas.storage_stats()
        assert stats is not None and not stats.warm_start
        oracle = BEAS(build_base(), ACCESS)
        assert nan_keyed(engine_run(beas, QUERY).rows) == nan_keyed(
            engine_run(oracle, QUERY).rows
        )
        beas.close()
        oracle.close()
        # the rebuild re-checkpointed: a third start is warm again
        third = BEAS(build_base(), ACCESS, storage="mmap", storage_dir=tmp_path)
        assert third.storage_stats().warm_start
        third.close()

    def test_garbage_manifest_falls_back_cold(self, tmp_path):
        self._seed_store(tmp_path).write_text("{not json")
        self._assert_cold_but_correct(tmp_path)

    def test_truncated_manifest_falls_back_cold(self, tmp_path):
        manifest = self._seed_store(tmp_path)
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        self._assert_cold_but_correct(tmp_path)

    def test_manifest_of_another_format_falls_back_cold(self, tmp_path):
        # 1: the format that kept index segments beside the manifest
        self._edit_manifest(tmp_path / "1", lambda data: data.update(format=1))
        self._assert_cold_but_correct(tmp_path / "1")
        # 2: the format whose log held JSON records, as it wrote them
        store = tmp_path / "2"
        self._edit_manifest(store, lambda data: data.update(format=2))
        log = store_log(store)
        records = WriteAheadLog(log).replay(repair=False).records
        assert [record["op"] for record in records] == ["insert"]
        log.write_bytes(
            b"".join(
                frame_record(
                    json.dumps(
                        {**record, "values": list(map(list, record["values"]))},
                        separators=(",", ":"),
                        sort_keys=True,
                        allow_nan=False,
                    ).encode("utf-8")
                )
                for record in records
            )
        )
        self._assert_cold_but_correct(store)
        assert not log.exists()  # the cold start's checkpoint replaced it

    def test_manifest_naming_a_missing_table_falls_back_cold(self, tmp_path):
        self._edit_manifest(
            tmp_path,
            lambda data: data["tables"].update(
                ghost={"rows": 0, "crc": 0, "version": 0}
            ),
        )
        self._assert_cold_but_correct(tmp_path)

    def test_a_cold_start_leaves_the_manifest_and_an_empty_log(self, tmp_path):
        """No file grows with the data: the store holds the manifest and
        the log it names, and nothing more once a session closes."""
        options = ExecutionOptions(storage="mmap", storage_dir=str(tmp_path))
        session = Session(build_base(), ACCESS, options=options)
        try:
            assert not session.stats().storage.warm_start
            log = store_log(tmp_path)
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                ["MANIFEST.json", log.name]
            )
            assert log.stat().st_size == 0
            session.run(QUERY)
        finally:
            session.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["MANIFEST.json", log.name]
        )

    def test_torn_wal_tail_still_warm_starts(self, tmp_path):
        first = BEAS(build_base(), ACCESS, storage="mmap", storage_dir=tmp_path)
        for i in range(4):
            first.insert("event", [gen_insert(i)])
        expected = engine_run(first, QUERY)
        first.close()
        with open(store_log(tmp_path), "ab") as handle:
            handle.write(b"\x99\x00\x00")  # crash mid-append
        second = BEAS(
            build_base(), ACCESS, storage="mmap", storage_dir=tmp_path
        )
        stats = second.storage_stats()
        assert stats is not None and stats.warm_start
        assert stats.wal_dropped_bytes == 3
        assert nan_keyed(engine_run(second, QUERY).rows) == nan_keyed(expected.rows)
        second.close()


# --------------------------------------------------------------------------- #
# a crash right after a checkpoint's manifest replace
# --------------------------------------------------------------------------- #
BY_RECNUM = AccessConstraint("event", ["recnum"], ["amount"], 1, name="by_recnum")


class CrashAfterManifest(Exception):
    """The process died the moment the new manifest was in place."""


def _crash_after_manifest(monkeypatch) -> None:
    """Every store write is the real one; the manifest's then 'crashes'."""
    write = mmapstore_module._atomic_write

    def crashing(path, data):
        write(path, data)
        if path.name == "MANIFEST.json":
            raise CrashAfterManifest

    monkeypatch.setattr(mmapstore_module, "_atomic_write", crashing)


def _assert_holds_exactly(beas: BEAS, database: Database) -> None:
    """``beas`` warm-started onto ``database``'s rows, every index equal
    to a from-scratch build over them."""
    assert beas.storage_stats().warm_start
    assert beas.database.table("event").rows == database.table("event").rows
    for constraint in beas.catalog.schema:
        assert beas.catalog.index_for(constraint).snapshot() == AccessIndex(
            constraint, database.table("event")
        ).snapshot()


class TestCheckpointCommitPoint:
    def test_register_replays_no_batch_its_checkpoint_holds(self, tmp_path, monkeypatch):
        """The checkpoint ``register`` takes holds the batch logged before
        it. The old store replaced the manifest and only then emptied the
        log: a crash between the two replayed the batch a second time."""
        # a copy: register adds to the schema the catalog was built with
        access = AccessSchema(ACCESS, name=ACCESS.name)
        beas = BEAS(build_base(), access, storage="mmap", storage_dir=tmp_path)
        batch = [gen_insert(i) for i in range(3)]
        beas.insert("event", batch)
        _crash_after_manifest(monkeypatch)
        with pytest.raises(CrashAfterManifest):
            beas.register(BY_RECNUM)
        beas.close()
        monkeypatch.undo()

        checkpointed = build_base()
        checkpointed.table("event").insert_rows(batch)
        widened = AccessSchema([*ACCESS, BY_RECNUM], name=ACCESS.name)
        reopened = BEAS(checkpointed, widened, storage="mmap", storage_dir=tmp_path)
        try:
            assert reopened.storage_stats().wal_records_replayed == 0
            assert len(reopened.database.table("event").rows) == 126
            _assert_holds_exactly(reopened, checkpointed)
        finally:
            reopened.close()

    def test_a_cold_start_never_replays_the_old_lineage(self, tmp_path, monkeypatch):
        """A cold start over a store written for other rows checkpoints
        its own; the old store's log must not replay onto them."""
        first = BEAS(build_base(), ACCESS, storage="mmap", storage_dir=tmp_path)
        first.insert("event", [gen_insert(i) for i in range(3)])
        first.close()

        def drifted() -> Database:
            database = build_base()
            database.insert("event", ("k001", "2016-06-02", "extra", 1.0))
            return database

        _crash_after_manifest(monkeypatch)
        with pytest.raises(CrashAfterManifest):
            BEAS(drifted(), ACCESS, storage="mmap", storage_dir=tmp_path)
        monkeypatch.undo()

        reopened = BEAS(drifted(), ACCESS, storage="mmap", storage_dir=tmp_path)
        try:
            assert reopened.storage_stats().wal_records_replayed == 0
            _assert_holds_exactly(reopened, drifted())
        finally:
            reopened.close()


# --------------------------------------------------------------------------- #
# kill -9 mid-maintenance: differential against the brute-force oracle
# --------------------------------------------------------------------------- #
CHILD_SCRIPT = textwrap.dedent(
    """\
    import sys
    sys.path[:0] = [{src!r}, {root!r}]
    from repro import BEAS
    from tests.test_storage_persistence import ACCESS, build_base, gen_insert

    beas = BEAS(build_base(), ACCESS, storage="mmap", storage_dir=sys.argv[1])
    for i in range(100_000):
        beas.insert("event", [gen_insert(i)])
        print(i, flush=True)
    """
)


def test_kill9_recovers_exactly_the_logged_prefix(tmp_path):
    base_version = build_base().table("event").version
    script = tmp_path / "child.py"
    script.write_text(CHILD_SCRIPT.format(src=str(SRC), root=str(ROOT)))
    store_dir = tmp_path / "store"
    child = subprocess.Popen(
        [sys.executable, str(script), str(store_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        assert child.stdout is not None
        for line in child.stdout:
            if int(line) >= 30:  # ensure a non-trivial logged prefix
                break
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stdout.close()

    recovered = BEAS(
        build_base(), ACCESS, storage="mmap", storage_dir=store_dir
    )
    stats = recovered.storage_stats()
    assert stats is not None and stats.warm_start, "store must warm-start"
    applied = recovered.database.table("event").version - base_version
    assert applied >= 30, "at least the acknowledged inserts must replay"

    # brute-force oracle at the recovered version vector: base data plus
    # exactly the first `applied` maintenance rows, indices from scratch
    oracle_db = build_base()
    for i in range(applied):
        oracle_db.insert("event", gen_insert(i))
    constraint = ACCESS.get("by_key")
    oracle_index = AccessIndex(constraint, oracle_db.table("event"))
    recovered_index = recovered.catalog.index_for(constraint)
    assert recovered_index.snapshot() == oracle_index.snapshot(), (
        "recovered buckets diverge from a from-scratch rebuild at the "
        "recovered version vector"
    )

    oracle = BEAS(oracle_db, ACCESS)
    recovered_answer = engine_run(recovered, QUERY)
    oracle_answer = engine_run(oracle, QUERY)
    assert nan_keyed(recovered_answer.rows) == nan_keyed(oracle_answer.rows)
    assert (
        recovered_answer.metrics.tuples_fetched
        == oracle_answer.metrics.tuples_fetched
    )
    recovered.close()
    oracle.close()
