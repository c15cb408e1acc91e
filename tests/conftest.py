"""Shared fixtures: the paper's Example 1/2 setting and a small TLC instance."""

from __future__ import annotations

import gc
import tempfile
from pathlib import Path

import pytest

from repro import (
    AccessConstraint,
    AccessSchema,
    BEAS,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)
from repro.workloads.tlc import generate_tlc, tlc_access_schema


def example1_schema() -> DatabaseSchema:
    """The paper's Example 1 relations, with call_id/pkg_id keys added so
    key-dependent behaviour (bag-exact plans) is testable."""
    return DatabaseSchema(
        [
            TableSchema(
                "call",
                [
                    ("call_id", DataType.INT),
                    ("pnum", DataType.STRING),
                    ("recnum", DataType.STRING),
                    ("date", DataType.DATE),
                    ("region", DataType.STRING),
                ],
                keys=[("call_id",)],
            ),
            TableSchema(
                "package",
                [
                    ("pkg_id", DataType.INT),
                    ("pnum", DataType.STRING),
                    ("pid", DataType.STRING),
                    ("start", DataType.DATE),
                    ("end", DataType.DATE),
                    ("year", DataType.INT),
                ],
                keys=[("pkg_id",)],
            ),
            TableSchema(
                "business",
                [
                    ("pnum", DataType.STRING),
                    ("type", DataType.STRING),
                    ("region", DataType.STRING),
                ],
                keys=[("pnum",)],
            ),
        ],
        name="example1",
    )


def example1_database() -> Database:
    db = Database(example1_schema())
    businesses = [
        ("100", "bank", "east"),
        ("101", "bank", "east"),
        ("102", "shop", "east"),
        ("103", "bank", "west"),
    ]
    packages = [
        (1, "100", "c0", "2016-01-01", "2016-12-31", 2016),
        (2, "101", "c1", "2016-01-01", "2016-12-31", 2016),
        (3, "101", "c0", "2016-05-01", "2016-12-31", 2016),
        (4, "102", "c0", "2016-01-01", "2016-12-31", 2016),
        (5, "103", "c0", "2016-01-01", "2016-03-31", 2016),
        (6, "100", "c0", "2015-01-01", "2015-12-31", 2015),
    ]
    calls = [
        (1, "100", "555", "2016-06-01", "north"),
        (2, "100", "556", "2016-06-01", "south"),
        (3, "101", "557", "2016-06-01", "east"),
        (4, "100", "555", "2016-06-02", "west"),
        (5, "102", "558", "2016-06-01", "east"),
        (6, "103", "559", "2016-06-01", "plains"),
        (7, "100", "555", "2016-06-01", "north"),  # duplicate (recnum, region)
    ]
    for row in businesses:
        db.insert("business", row)
    for row in packages:
        db.insert("package", row)
    for row in calls:
        db.insert("call", row)
    return db


def example1_access_schema() -> AccessSchema:
    return AccessSchema(
        [
            AccessConstraint(
                "call", ["pnum", "date"], ["recnum", "region"], 500, name="psi1"
            ),
            AccessConstraint(
                "package", ["pnum", "year"], ["pid", "start", "end"], 12,
                name="psi2",
            ),
            AccessConstraint(
                "business", ["type", "region"], ["pnum"], 2000, name="psi3"
            ),
        ],
        name="A0",
    )


EXAMPLE2_SQL = """
select call.region
from call, package, business
where business.type = 'bank' and business.region = 'east'
  and business.pnum = call.pnum and call.date = '2016-06-01'
  and call.pnum = package.pnum and package.year = 2016
  and package.start <= '2016-06-01' and package.end >= '2016-06-01'
  and package.pid = 'c0'
"""


def _store_dirs() -> set[Path]:
    return set(Path(tempfile.gettempdir()).glob("beas-store-*"))


@pytest.fixture(autouse=True)
def no_stray_store_dirs():
    """Fail a test that leaves a new ``beas-store-*`` directory behind:
    the temporary store of an mmap engine that was never closed (a later
    run's hygiene check trips over it). An engine nothing refers to any
    more removes its own on collection, so one is forced first."""
    before = _store_dirs()
    yield
    if _store_dirs() - before:
        gc.collect()
        leaked = _store_dirs() - before
        assert not leaked, f"test left store directories behind: {sorted(leaked)}"


@pytest.fixture
def ex1_schema() -> DatabaseSchema:
    return example1_schema()


@pytest.fixture
def ex1_db() -> Database:
    return example1_database()


@pytest.fixture
def ex1_access() -> AccessSchema:
    return example1_access_schema()


@pytest.fixture
def ex1_beas(ex1_db, ex1_access):
    with BEAS(ex1_db, ex1_access) as beas:
        yield beas


def nan_keyed(rows) -> list[tuple]:
    """``rows`` with every NaN cell replaced by ``"nan"``, order kept. A
    NaN never ``==`` itself, so rows holding one compare equal only while
    both sides share the one object — which a pool pipe or a fleet socket
    does not preserve."""
    return [
        tuple("nan" if value != value else value for value in row) for row in rows
    ]


def engine_run(beas: BEAS, sql, **fields):
    """One uncached, statically routed run on ``beas``'s own executor:
    what the differential suites compare engines by, whichever ``BEAS_*``
    defaults a CI leg sets for sessions."""
    fields.setdefault("routing", "static")
    return beas.session().run(sql, use_result_cache=False, **fields)


@pytest.fixture(scope="session")
def tlc_small():
    """One shared TLC instance (scale 1) for integration tests."""
    return generate_tlc(scale=1, seed=42)


@pytest.fixture(scope="session")
def tlc_beas(tlc_small):
    return BEAS(tlc_small.database, tlc_access_schema())
