"""A bulk build and the cycle collector (repro.storage.heap).

An index build runs with the collector paused and freezes what it
built; the collector's state is restored on every way out, nested and
racing builds included, and closing the last open engine hands the
frozen heap back to the collector.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import pytest

from repro import AccessConstraint, BEAS, Session
from repro.catalog.schema import TableSchema
from repro.catalog.types import DataType
from repro.errors import ConformanceError
from repro.storage.heap import bulk_build
from repro.storage.table import Table
from repro.workloads.tlc import generate_tlc, tlc_access_schema

from tests.conftest import example1_access_schema, example1_database


@pytest.fixture(params=["enabled", "disabled"])
def collector(request):
    """The collector's state on entry (``True`` when running), restored
    after the test whatever it was before."""
    before = gc.isenabled()
    running = request.param == "enabled"
    (gc.enable if running else gc.disable)()
    yield running
    (gc.enable if before else gc.disable)()


class _Cycle:
    """An object that refers to itself: only the collector frees it."""

    def __init__(self) -> None:
        self.me = self


def test_a_build_pauses_the_collector_and_freezes_what_it_built():
    with bulk_build:
        assert not gc.isenabled()
        built = [{"bucket": [1, 2]} for _ in range(100)]
    assert gc.isenabled()
    assert gc.get_freeze_count() >= len(built)


def test_a_refused_register_restores_the_collector(collector):
    with BEAS(example1_database(), example1_access_schema()) as beas:
        with pytest.raises(ConformanceError):
            beas.register(
                AccessConstraint("call", ["pnum"], ["recnum"], 1, name="tight")
            )
        assert gc.isenabled() is collector
        assert "tight" not in beas.catalog.schema


def test_nested_builds_restore_the_collector_at_the_outermost_exit(collector):
    with bulk_build:
        with bulk_build:
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            with bulk_build:
                raise RuntimeError("a build that fails")
        assert not gc.isenabled()
    assert gc.isenabled() is collector


def test_racing_key_index_builds_restore_the_collector(collector):
    table = Table(
        TableSchema("t", [("k", DataType.INT), ("v", DataType.STRING)])
    )
    table.extend([(i % 97, str(i)) for i in range(20_000)])
    start = threading.Barrier(4)
    built, failed = [], []

    def build() -> None:
        try:
            start.wait()
            for _ in range(5):
                built.append(table.build_key_index((0,)))
        except BaseException as error:  # pragma: no cover - reported below
            failed.append(error)

    threads = [threading.Thread(target=build) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failed
    assert gc.isenabled() is collector
    assert len(built) == 20 and all(index == built[0] for index in built)
    assert table.key_index((0,)) == built[0]


def test_fresh_garbage_is_collected_not_frozen(collector):
    cycle = _Cycle()
    dropped = weakref.ref(cycle)
    del cycle
    session = Session(example1_database(), example1_access_schema())
    assert dropped() is None
    assert gc.isenabled() is collector
    session.close()


def test_a_cycle_alive_at_a_build_is_collected_once_the_session_closes():
    gc.collect()
    cycle = _Cycle()
    alive = weakref.ref(cycle)
    session = Session(example1_database(), example1_access_schema())
    del cycle
    gc.collect()
    assert alive() is not None  # frozen with the indices: out of reach
    session.close()
    gc.collect()
    assert alive() is None


def test_the_freeze_count_returns_to_its_baseline_after_each_close():
    gc.unfreeze()
    baseline = gc.get_freeze_count()
    for _ in range(3):
        session = Session(example1_database(), example1_access_schema())
        assert gc.get_freeze_count() > baseline
        session.close()
        assert gc.get_freeze_count() == baseline


def _full_collect_ms() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        gc.collect()
        best = min(best, time.perf_counter() - start)
    return best * 1000


def test_closing_one_engine_leaves_the_other_engines_heap_frozen():
    gc.unfreeze()
    baseline = gc.get_freeze_count()
    dataset = generate_tlc(5, 42)
    with Session(dataset.database, tlc_access_schema()):
        beside = Session(example1_database(), example1_access_schema())
        beside.close()
        assert gc.get_freeze_count() > baseline
        assert _full_collect_ms() < 5
    assert gc.get_freeze_count() == baseline


def test_an_engine_dropped_unclosed_does_not_pin_the_freeze():
    gc.unfreeze()
    baseline = gc.get_freeze_count()
    kept = Session(example1_database(), example1_access_schema())
    dropped = Session(example1_database(), example1_access_schema())
    engine = weakref.ref(dropped.beas)
    del dropped
    assert engine() is None  # freed by reference counting, never closed
    assert gc.get_freeze_count() > baseline
    kept.close()
    assert gc.get_freeze_count() == baseline


def test_an_engine_closed_twice_counts_closed_once():
    gc.unfreeze()
    baseline = gc.get_freeze_count()
    first = BEAS(example1_database(), example1_access_schema())
    second = BEAS(example1_database(), example1_access_schema())
    first.close()
    first.close()
    assert gc.get_freeze_count() > baseline
    second.close()
    assert gc.get_freeze_count() == baseline
