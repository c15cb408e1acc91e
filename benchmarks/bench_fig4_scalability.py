"""E2 — Fig. 4: scalability of Q when TLC grows from 1 GB to 200 GB.

Paper series (seconds) at sizes 1/10/50/100/200 GB:
    BEAS       0.1   0.4    0.7    0.9    1.1      (~flat)
    PostgreSQL 8.8   91.5   459.7  933.6  1932.5   (linear)
    MariaDB    22.4  244.0  1277.7 2578.3 5243.8   (linear)
    MySQL      28.8  313.3  1542.6 3069.8 6187.6   (linear)

Reproduced shape: BEAS stays ~flat ("scale-independent") while every
comparator profile grows ~linearly with scale; the PG < MariaDB < MySQL
ordering holds. Scale ``k`` stands for "k GB" (row counts linear in k).
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_table
from repro.engine.profiles import MARIADB, MYSQL, POSTGRESQL
from repro.workloads.tlc import query_by_name

from benchmarks.conftest import beas_for, dataset, few, once, write_report

SCALES = (1, 10, 50, 100, 200)
_PROFILES = {"postgresql": POSTGRESQL, "mysql": MYSQL, "mariadb": MARIADB}

_times: dict[tuple[str, int], float] = {}


def _note(key: tuple[str, int], seconds: float) -> None:
    previous = _times.get(key)
    _times[key] = seconds if previous is None else min(previous, seconds)


def _sql(scale: int) -> str:
    return query_by_name(dataset(scale).params, "Q1").sql


@pytest.mark.parametrize("scale", SCALES)
def test_fig4_beas(benchmark, scale):
    session = beas_for(scale).session()
    sql = _sql(scale)

    def run():
        t0 = time.perf_counter()
        result = session.run(sql, use_result_cache=False)
        _note(("beas", scale), time.perf_counter() - t0)
        return result

    result = few(benchmark, run, rounds=5)
    assert result.metrics.tuples_scanned == 0
    benchmark.extra_info["scale"] = scale


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("profile_name", sorted(_PROFILES))
def test_fig4_conventional(benchmark, profile_name, scale):
    engine = beas_for(scale).host_engine(_PROFILES[profile_name])
    engine.statistics()  # offline ANALYZE: not part of query time
    sql = _sql(scale)

    def run():
        t0 = time.perf_counter()
        result = engine.execute(sql)
        _note((profile_name, scale), time.perf_counter() - t0)
        return result

    result = few(benchmark, run, rounds=3)
    # same answers as BEAS at the same scale (set semantics)
    bounded = beas_for(scale).session().run(sql, use_result_cache=False)
    assert set(result.rows) == set(bounded.rows)
    benchmark.extra_info["scale"] = scale


def test_fig4_report(benchmark):
    once(benchmark, lambda: None)
    headers = ["engine"] + [f"{s} GB" for s in SCALES]
    rows = []
    for engine in ("beas", "postgresql", "mariadb", "mysql"):
        rows.append(
            [engine]
            + [f"{_times[(engine, s)] * 1000:.1f} ms" for s in SCALES]
        )
    report = "\n".join(
        [
            "Fig. 4 — scalability of Q (Example 2), TLC 1 GB..200 GB",
            "paper: BEAS ~1 s flat; PG 8.8 -> 1932.5 s; MariaDB 22.4 -> 5243.8 s; "
            "MySQL 28.8 -> 6187.6 s",
            "",
            format_table(headers, rows),
        ]
    )
    write_report("fig4_scalability.txt", report)

    # shape assertions (generous margins; absolute numbers are not the claim)
    beas_series = [_times[("beas", s)] for s in SCALES]
    assert max(beas_series) / max(min(beas_series), 1e-9) < 20, (
        "BEAS should be ~scale-independent"
    )
    for profile_name in _PROFILES:
        small = _times[(profile_name, 1)]
        large = _times[(profile_name, 200)]
        assert large > 20 * small, (
            f"{profile_name} should grow ~linearly with scale"
        )
        # BEAS wins by a wide margin at the largest scale
        assert large > 10 * _times[("beas", 200)]
