"""Engine profiles standing in for the commercial DBMSs of the evaluation.

The paper compares BEAS against PostgreSQL, MySQL and MariaDB. Those
systems are closed substitutes here: each profile runs
the *same* correct engine but with different physical choices, all of them
honest work (really executed, affecting wall-clock), never fudged timings:

* ``join_algorithm`` — PostgreSQL-profile uses hash joins; the MySQL/
  MariaDB profiles use sort-merge (MySQL only gained hash joins in 8.0.18;
  the paper predates that).
* ``row_overhead`` — extra per-row materialisation work in scans, modelling
  heavier tuple headers / row formats. This is what separates MariaDB from
  MySQL, matching the paper's consistent ordering PG < MariaDB < MySQL.

The profiles preserve the evaluation's *shape*: all three are linear in
``|D|`` with distinct constants, while BEAS is flat.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineProfile:
    """Physical configuration of the conventional engine."""

    name: str
    join_algorithm: str = "hash"  # 'hash' | 'sort_merge' | 'block_nested'
    row_overhead: int = 0  # synthetic per-scanned-row work units
    block_size: int = 1024  # for block-nested-loop joins
    # 'row' interprets every operator tuple-at-a-time; 'columnar' runs the
    # tail operators (aggregate/sort/project/distinct/limit) over
    # per-attribute column batches (engine.columnar). Scans and joins stay
    # row-oriented in either mode.
    executor: str = "row"  # 'row' | 'columnar'
    rows_per_batch: int = 0  # columnar batch size; 0 = engine default
    # Bounded-pipeline worker processes (engine.pool). 0/1 = in-process;
    # >= 2 enables the multiprocessing engine pool for BEAS instances
    # built on this profile. The conventional scan engine itself stays
    # in-process in every configuration.
    parallelism: int = 0
    # Engine-pool fan-out unit ('auto' | 'plan' | 'batch'); participates
    # in the Session option-precedence chain (call > Query > Session >
    # profile > environment) like the other engine knobs.
    parallel_dispatch: str = "auto"

    def __post_init__(self) -> None:
        if self.join_algorithm not in ("hash", "sort_merge", "block_nested"):
            raise ValueError(f"unknown join algorithm {self.join_algorithm!r}")
        if self.row_overhead < 0:
            raise ValueError("row_overhead must be >= 0")
        if self.executor not in ("row", "columnar"):
            raise ValueError(f"unknown executor mode {self.executor!r}")
        if self.rows_per_batch < 0:
            raise ValueError("rows_per_batch must be >= 0")
        if not isinstance(self.parallelism, int) or isinstance(
            self.parallelism, bool
        ):
            raise ValueError("parallelism must be an int")
        if self.parallelism < 0:
            raise ValueError("parallelism must be >= 0")
        if self.parallel_dispatch not in ("auto", "plan", "batch"):
            raise ValueError(
                f"unknown parallel_dispatch {self.parallel_dispatch!r}"
            )


# Overheads are calibrated so the profiles reproduce the paper's consistent
# cost ordering (PostgreSQL < MariaDB < MySQL, roughly 1 : 2.7 : 3.2 at
# 200 GB in Fig. 4) while every profile stays linear in |D|.
POSTGRESQL = EngineProfile(name="postgresql", join_algorithm="hash", row_overhead=0)
MARIADB = EngineProfile(name="mariadb", join_algorithm="sort_merge", row_overhead=3)
MYSQL = EngineProfile(name="mysql", join_algorithm="sort_merge", row_overhead=5)

PROFILES: dict[str, EngineProfile] = {
    profile.name: profile for profile in (POSTGRESQL, MARIADB, MYSQL)
}
