"""Set one workload up, run it untraced, check its answers.

Everything here goes through the public ``repro.Session`` API at default
``ExecutionOptions`` (``maint_mix`` adds ``storage="mmap"``); nothing is
patched, subclassed or reached into.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro import Database, ExecutionOptions, Session
from repro.workloads.tlc import TLCDataset, tlc_access_schema

from perf import config, hostref, loadgen, measure, verify, workloads
from perf.hostref import clock
from perf.workloads import Op

#: workloads without writes of their own, whose write_p50_us comes from
#: a write probe interleaved with the timed slices
WRITE_PROBED = ("bind_cold", "adhoc_hot")
REVERIFY_READS = 10  # of the verified sample, run again after the reopen


def host_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "switch_interval_s": sys.getswitchinterval(),
    }


def clone_database(database: Database) -> Database:
    """A copy whose tables can be mutated without touching the generated
    dataset (rows are immutable tuples, so the lists are enough)."""
    copy = Database(database.schema, name=database.name)
    for table in database:
        twin = copy.table(table.schema.name)
        twin.rows = list(table.rows)
        twin.version = table.version
    return copy


def open_session(workload: str, database: Database, store_dir: Optional[Path]) -> Session:
    options = None
    if workload == "maint_mix":
        options = ExecutionOptions(storage="mmap", storage_dir=str(store_dir))
    return Session(database, tlc_access_schema(), options=options)


@dataclass
class Rig:
    """One finished set-up: a warm session and the loop that will drive it."""

    session: Session
    loop: object  # ClosedLoop, or OpenLoop for herd_open
    store_dir: Optional[Path]
    seconds: float  # what the set-up took, at nominal host speed
    raw_seconds: float


class Workload:
    """One workload of one run: its op stream, set-up, timed phase, checks."""

    def __init__(
        self,
        name: str,
        dataset: TLCDataset,
        ops: Sequence[Op],
        seed: int,
        seconds: float,
        sizes: config.Sizes,
        out_dir: Path,
        steps: Sequence[tuple[float, float, float]],
    ):
        self.name = name
        self.dataset = dataset
        self.ops = ops
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.sizes = sizes
        self.templates = workloads.templates(dataset.params)
        self.warmup_ops = sizes.warmup_ops[name]
        self.steps = steps  # the open loop's ladder

    # ------------------------------------------------------------------ #
    def _place(self) -> tuple[Database, Optional[Path]]:
        """What a session of this workload is built over: a private copy of
        the data and, on maint_mix, a store directory of its own."""
        store_dir = None
        if self.name == "maint_mix":
            self.out_dir.mkdir(parents=True, exist_ok=True)
            store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.out_dir))
        return clone_database(self.dataset.database), store_dir

    def set_up(self) -> Rig:
        """Session construction + template preparation + warm-up, timed.
        Data generation and the copy of the dataset are not part of it,
        nor are the host-speed readings before and after."""
        database, store_dir = self._place()
        speed = hostref.read_speed()
        start = clock()
        session = open_session(self.name, database, store_dir)
        handles = loadgen.prepare(session, self.templates)
        if self.name == "herd_open":
            warm = loadgen.ClosedLoop(
                session, loadgen.compile_ops(handles, self.ops[: self.warmup_ops])
            )
            warm.warm_up(self.warmup_ops)
            scheduled = loadgen.compile_ops(
                loadgen.prepare_async(session, self.templates),
                self.ops[self.warmup_ops:],
            )
            loop = loadgen.OpenLoop(session, scheduled, self.steps)
            # the warm-up's ops and checks count towards attempted / failed
            loop.tally.executed = warm.tally.executed
            loop.tally.errors = warm.tally.errors
            loop.tally.bound_violations = warm.tally.bound_violations
        else:
            loop = loadgen.ClosedLoop(session, loadgen.compile_ops(handles, self.ops))
            loop.warm_up(self.warmup_ops)
        elapsed = clock() - start
        speed = (speed + hostref.read_speed()) / 2
        return Rig(session, loop, store_dir, elapsed * speed, elapsed)

    def tear_down(self, rig: Rig) -> None:
        rig.session.close()
        if rig.store_dir is not None:
            shutil.rmtree(rig.store_dir, ignore_errors=True)

    def set_up_repeated(self) -> tuple[Rig, list[float], list[float]]:
        """``sizes.setup_repeats`` identical set-ups. Each is torn down and
        released as soon as it is timed, except the last, which the run
        goes on with. Returns it, the scaled and the raw set-up times."""
        seconds, raw = [], []
        rig = None
        for _ in range(self.sizes.setup_repeats):
            if rig is not None:
                self.tear_down(rig)
                rig = None
                gc.collect()
            rig = self.set_up()
            seconds.append(rig.seconds)
            raw.append(rig.raw_seconds)
        return rig, seconds, raw

    def count_tuples(self) -> loadgen.Tally:
        """Run the COUNT_SEED stream of this workload, one client, on a
        fresh session: the reads and tuples ``tuples_per_req`` is made of.
        Nothing in it depends on ``--seed`` or on timing."""
        ops = workloads.generate(
            self.name, self.dataset, config.COUNT_SEED, self.sizes.count_ops[self.name]
        )
        database, store_dir = self._place()
        session = open_session(self.name, database, store_dir)
        try:
            handles = loadgen.prepare(session, self.templates)
            loop = loadgen.ClosedLoop(session, loadgen.compile_ops(handles, ops))
            loop.warm_up(len(ops))
        finally:
            session.close()
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)
        return loop.tally

    # ------------------------------------------------------------------ #
    def timed_phase(self, rig: Rig, write_probe: bool = True) -> None:
        if self.name == "herd_open":
            rig.loop.run()
            return
        slices = max(1, round(self.seconds / self.sizes.slice_seconds))
        probe = []
        if write_probe and self.name in WRITE_PROBED:
            probe = self._write_probe(slices * self.sizes.write_probe_batches)
        rig.loop.timed_slices(self.seconds, slices, probe)

    def _write_probe(self, batches: int) -> list[tuple]:
        """Maintenance batches for a workload without writes, so that
        ``write_p50_us`` — one flat metric list serves all four workloads —
        exists there too. They go to the light table, a few after each
        timed slice: on adhoc_hot that costs the two templates that read
        it two misses per hot key and slice, under 0.2 % of its reads."""
        stream = workloads.WriteStream(
            self.dataset,
            random.Random(f"probe:{self.seed}"),
            config.LIGHT_WRITE_TABLES,
            first_id=config.PROBE_ID_BASE,
        )
        return loadgen.compile_ops({}, [stream.next() + (None,) for _ in range(batches)])

    def check(self, rig: Rig) -> dict:
        """Post-run correctness: sampled answers against the conventional
        engine; on maint_mix also close -> reopen from the store ->
        every acknowledged write visible -> the sample again."""
        sample = verify.sample_reads(
            self.ops, f"{self.name}:{self.seed}", self.sizes.verify_reads
        )
        found = {
            "verified_reads": len(sample),
            "wrong_answers": verify.wrong_answers(rig.session, self.templates, sample),
        }
        if self.name == "maint_mix":
            acknowledged = rig.session.database
            rig.session.close()
            reopened = open_session(
                self.name, clone_database(self.dataset.database), rig.store_dir
            )
            try:
                storage = reopened.stats().storage
                found["warm_restart"] = bool(storage and storage.warm_start)
                found["lost_writes"] = verify.lost_writes(
                    reopened.database, acknowledged, config.WRITE_TABLES
                ) + (0 if found["warm_restart"] else 1)
                again = sample[:REVERIFY_READS]
                found["verified_reads"] += len(again)
                found["wrong_answers"] += verify.wrong_answers(
                    reopened, self.templates, again
                )
            finally:
                reopened.close()
        return found

    # ------------------------------------------------------------------ #
    def run(self) -> dict:
        """Count pass, set-ups, timed phase, checks: the untraced
        end-to-end record."""
        # the generated data and op stream are the harness's, not the
        # program's: the memory metric starts after them
        rss_before = measure.rss_mb()
        counted = self.count_tuples()
        rig, setup_runs, setup_raw = self.set_up_repeated()
        try:
            self.timed_phase(rig)
            # read before the checks: their oracle's joins are not the program's
            peak_rss = measure.peak_rss_mb()
            found = self.check(rig)
        finally:
            self.tear_down(rig)
        tally = rig.loop.tally
        if self.name == "herd_open":
            record = measure.open_loop(tally, self.steps, self.sizes.slice_seconds)
        else:
            record = measure.closed_loop(tally)
        attempted = (
            tally.executed + tally.errors + counted.executed + found["verified_reads"]
        )
        failures = {
            "errors": tally.errors + counted.errors,
            "bound_violations": tally.bound_violations + counted.bound_violations,
            "short_writes": tally.short_writes + counted.short_writes,
            **found,
        }
        failed = sum(
            failures.get(key, 0)
            for key in ("errors", "bound_violations", "short_writes", "wrong_answers",
                        "lost_writes")
        )
        metrics = record["metrics"]
        metrics["setup_s"] = statistics.median(setup_runs)
        record["raw"]["setup_s"] = statistics.median(setup_raw)
        metrics["tuples_per_req"] = counted.tuples / counted.reads
        metrics["ok_share"] = 1.0 - failed / attempted
        metrics["peak_rss_mb"] = peak_rss - rss_before
        record["samples"]["counted_reads"] = counted.reads
        record.update(
            attempted=attempted,
            failed=failed,
            failures=failures,
            setup_runs_s=setup_raw,
            rss_before_mb=rss_before,
        )
        return record
