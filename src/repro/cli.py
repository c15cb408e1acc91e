"""Command-line interface: the demo portal, in terminal form.

The SIGMOD demo exposed BEAS through a web portal (Fig. 2); this CLI
offers the same interactions:

* ``check``    — BE Checker: is a query covered? what is the bound? does a
  budget suffice? (Fig. 2(A))
* ``explain``  — the bounded plan with per-fetch bound annotations, or the
  reasons plus the host plan when not covered (Fig. 2(B))
* ``run``      — execute a query and report mode/metrics (Fig. 2(C))
* ``analyze``  — the Fig.-3 performance panel against the conventional
  engine
* ``discover`` — the offline discovery service: mine an access schema from
  a workload file under a storage budget (Fig. 2(D)), writing JSON
* ``conform``  — verify that the data conforms to an access schema
* ``serve-stats`` — run one query repeatedly through the prepared-query
  serving layer (``repro.serving``) and report per-cache hit/miss/eviction
  counters plus the cold-vs-warm latency split; with ``--threads N`` the
  query is also hammered from N concurrent clients and the per-shard
  lock-wait/contention counters are reported

Databases load from a directory of ``*.csv`` files (the format written by
``repro.storage.dump_csv``: ``name:type`` headers) and/or ``*.sql``
scripts (CREATE TABLE / INSERT). Access schemas load from JSON (see
``repro.access.io``). Run ``python -m repro <command> --help`` for flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.access.io import dump_schema, load_schema
from repro.access.conformance import check_database
from repro.beas.session import ExecutionOptions, Session
from repro.discovery import DiscoveryObjective, discover
from repro.errors import ReproError
from repro.sql.script import run_script
from repro.storage.csvio import load_csv
from repro.storage.database import Database


def _load_database(data_dir: Path) -> Database:
    """Build a database from every .csv and .sql file under ``data_dir``."""
    if not data_dir.is_dir():
        raise ReproError(f"data directory not found: {data_dir}")
    database = Database(name=data_dir.name)
    for sql_path in sorted(data_dir.glob("*.sql")):
        run_script(database, sql_path.read_text())
    for csv_path in sorted(data_dir.glob("*.csv")):
        table = load_csv(csv_path, table_name=csv_path.stem)
        database.add_table(table)
    if not database.table_names:
        raise ReproError(f"no .csv or .sql files in {data_dir}")
    return database


def _build_session(args: argparse.Namespace) -> Session:
    """One Session per CLI invocation (the unified lifecycle)."""
    database = _load_database(Path(args.data))
    schema = load_schema(Path(args.schema)) if args.schema else None
    # the flags are the Session layer: an explicit --executor /
    # --rows-per-batch / --parallelism pins static routing unless
    # --routing is given too (ExecutionOptions' pin rule)
    options = ExecutionOptions(
        executor=getattr(args, "executor", None),
        rows_per_batch=getattr(args, "rows_per_batch", None),
        parallelism=getattr(args, "parallelism", None),
        routing=getattr(args, "routing", None),
        storage=getattr(args, "storage", None),
        storage_dir=getattr(args, "storage_dir", None),
        replicas=getattr(args, "replicas", None),
        fleet_port_base=getattr(args, "fleet_port_base", None),
    )
    return Session(database, schema, options=options)


def _read_query(args: argparse.Namespace) -> str:
    if args.sql:
        return args.sql
    if args.file:
        return Path(args.file).read_text()
    raise ReproError("provide a query via --sql or --file")


# --------------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------------- #
def _cmd_check(args: argparse.Namespace) -> int:
    with _build_session(args) as session:
        decision = session.query(_read_query(args)).decide(budget=args.budget)
        print(decision.coverage.describe())
        return 0 if decision.covered else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    with _build_session(args) as session:
        print(session.explain(_read_query(args)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    with _build_session(args) as session:
        result = session.run(
            _read_query(args),
            budget=args.budget,
            approximate_over_budget=args.approximate,
        )
        print("\t".join(result.columns))
        limit = args.limit if args.limit is not None else len(result.rows)
        for row in result.rows[:limit]:
            print("\t".join("NULL" if v is None else str(v) for v in row))
        if limit < len(result.rows):
            print(f"... ({len(result.rows) - limit} more rows)")
        print(f"-- {result.describe()}", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    with _build_session(args) as session:
        analysis = session.analyze(_read_query(args))
        print(analysis.describe())
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    database = _load_database(Path(args.data))
    workload_text = Path(args.workload).read_text()
    queries = [q.strip() for q in workload_text.split(";") if q.strip()]
    result = discover(
        database,
        queries,
        storage_budget=args.storage_budget,
        objective=DiscoveryObjective(args.objective),
        slack=args.slack,
    )
    print(result.describe())
    if args.output:
        dump_schema(result.schema, Path(args.output))
        print(f"wrote {args.output}")
    return 0


def _cmd_conform(args: argparse.Namespace) -> int:
    database = _load_database(Path(args.data))
    schema = load_schema(Path(args.schema))
    report = check_database(database, schema)
    if report.conforms:
        print(
            f"conforms: {report.checked_constraints} constraints hold "
            f"(largest group: {report.max_group_size})"
        )
        return 0
    print(f"{len(report.violations)} violations:")
    for violation in report.violations[:20]:
        print(f"  {violation}")
    return 1


def _coerce_param_value(text: str, like) -> object:
    """Coerce CLI text to the type of the template's own constant, so
    ``--param pnum=100`` binds the string ``'100'`` when the template
    compares against a string — an int would silently match nothing."""
    try:
        if isinstance(like, bool):
            return text.strip().lower() in ("true", "1", "yes")
        if isinstance(like, int):
            return int(text)
        if isinstance(like, float):
            return float(text)
    except ValueError as error:
        raise ReproError(
            f"parameter value {text!r} does not match the template's "
            f"{type(like).__name__} constant"
        ) from error
    return text


def _parse_params(raw: Optional[Sequence[str]], slots) -> dict:
    """``--param attr=v`` / ``--param attr=v1,v2`` into a bind mapping."""
    from repro.serving.params import resolve_slot_name

    params: dict = {}
    for item in raw or ():
        if "=" not in item:
            raise ReproError(f"--param expects attr=value, got {item!r}")
        key, _, value = item.partition("=")
        slot = slots[resolve_slot_name(key.strip(), slots)]
        like = slot.values[0] if slot.values else ""
        values = [_coerce_param_value(v, like) for v in value.split(",")]
        params[slot.name] = values[0] if len(values) == 1 else values
    return params


def _cmd_lint(args: argparse.Namespace) -> int:
    # lazy import: the analysis package is never needed on the query path
    from pathlib import Path

    from repro.analysis import all_checkers, render_json, render_text, run_lint

    if args.list_rules:
        for rule, checker in sorted(all_checkers().items()):
            print(f"{rule}: {checker.description}")
        return 0
    paths = [Path(p) for p in args.paths] or None
    try:
        report = run_lint(paths, rules=args.rule or None)
    except KeyError as error:
        raise ReproError(error.args[0]) from None
    rendered = render_json(report) if args.format == "json" else render_text(report)
    print(rendered)
    return 0 if report.clean else 1


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    # shuts pool workers down even when the run errors (Session.close)
    with _build_session(args) as session:
        return _serve_stats(args, session)


def _serve_stats(args: argparse.Namespace, session: Session) -> int:
    import threading
    import time

    query = session.query(_read_query(args), name="cli-query")
    params = _parse_params(args.param, query.slots) or None
    if params:
        query = query.bind(params)
    if query.slots:
        print("slots: " + "; ".join(
            query.slots[name].describe() for name in sorted(query.slots)
        ))
    repeats = max(args.repeat, 1)
    latencies: list[float] = []
    cold_result = result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = query.run(budget=args.budget)
        latencies.append(time.perf_counter() - start)
        if cold_result is None:
            cold_result = result
    assert result is not None and cold_result is not None
    print(
        f"{len(result.rows)} rows via {result.mode.value} evaluation; "
        f"last run served_from_cache={result.metrics.served_from_cache}"
    )
    # executor/pool counters of the cold run (cached replays report no
    # execution work): which pipeline answered, how batched, and how
    # much of it ran on engine-pool workers
    metrics = cold_result.metrics
    options = session.options
    executor_mode = "columnar" if metrics.rows_per_batch else options.executor
    line = (
        f"executor: mode={executor_mode} "
        f"rows_per_batch={metrics.rows_per_batch} "
        f"batches={metrics.batches} fetched={metrics.tuples_fetched}"
    )
    if options.parallelism > 1:
        line += (
            f"; pool: workers={metrics.pool_workers} "
            f"dispatched={metrics.pool_batches} "
            f"wait={metrics.pool_wait_seconds * 1000:.2f} ms"
        )
    if options.replicas > 1:
        line += (
            f"; fleet: replica={metrics.replica_id} "
            f"wire={metrics.wire_seconds * 1000:.2f} ms"
        )
    if metrics.routed_mode:
        line += (
            f"; routed={metrics.routed_mode}"
            f"{' (explored)' if metrics.routing_explored else ''}"
        )
    print(line)
    warm = latencies[1:] or latencies
    print(
        f"latency: cold {latencies[0] * 1000:.2f} ms, "
        f"warm median {sorted(warm)[len(warm) // 2] * 1000:.3f} ms "
        f"over {len(warm)} runs"
    )
    if args.threads > 1:
        # hammer the steady-state path from N client threads and report
        # aggregate throughput plus the per-shard contention counters
        barrier = threading.Barrier(args.threads)
        errors: list[Exception] = []

        def client() -> None:
            try:
                barrier.wait()
                for _ in range(repeats):
                    query.run(budget=args.budget)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=client) for _ in range(args.threads)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise ReproError(
                f"{len(errors)} of {args.threads} client threads failed; "
                f"first error: {errors[0]}"
            )
        total = args.threads * repeats
        print(
            f"concurrent: {total} executes across {args.threads} threads "
            f"in {elapsed * 1000:.1f} ms "
            f"({total / max(elapsed, 1e-9):,.0f} ops/s aggregate)"
        )
    print(session.stats().describe())
    return 0


# --------------------------------------------------------------------------- #
def _add_common(parser: argparse.ArgumentParser, *, schema_required: bool) -> None:
    parser.add_argument("--data", required=True, help="directory of .csv/.sql files")
    parser.add_argument(
        "--schema",
        required=schema_required,
        help="access schema JSON (see repro.access.io)",
    )


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sql", help="the query text")
    parser.add_argument("--file", help="file containing the query")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BEAS — bounded evaluation of SQL queries (SIGMOD 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="BE Checker: coverage + bound (+ budget)")
    _add_common(check, schema_required=True)
    _add_query_args(check)
    check.add_argument("--budget", type=int, help="tuple budget (Fig. 2(A))")
    check.set_defaults(handler=_cmd_check)

    explain = sub.add_parser("explain", help="bounded plan / fallback explanation")
    _add_common(explain, schema_required=True)
    _add_query_args(explain)
    explain.set_defaults(handler=_cmd_explain)

    run = sub.add_parser("run", help="execute a query through BEAS")
    _add_common(run, schema_required=True)
    _add_query_args(run)
    run.add_argument("--budget", type=int)
    run.add_argument(
        "--approximate",
        action="store_true",
        help="over budget: bounded approximation instead of an error",
    )
    run.add_argument("--limit", type=int, help="print at most N rows")
    run.set_defaults(handler=_cmd_run)

    analyze = sub.add_parser("analyze", help="Fig.-3 performance panel")
    _add_common(analyze, schema_required=True)
    _add_query_args(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    discover_cmd = sub.add_parser("discover", help="discover an access schema")
    discover_cmd.add_argument("--data", required=True)
    discover_cmd.add_argument(
        "--workload", required=True, help="file of ';'-separated queries"
    )
    discover_cmd.add_argument("--storage-budget", type=int, dest="storage_budget")
    discover_cmd.add_argument(
        "--objective",
        choices=[o.value for o in DiscoveryObjective],
        default=DiscoveryObjective.COVERAGE.value,
    )
    discover_cmd.add_argument("--slack", type=float, default=1.5)
    discover_cmd.add_argument("--output", help="write the schema JSON here")
    discover_cmd.set_defaults(handler=_cmd_discover)

    conform = sub.add_parser("conform", help="check D |= A")
    _add_common(conform, schema_required=True)
    conform.set_defaults(handler=_cmd_conform)

    serve_stats = sub.add_parser(
        "serve-stats",
        help="repeat a query through the serving layer; report cache stats",
    )
    _add_common(serve_stats, schema_required=True)
    _add_query_args(serve_stats)
    serve_stats.add_argument(
        "--repeat", type=int, default=5, help="number of executions (default 5)"
    )
    serve_stats.add_argument("--budget", type=int)
    serve_stats.add_argument(
        "--param",
        action="append",
        help="bind a template slot, e.g. --param call.date=2016-06-02 "
        "(repeatable; comma-separate multiple values for IN)",
    )
    serve_stats.add_argument(
        "--threads",
        type=int,
        default=1,
        help="also hammer the query from N concurrent client threads and "
        "report aggregate throughput + per-shard lock-wait counters",
    )
    serve_stats.add_argument(
        "--executor",
        choices=["row", "columnar"],
        help="bounded execution mode (default: BEAS_EXECUTOR or row)",
    )
    serve_stats.add_argument(
        "--rows-per-batch",
        type=int,
        dest="rows_per_batch",
        help="columnar batch size (default: 4096)",
    )
    serve_stats.add_argument(
        "--parallelism",
        type=int,
        help="bounded-pipeline worker processes (>= 2 enables the engine "
        "pool; default: BEAS_PARALLELISM or in-process)",
    )
    serve_stats.add_argument(
        "--routing",
        choices=["static", "learned"],
        help="executor routing: static (the resolved executor) or learned "
        "(the lowest measured mean per template picks the mode; "
        "default: BEAS_ROUTING or static)",
    )
    serve_stats.add_argument(
        "--storage",
        choices=["memory", "mmap"],
        help="storage engine: memory (process-local) or mmap (a historical "
        "name for the persistent store: manifest + WAL, replayed over the "
        "rebuilt indices on reopen; reports the storage counters in the "
        "stats block; default: BEAS_STORAGE or memory)",
    )
    serve_stats.add_argument(
        "--storage-dir",
        dest="storage_dir",
        help="directory for the mmap storage engine (persists across "
        "invocations; default: BEAS_STORAGE_DIR or a private tempdir)",
    )
    serve_stats.add_argument(
        "--replicas",
        type=int,
        help="serving replicas (>= 2 spawns the socket-connected read "
        "fleet and reports its counters in the stats block; default: "
        "1, in-process)",
    )
    serve_stats.add_argument(
        "--fleet-port-base",
        type=int,
        dest="fleet_port_base",
        help="first replica TCP port on loopback (replica i listens on "
        "port_base + i; default: BEAS_FLEET_PORT_BASE or 7641)",
    )
    serve_stats.set_defaults(handler=_cmd_serve_stats)

    lint = sub.add_parser(
        "lint",
        help="beaslint: run the house static-analysis pass over repro",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files to lint (default: every module of the repro package)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default text)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        help="run only this rule (repeatable; default: all registered rules)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        dest="list_rules",
        help="list registered rules with descriptions and exit",
    )
    lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
