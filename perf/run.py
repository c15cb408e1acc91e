"""The benchmark's one command.

    python3 perf/run.py --workload bind_cold --seed 7 --seconds 12 --trace 0
        one workload, as BENCHMARK.json's driver calls it: prints every
        end-to-end metric by name with its unit (``--trace 1``: every
        per-layer metric), then one JSON object as the last line.

    PYTHONPATH=src python -m perf.run --seed 7 [--trace]
        all four workloads, each in a child process of its own (so that
        peak RSS is per workload), merged into perf/out/result.json.

Other flags: ``--quick`` (scale 3, sub-second slices: the smoke test's
mode), ``--from-file X.ops.jsonl`` (replay a saved op stream instead of
generating one from the seed), ``--out DIR`` (where the files go).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _entry in (_ROOT / "src", _ROOT):  # runnable as a plain script, too
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from perf import config, harness, measure, workloads  # noqa: E402
from perf.hostref import clock  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--from-file", type=Path)
    parser.add_argument("--out", type=Path, default=config.OUT_DIR)
    args = parser.parse_args(argv)
    if args.from_file and not args.workload:
        parser.error("--from-file replays one workload: give --workload too")
    return args


def run_one(args: argparse.Namespace, dataset=None) -> dict:
    """One workload in this process: the full record for its result file."""
    from repro.workloads.tlc import generate_tlc

    sizes = config.QUICK if args.quick else config.FULL
    seconds = args.seconds or sizes.seconds
    if args.trace:
        # the traced run spends --seconds on three things: an untraced run
        # for the stats deltas, the replay, and the off-path route probes
        seconds *= config.TRACE_RUN_SHARE
    generate_s = 0.0
    if dataset is None:
        start = clock()
        dataset = generate_tlc(scale=sizes.scale, seed=config.DATA_SEED)
        generate_s = clock() - start
    steps = workloads.herd_steps(seconds)
    if args.from_file:
        ops = workloads.load_ops(args.from_file)
    else:
        ops = workloads.generate(
            args.workload, dataset, args.seed, sizes.stream_ops[args.workload], steps
        )
        if not args.trace:  # the traced run's shorter open-loop schedule
            workloads.save_ops(args.out / f"{args.workload}.ops.jsonl", ops)
    bench = harness.Workload(
        args.workload, dataset, ops, args.seed, seconds, sizes, args.out, steps
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "ops_file": str(args.from_file) if args.from_file else None,
        "host": harness.host_facts(),
        "scale": sizes.scale,
        "rows": dataset.total_rows,
    }
    if args.trace:
        from perf import trace

        record.update(trace.run(bench, generate_s))
    else:
        record.update(bench.run())
    return record


def contract_line(record: dict, trace: bool) -> str:
    """The last line the driver reads: exactly correct/attempted/failed/
    metrics, the metrics being BENCHMARK.json's list for this mode."""
    catalogue = measure.PER_LAYER if trace else measure.END_TO_END
    metrics = {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, unit in catalogue.items()
    }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_metrics(record: dict, trace: bool) -> None:
    catalogue = measure.PER_LAYER if trace else measure.END_TO_END
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['seconds']:g} s, {'traced' if trace else 'untraced'})")
    for name, unit in catalogue.items():
        print(f"{name:34s} {record['metrics'][name]:>16.4f} {unit}")
    if not trace:  # reported by every run, bounded by none (see README)
        for name in ("lat_p95_us", "lat_p99_us"):
            print(f"{name:34s} {record['metrics'][name]:>16.4f} us")
    print(f"{'fail_share':34s} {record['failed'] / record['attempted']:>16.6f} share"
          f"   ({record['failed']} of {record['attempted']}: {record['failures']})")


def main_one(args: argparse.Namespace) -> int:
    record = run_one(args)
    suffix = "layers" if args.trace else "result"
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / f"{args.workload}.{suffix}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print_metrics(record, bool(args.trace))
    print(contract_line(record, bool(args.trace)))
    return 0 if record["failed"] == 0 else 1


def main_all(args: argparse.Namespace) -> int:
    """Every workload in a child process; merge their result files."""
    merged = {"seed": args.seed, "workloads": {}}
    status = 0
    for traced in ([0, 1] if args.trace else [0]):
        for name in config.WORKLOADS:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(traced), "--out", str(args.out),
            ]
            if args.seconds:
                command += ["--seconds", str(args.seconds)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            status = status or done.returncode
            suffix = "layers" if traced else "result"
            path = args.out / f"{name}.{suffix}.json"
            if done.returncode in (0, 1) and path.exists():
                with open(path) as handle:
                    record = json.load(handle)
                slot = merged["workloads"].setdefault(name, {})
                merged["host"] = record["host"]
                if traced:
                    slot["per_layer"] = record["metrics"]
                    slot["layer_report"] = record.get("layer_report")
                else:
                    slot["end_to_end"] = {
                        key: record["metrics"][key] for key in measure.END_TO_END
                    }
                    slot["spread"] = record["spread"]
                    slot["detail"] = record
    with open(args.out / "result.json", "w") as handle:
        json.dump(merged, handle, indent=1)
    print(f"wrote {args.out / 'result.json'}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload:
        return main_one(args)
    return main_all(args)


if __name__ == "__main__":
    sys.exit(main())
