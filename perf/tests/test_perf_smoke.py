"""Smoke test of the benchmark itself (tier-1 collects it; < 10 s).

Timing values are never asserted on: only shape, determinism and hygiene.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import tempfile
from pathlib import Path

import pytest

from perf import compare, config, measure, run
from repro.workloads.tlc import generate_tlc

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(config.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def dataset():
    return generate_tlc(scale=config.QUICK.scale, seed=config.DATA_SEED)


def _leakable() -> dict:
    """Everything a run could leave behind, as comparable sets."""
    fds = set()
    for entry in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{entry}")
        except OSError:
            continue
        if target.startswith("socket:"):
            fds.add(target)
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    stores = {
        name for name in os.listdir(tempfile.gettempdir())
        if name.startswith("beas-store-")
    }
    children = {child.pid for child in multiprocessing.active_children()}
    return {"sockets": fds, "shm": shm, "stores": stores, "children": children}


def _quick(workload: str, out: Path, dataset, trace: int = 0, seed: int = 3) -> dict:
    args = run.parse_args(
        ["--workload", workload, "--seed", str(seed), "--quick", "--trace", str(trace),
         "--out", str(out)]
    )
    return run.run_one(args, dataset)


def test_declaration_is_well_formed(declared):
    assert [w["name"] for w in declared["workloads"]] == list(config.CLOSED_LOOPS)
    assert declared["paths"] == ["perf"]
    assert declared["run_seconds"] == config.FULL.seconds
    for block, catalogue in (
        ("end_to_end", measure.END_TO_END), ("per_layer", measure.PER_LAYER),
    ):
        listed = {m["name"]: m["unit"] for m in declared[block]}
        assert listed == catalogue
        for name, unit in listed.items():
            assert NAME.match(name) and UNIT.match(unit), (name, unit)
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_quick_runs_are_complete_deterministic_and_clean(tmp_path, dataset):
    before = _leakable()
    first, second = tmp_path / "a", tmp_path / "b"
    runs = {}
    for workload in config.WORKLOADS:
        runs[workload] = one = _quick(workload, first, dataset)
        assert one["failed"] == 0, one["failures"]
        assert set(one["metrics"]) >= set(measure.END_TO_END)
        assert all(one["metrics"][name] > 0 for name in measure.END_TO_END)
    # same seed, same op stream, byte for byte; another seed, another stream
    # but the same count: tuples_per_req moves with the program alone
    for workload, seed in (("adhoc_hot", 3), ("herd_open", 4)):
        again = _quick(workload, second, dataset, seed=seed)
        ops = f"{workload}.ops.jsonl"
        same = (first / ops).read_bytes() == (second / ops).read_bytes()
        assert same == (seed == 3)
        assert again["metrics"]["tuples_per_req"] == runs[workload]["metrics"]["tuples_per_req"]
    # a saved file reproduces its run without the seed
    replayed = run.run_one(
        run.parse_args(
            ["--workload", "maint_mix", "--quick", "--out", str(tmp_path / "c"),
             "--from-file", str(first / "maint_mix.ops.jsonl")]
        ),
        dataset,
    )
    assert replayed["failed"] == 0, replayed["failures"]
    assert replayed["ops_file"].endswith("maint_mix.ops.jsonl")
    assert not list(tmp_path.rglob("store-*"))
    assert _leakable() == before


def test_compare_fails_on_what_is_missing_and_survives_a_zero_base(declared):
    metrics = dict.fromkeys(measure.END_TO_END, 1.0)
    base = {"workloads": {"bind_cold": {"end_to_end": dict(metrics, qps=0.0)},
                          "herd_open": {"end_to_end": metrics}}}
    same = {"workloads": {"bind_cold": {"end_to_end": dict(metrics, qps=0.0)},
                          "herd_open": {"end_to_end": metrics}}}
    assert {r["verdict"] for r in compare.verdicts(base, same, declared)} == {"ok"}
    crashed = {"workloads": {"bind_cold": {"end_to_end": dict(metrics, tuples_per_req=2.0)}}}
    found = {
        (r["workload"], r["metric"]): r["verdict"]
        for r in compare.verdicts(base, crashed, declared)
    }
    assert found["herd_open", "lat_p50_us"] == "MISSING"
    assert found["bind_cold", "tuples_per_req"] == "MISMATCH"
    assert found["bind_cold", "qps"] == "ok"  # 0 -> 1, higher is better


def test_traced_quick_run_reports_every_layer_metric(tmp_path, dataset):
    before = _leakable()
    record = _quick("maint_mix", tmp_path, dataset, trace=1)
    assert record["failed"] == 0, record["failures"]
    assert set(record["metrics"]) >= set(measure.PER_LAYER)
    spans = json.loads((tmp_path / "trace_maint_mix.json").read_text())
    assert {"name", "start", "end", "parent", "request"} <= set(spans[0])
    assert any(s["name"].startswith("storage.") for s in spans)
    assert not list(tmp_path.rglob("store-*")) + list(tmp_path.rglob("shadow-*"))
    assert _leakable() == before
