"""Shared infrastructure for the benchmark harness.

Each bench file regenerates one table/figure of the paper (its docstring
says which). Datasets and BEAS instances are cached per scale so the
Fig.-4 sweep pays generation once, and every bench writes a plain-text
report with the paper-style rows to ``bench_results/``.
"""

from __future__ import annotations

from pathlib import Path

from repro import BEAS
from repro.bench import cached_tlc
from repro.workloads.tlc import TLCDataset, tlc_access_schema

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"

_beas_cache: dict[int, BEAS] = {}


def dataset(scale: int) -> TLCDataset:
    return cached_tlc(scale)


def beas_for(scale: int) -> BEAS:
    """BEAS over the cached TLC instance at ``scale`` (indices built once)."""
    if scale not in _beas_cache:
        _beas_cache[scale] = BEAS(dataset(scale).database, tlc_access_schema())
    return _beas_cache[scale]


def write_report(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark's timer (heavy
    workloads must not be re-run by calibration)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def few(benchmark, fn, rounds: int = 5):
    """Run ``fn`` a few rounds (cheap, low-variance measurements)."""
    return benchmark.pedantic(fn, rounds=rounds, iterations=1, warmup_rounds=1)
