"""Smoke tests: every shipped example must run to completion.

Run as subprocesses so each example is exercised exactly as a user would
run it (fresh interpreter, its own imports, printing to stdout).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    """Run one example in a fresh interpreter, warnings as errors —
    pytest's own ``filterwarnings`` cannot reach these child
    interpreters."""
    env = dict(os.environ)
    env["PYTHONWARNINGS"] = "error"
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "access bound M = 12026000" in proc.stdout
        assert "host engine agrees" in proc.stdout

    def test_demo_walkthrough(self):
        proc = run_example("demo_walkthrough.py")
        assert proc.returncode == 0, proc.stderr
        assert "(A) BE Checker" in proc.stdout
        assert "(B) bounded plan" in proc.stdout
        assert "answers:" in proc.stdout

    def test_telecom_cdr(self):
        proc = run_example("telecom_cdr.py", "1")
        assert proc.returncode == 0, proc.stderr
        assert "covered: 10/11" in proc.stdout
        assert "performance analysis of Q1" in proc.stdout

    def test_discovery_and_maintenance(self):
        proc = run_example("discovery_and_maintenance.py")
        assert proc.returncode == 0, proc.stderr
        assert "access schema discovery" in proc.stdout
        assert "REJECT policy" in proc.stdout
        assert "drift monitor" in proc.stdout

    def test_approximation_budget(self):
        proc = run_example("approximation_budget.py")
        assert proc.returncode == 0, proc.stderr
        assert "strict mode refuses" in proc.stdout
        assert "guaranteed recall" in proc.stdout

    def test_session_lifecycle(self):
        proc = run_example("session_lifecycle.py")
        assert proc.returncode == 0, proc.stderr
        assert "checker runs for 4 new bindings: 1" in proc.stdout
        assert "decision=rebound" in proc.stdout
        assert "plan rebinds" in proc.stdout

    def test_prepared_serving(self):
        proc = run_example("prepared_serving.py")
        assert proc.returncode == 0, proc.stderr
        assert "served_from_cache=True" in proc.stdout
        assert "packages-of-100 retained (cache hit: True)" in proc.stdout
        assert "serving stats:" in proc.stdout

    def test_columnar_executor(self):
        proc = run_example("columnar_executor.py")
        assert proc.returncode == 0, proc.stderr
        assert "one bounded plan, two executors" in proc.stdout
        assert "accounting are identical across modes" in proc.stdout
        assert "per-query selection through the serving layer" in proc.stdout

    def test_parallel_pool(self):
        proc = run_example("parallel_pool.py")
        assert proc.returncode == 0, proc.stderr
        assert "in-process vs engine pool" in proc.stdout
        assert "accounting are identical" in proc.stdout
        assert "version vector keys the worker snapshots" in proc.stdout
        assert "workers alive" in proc.stdout
        assert "pool closed" in proc.stdout

    def test_adaptive_routing(self):
        proc = run_example("adaptive_routing.py")
        assert proc.returncode == 0, proc.stderr
        assert "learned routing over one serving mix" in proc.stdout
        assert "routing: decisions=12" in proc.stdout
        assert "static override: routed_mode=''" in proc.stdout
        assert (
            "answers identical under learned and static routing"
            in proc.stdout
        )

    def test_async_serving(self):
        proc = run_example("async_serving.py")
        assert proc.returncode == 0, proc.stderr
        assert "concurrent clients" in proc.stdout
        assert "served from cache" in proc.stdout
        assert "per-shard stats" in proc.stdout
        assert "shard call:" in proc.stdout
        assert "maintenance queues:" in proc.stdout
