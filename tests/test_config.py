"""repro.config: the one place every BEAS_* environment variable is read.

Replaces the three ad-hoc ``os.environ`` parses (executor mode, batch
size, pool parallelism) plus the fuzz-seed and pool-start-method reads;
every malformed value must fail construction with a clear
:class:`~repro.errors.BEASError`.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import EnvConfig, load_env_config
from repro import config
from repro.errors import BEASError


class TestValidators:
    def test_executor(self):
        assert config.validate_executor("row") == "row"
        assert config.validate_executor("columnar") == "columnar"
        with pytest.raises(BEASError, match="executor"):
            config.validate_executor("simd")

    def test_rows_per_batch(self):
        assert config.validate_rows_per_batch(1) == 1
        for bad in (0, -1, True, "64", 2.5):
            with pytest.raises(BEASError):
                config.validate_rows_per_batch(bad)

    def test_parallelism(self):
        assert config.validate_parallelism(4) == 4
        for bad in (0, False, "2"):
            with pytest.raises(BEASError):
                config.validate_parallelism(bad)

    def test_result_reuse(self):
        for mode in ("exact", "subsume"):
            assert config.validate_result_reuse(mode) == mode
        with pytest.raises(BEASError, match="result_reuse"):
            config.validate_result_reuse("fuzzy")

    def test_routing(self):
        for mode in ("static", "learned"):
            assert config.validate_routing(mode) == mode
        with pytest.raises(BEASError, match="routing"):
            config.validate_routing("oracle")

    def test_routing_epsilon(self):
        assert config.validate_routing_epsilon(0.0) == 0.0
        assert config.validate_routing_epsilon(1.0) == 1.0
        assert config.validate_routing_epsilon(0.25) == 0.25
        for bad in (-0.1, 1.5, True, "0.1", None):
            with pytest.raises(BEASError):
                config.validate_routing_epsilon(bad)

    def test_storage(self):
        for mode in ("memory", "mmap"):
            assert config.validate_storage(mode) == mode
        with pytest.raises(BEASError, match="storage"):
            config.validate_storage("disk")

    def test_storage_dir(self, tmp_path):
        assert config.validate_storage_dir("/var/beas") == "/var/beas"
        # PathLike values normalise to their string form
        assert config.validate_storage_dir(tmp_path) == str(tmp_path)
        for bad in ("", None, 7, True):
            with pytest.raises(BEASError, match="storage_dir"):
                config.validate_storage_dir(bad)


class TestEnvironmentReaders:
    def test_unset_is_none(self, monkeypatch):
        for name in (
            "BEAS_EXECUTOR",
            "BEAS_ROWS_PER_BATCH",
            "BEAS_PARALLELISM",
            "BEAS_POOL_START_METHOD",
            "BEAS_RESULT_REUSE",
            "BEAS_ROUTING",
            "BEAS_ROUTING_EPSILON",
            "BEAS_STORAGE",
            "BEAS_STORAGE_DIR",
        ):
            monkeypatch.delenv(name, raising=False)
        assert config.env_executor() is None
        assert config.env_rows_per_batch() is None
        assert config.env_parallelism() is None
        assert config.env_pool_start_method() is None
        assert config.env_result_reuse() is None
        assert config.env_routing() is None
        assert config.env_routing_epsilon() is None
        assert config.env_storage() is None
        assert config.env_storage_dir() is None

    def test_values_round_trip(self, monkeypatch):
        monkeypatch.setenv("BEAS_EXECUTOR", "columnar")
        monkeypatch.setenv("BEAS_ROWS_PER_BATCH", "512")
        monkeypatch.setenv("BEAS_PARALLELISM", "3")
        assert config.env_executor() == "columnar"
        assert config.env_rows_per_batch() == 512
        assert config.env_parallelism() == 3

    @pytest.mark.parametrize(
        "name, value, match",
        [
            ("BEAS_EXECUTOR", "simd", "BEAS_EXECUTOR"),
            ("BEAS_ROWS_PER_BATCH", "lots", "integer"),
            ("BEAS_ROWS_PER_BATCH", "0", ">= 1"),
            ("BEAS_PARALLELISM", "two", "integer"),
            ("BEAS_PARALLELISM", "-1", ">= 1"),
            ("BEAS_POOL_START_METHOD", "teleport", "BEAS_POOL_START_METHOD"),
            ("BEAS_RESULT_REUSE", "fuzzy", "BEAS_RESULT_REUSE"),
            ("BEAS_ROUTING", "oracle", "BEAS_ROUTING"),
            ("BEAS_ROUTING_EPSILON", "greedy", "float"),
            ("BEAS_ROUTING_EPSILON", "1.5", r"\[0, 1\]"),
            ("BEAS_ROUTING_EPSILON", "-0.1", r"\[0, 1\]"),
            ("BEAS_FUZZ_SEEDS", "many", "integer"),
            ("BEAS_FUZZ_SEEDS", "0", ">= 1"),
            ("BEAS_STORAGE", "disk", "BEAS_STORAGE"),
        ],
    )
    def test_malformed_values_raise_at_construction(
        self, monkeypatch, name, value, match
    ):
        monkeypatch.setenv(name, value)
        with pytest.raises(BEASError, match=match):
            load_env_config()

    def test_fuzz_seeds_default(self, monkeypatch):
        monkeypatch.delenv("BEAS_FUZZ_SEEDS", raising=False)
        assert config.env_fuzz_seeds(8) == 8
        monkeypatch.setenv("BEAS_FUZZ_SEEDS", "30")
        assert config.env_fuzz_seeds(8) == 30

    def test_pool_start_method_accepts_available(self, monkeypatch):
        method = multiprocessing.get_all_start_methods()[0]
        monkeypatch.setenv("BEAS_POOL_START_METHOD", method)
        assert config.env_pool_start_method() == method

    def test_result_reuse_round_trip(self, monkeypatch):
        monkeypatch.setenv("BEAS_RESULT_REUSE", "subsume")
        assert config.env_result_reuse() == "subsume"
        monkeypatch.setenv("BEAS_RESULT_REUSE", "exact")
        assert config.env_result_reuse() == "exact"

    def test_storage_round_trip(self, monkeypatch):
        monkeypatch.setenv("BEAS_STORAGE", "mmap")
        monkeypatch.setenv("BEAS_STORAGE_DIR", "/var/beas")
        assert config.env_storage() == "mmap"
        assert config.env_storage_dir() == "/var/beas"
        monkeypatch.delenv("BEAS_STORAGE")
        monkeypatch.delenv("BEAS_STORAGE_DIR")
        assert config.env_storage() is None
        assert config.env_storage_dir() is None

    def test_routing_round_trip(self, monkeypatch):
        monkeypatch.setenv("BEAS_ROUTING", "learned")
        assert config.env_routing() == "learned"
        monkeypatch.setenv("BEAS_ROUTING", "static")
        assert config.env_routing() == "static"
        monkeypatch.setenv("BEAS_ROUTING_EPSILON", "0.35")
        assert config.env_routing_epsilon() == 0.35
        monkeypatch.setenv("BEAS_ROUTING_EPSILON", "0")
        assert config.env_routing_epsilon() == 0.0


class TestEnvConfig:
    def test_load_snapshot(self, monkeypatch):
        monkeypatch.setenv("BEAS_EXECUTOR", "columnar")
        monkeypatch.setenv("BEAS_PARALLELISM", "2")
        monkeypatch.delenv("BEAS_ROWS_PER_BATCH", raising=False)
        monkeypatch.delenv("BEAS_POOL_START_METHOD", raising=False)
        monkeypatch.delenv("BEAS_RESULT_REUSE", raising=False)
        monkeypatch.delenv("BEAS_FUZZ_SEEDS", raising=False)
        monkeypatch.setenv("BEAS_ROUTING", "learned")
        monkeypatch.delenv("BEAS_ROUTING_EPSILON", raising=False)
        monkeypatch.delenv("BEAS_STORAGE", raising=False)
        monkeypatch.delenv("BEAS_STORAGE_DIR", raising=False)
        snapshot = load_env_config()
        assert snapshot == EnvConfig(
            executor="columnar", parallelism=2, routing="learned", fuzz_seeds=8
        )
        text = snapshot.describe()
        assert "BEAS_EXECUTOR=columnar" in text
        assert "BEAS_ROWS_PER_BATCH=(unset)" in text
        assert "BEAS_ROUTING=learned" in text
        assert "BEAS_ROUTING_EPSILON=(unset)" in text

    def test_engine_resolvers_delegate(self, monkeypatch):
        """The historical resolver entry points must honour the central
        validation (BEASError, not ad-hoc messages)."""
        from repro.engine.columnar import (
            resolve_executor_mode,
            resolve_rows_per_batch,
        )
        from repro.engine.pool import resolve_parallelism

        monkeypatch.setenv("BEAS_EXECUTOR", "warp")
        with pytest.raises(BEASError):
            resolve_executor_mode(None)
        monkeypatch.setenv("BEAS_ROWS_PER_BATCH", "nan")
        with pytest.raises(BEASError):
            resolve_rows_per_batch(None)
        monkeypatch.setenv("BEAS_PARALLELISM", "-2")
        with pytest.raises(BEASError):
            resolve_parallelism(None)

    def test_beas_construction_reads_the_environment(self, monkeypatch):
        from repro import BEAS
        from tests.conftest import example1_database

        monkeypatch.setenv("BEAS_ROWS_PER_BATCH", "nope")
        with pytest.raises(BEASError, match="BEAS_ROWS_PER_BATCH"):
            BEAS(example1_database())
