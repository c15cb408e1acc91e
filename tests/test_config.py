"""repro.config: the one place a setting's variable, validator and default live.

``ExecutionOptions.from_environment`` reads the six option variables and
``env_fuzz_seeds`` the test harness's; every malformed value must fail
``BEAS(...)`` and ``Session(...)`` construction with a
:class:`~repro.errors.BEASError` naming the variable, and no component
reads the environment on its own.
"""

from __future__ import annotations

import pytest

from repro import BEAS, BoundedPlanExecutor, ExecutionOptions, Session
from repro import config
from repro.distributed.peerset import PeerSet
from repro.engine.router import ExecutorRouter
from repro.errors import BEASError

from tests.conftest import example1_database

OPTION_VARIABLES = (
    "BEAS_EXECUTOR",
    "BEAS_PARALLELISM",
    "BEAS_ROUTING",
    "BEAS_STORAGE",
    "BEAS_STORAGE_DIR",
    "BEAS_FLEET_PORT_BASE",
)

#: the variables that became constants, by their suffix after ``BEAS_``
DROPPED = ("ROWS_PER_BATCH", "POOL_START_METHOD", "ROUTING_EPSILON", "REPLICAS")


@pytest.fixture
def clean_environment(monkeypatch):
    for name in OPTION_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


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
    def test_unset_is_none(self, clean_environment):
        assert ExecutionOptions.from_environment() == ExecutionOptions()

    def test_values_round_trip(self, clean_environment):
        clean_environment.setenv("BEAS_EXECUTOR", "columnar")
        clean_environment.setenv("BEAS_PARALLELISM", "3")
        clean_environment.setenv("BEAS_FLEET_PORT_BASE", "9100")
        assert ExecutionOptions.from_environment() == ExecutionOptions(
            executor="columnar", parallelism=3, fleet_port_base=9100
        )

    @pytest.mark.parametrize(
        "name, value, detail",
        [
            ("BEAS_EXECUTOR", "simd", "mode 'simd'"),
            ("BEAS_PARALLELISM", "two", "integer"),
            ("BEAS_PARALLELISM", "-1", ">= 1"),
            ("BEAS_ROUTING", "oracle", "'oracle'"),
            ("BEAS_FUZZ_SEEDS", "many", "integer"),
            ("BEAS_FUZZ_SEEDS", "0", ">= 1"),
            ("BEAS_STORAGE", "disk", "mode 'disk'"),
            ("BEAS_FLEET_PORT_BASE", "high", "integer"),
            ("BEAS_FLEET_PORT_BASE", "80", r"\[1024, 65000\]"),
        ],
    )
    def test_malformed_values_raise_at_construction(
        self, clean_environment, name, value, detail
    ):
        clean_environment.setenv(name, value)
        if name == config.ENV_FUZZ_SEEDS:
            builds = [config.env_fuzz_seeds]
        else:
            builds = [
                lambda: BEAS(example1_database()),
                lambda: Session(example1_database()),
            ]
        for build in builds:
            with pytest.raises(BEASError, match=f"{name}.*{detail}"):
                build()

    def test_fuzz_seeds_default(self, monkeypatch):
        monkeypatch.delenv("BEAS_FUZZ_SEEDS", raising=False)
        assert config.env_fuzz_seeds(8) == 8
        monkeypatch.setenv("BEAS_FUZZ_SEEDS", "30")
        assert config.env_fuzz_seeds(8) == 30

    def test_storage_round_trip(self, clean_environment):
        clean_environment.setenv("BEAS_STORAGE", "mmap")
        clean_environment.setenv("BEAS_STORAGE_DIR", "/var/beas")
        env = ExecutionOptions.from_environment()
        assert env.storage == "mmap" and env.storage_dir == "/var/beas"
        clean_environment.delenv("BEAS_STORAGE")
        clean_environment.delenv("BEAS_STORAGE_DIR")
        env = ExecutionOptions.from_environment()
        assert env.storage is None and env.storage_dir is None

    def test_routing_round_trip(self, clean_environment):
        clean_environment.setenv("BEAS_ROUTING", "learned")
        assert ExecutionOptions.from_environment().routing == "learned"
        clean_environment.setenv("BEAS_ROUTING", "static")
        assert ExecutionOptions.from_environment().routing == "static"


class TestResolution:
    def test_load_snapshot(self, clean_environment):
        clean_environment.setenv("BEAS_EXECUTOR", "columnar")
        clean_environment.setenv("BEAS_PARALLELISM", "2")
        clean_environment.setenv("BEAS_ROUTING", "learned")
        snapshot = ExecutionOptions.from_environment()
        assert snapshot == ExecutionOptions(
            executor="columnar", parallelism=2, routing="learned"
        )
        text = snapshot.describe()
        assert "executor='columnar'" in text
        assert "routing='learned'" in text
        assert "rows_per_batch" not in text  # unset: inherits the default

    def test_beas_construction_reads_the_environment(self, clean_environment):
        clean_environment.setenv("BEAS_EXECUTOR", "columnar")
        assert BEAS(example1_database()).options.executor == "columnar"
        # keywords win over the environment
        assert BEAS(example1_database(), executor="row").options.executor == "row"
        clean_environment.setenv("BEAS_PARALLELISM", "nope")
        with pytest.raises(BEASError, match="BEAS_PARALLELISM"):
            BEAS(example1_database())

    def test_components_read_no_environment(self, clean_environment):
        """Only the options chain reads the environment: a component
        built directly takes its own defaults."""
        clean_environment.setenv("BEAS_EXECUTOR", "columnar")
        engine = BEAS(example1_database())
        assert engine.options.executor == "columnar"
        executor = BoundedPlanExecutor(engine.catalog)
        assert executor.executor == "row"
        assert executor.rows_per_batch == config.DEFAULT_ROWS_PER_BATCH
        assert ExecutorRouter().epsilon == ExecutorRouter.EPSILON
        assert PeerSet.start_method in ("fork", "spawn")

    @pytest.mark.parametrize("suffix", DROPPED)
    def test_dropped_variables_are_ignored(self, monkeypatch, suffix):
        monkeypatch.setenv(f"BEAS_{suffix}", "nope")
        engine = BEAS(example1_database())
        assert engine.options == BEAS(example1_database()).options
        with Session(example1_database()) as session:
            assert session.options == engine.options

    def test_an_explicit_storage_dir_needs_mmap(self, clean_environment, tmp_path):
        with pytest.raises(BEASError, match="storage_dir requires"):
            BEAS(example1_database(), storage_dir=tmp_path)
        with pytest.raises(BEASError, match="storage_dir requires"):
            Session(
                example1_database(),
                options=ExecutionOptions(storage_dir=str(tmp_path)),
            )
        # an ambient BEAS_STORAGE_DIR without mmap is inert
        clean_environment.setenv("BEAS_STORAGE_DIR", str(tmp_path))
        assert BEAS(example1_database()).options.storage_dir is None
