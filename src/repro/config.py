"""Central configuration: every ``BEAS_*`` environment variable.

One place reads and validates the environment knobs the engine honours,
replacing the ad-hoc ``os.environ`` parses that had grown in
``engine.columnar`` (``BEAS_EXECUTOR``, ``BEAS_ROWS_PER_BATCH``),
``engine.pool`` (``BEAS_PARALLELISM``, ``BEAS_POOL_START_METHOD``) and
the fuzz suites (``BEAS_FUZZ_SEEDS``). Every reader raises
:class:`~repro.errors.BEASError` at *construction* time on a malformed
value — a typo in CI or a deployment manifest fails with a clear
message, never as a downstream execution error.

The variables, and where they sit in the option-precedence chain
(call > Query > Session > environment — see ``docs/api.md``):

===========================  ==============================================
``BEAS_EXECUTOR``            bounded execution mode: ``row`` | ``columnar``
``BEAS_ROWS_PER_BATCH``      columnar batch size (positive int)
``BEAS_PARALLELISM``         engine-pool worker processes (positive int)
``BEAS_POOL_START_METHOD``   multiprocessing start method for the pool
``BEAS_RESULT_REUSE``        result-cache matching: ``exact`` | ``subsume``
``BEAS_ROUTING``             executor routing: ``static`` | ``learned``
``BEAS_ROUTING_EPSILON``     learned-routing exploration rate (float in [0, 1])
``BEAS_STORAGE``             storage engine: ``memory`` | ``mmap``
``BEAS_STORAGE_DIR``         store directory for ``mmap`` (non-empty path)
``BEAS_REPLICAS``            serving replicas (positive int; >= 2 = fleet)
``BEAS_FLEET_PORT_BASE``     first replica TCP port (int in [1024, 65000])
``BEAS_FUZZ_SEEDS``          seed count for the differential fuzz suites
===========================  ==============================================
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import BEASError

ENV_EXECUTOR = "BEAS_EXECUTOR"
ENV_ROWS_PER_BATCH = "BEAS_ROWS_PER_BATCH"
ENV_PARALLELISM = "BEAS_PARALLELISM"
ENV_POOL_START_METHOD = "BEAS_POOL_START_METHOD"
ENV_RESULT_REUSE = "BEAS_RESULT_REUSE"
ENV_ROUTING = "BEAS_ROUTING"
ENV_ROUTING_EPSILON = "BEAS_ROUTING_EPSILON"
ENV_STORAGE = "BEAS_STORAGE"
ENV_STORAGE_DIR = "BEAS_STORAGE_DIR"
ENV_REPLICAS = "BEAS_REPLICAS"
ENV_FLEET_PORT_BASE = "BEAS_FLEET_PORT_BASE"
ENV_FUZZ_SEEDS = "BEAS_FUZZ_SEEDS"

#: Bounded-pipeline execution modes.
EXECUTOR_MODES = ("row", "columnar")

#: Result-cache matching modes: ``exact`` serves only
#: presentation-equal fingerprints; ``subsume`` additionally answers a
#: query from a cached bounded superset by re-filtering its rows
#: (:mod:`repro.bounded.subsume`).
RESULT_REUSE_MODES = ("exact", "subsume")

#: Executor-routing modes: ``static`` runs every covered query on the
#: resolved ``executor``; ``learned`` routes each covered query to the
#: mode an online per-template cost model predicts fastest
#: (:mod:`repro.engine.router`).
ROUTING_MODES = ("static", "learned")

#: Storage engines: ``memory`` keeps indices and caches process-local
#: (the historical behaviour); ``mmap`` persists access-index buckets,
#: the WAL, and the result cache to a disk-backed store
#: (:mod:`repro.storage.mmapstore`) and ships pool snapshots through
#: shared memory.
STORAGE_MODES = ("memory", "mmap")

#: Default number of rows per processing batch in columnar mode.
DEFAULT_ROWS_PER_BATCH = 4096

#: Default epsilon-greedy exploration rate for learned routing.
DEFAULT_ROUTING_EPSILON = 0.1

#: Default first TCP port of the serving fleet's replicas (replica ``i``
#: listens on ``port_base + i``, loopback only).
DEFAULT_FLEET_PORT_BASE = 7641

#: Replica listen ports must leave the privileged range and stay low
#: enough that ``port_base + replicas`` cannot overflow the port space.
FLEET_PORT_MIN = 1024
FLEET_PORT_MAX = 65000


# --------------------------------------------------------------------------- #
# validators (shared by env readers, BEAS construction, ExecutionOptions)
# --------------------------------------------------------------------------- #
def validate_executor(mode: str, *, source: str = "executor") -> str:
    if mode not in EXECUTOR_MODES:
        raise BEASError(
            f"unknown {source} mode {mode!r} (expected "
            f"{' or '.join(repr(m) for m in EXECUTOR_MODES)})"
        )
    return mode


def _validate_positive_int(value: object, source: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise BEASError(
            f"{source} must be an int, got {type(value).__name__} ({value!r})"
        )
    if value < 1:
        raise BEASError(f"{source} must be >= 1, got {value}")
    return value


def validate_rows_per_batch(value: object, *, source: str = "rows_per_batch") -> int:
    return _validate_positive_int(value, source)


def validate_parallelism(value: object, *, source: str = "parallelism") -> int:
    return _validate_positive_int(value, source)


def validate_replicas(value: object, *, source: str = "replicas") -> int:
    """Serving replica count: 1 serves in-process, >= 2 spawns the fleet."""
    return _validate_positive_int(value, source)


def validate_fleet_port_base(
    value: object, *, source: str = "fleet_port_base"
) -> int:
    port = _validate_positive_int(value, source)
    if not FLEET_PORT_MIN <= port <= FLEET_PORT_MAX:
        raise BEASError(
            f"{source} must be in [{FLEET_PORT_MIN}, {FLEET_PORT_MAX}], "
            f"got {port}"
        )
    return port


def validate_result_reuse(mode: str, *, source: str = "result_reuse") -> str:
    if mode not in RESULT_REUSE_MODES:
        raise BEASError(
            f"unknown {source} {mode!r} (expected "
            f"{' or '.join(repr(m) for m in RESULT_REUSE_MODES)})"
        )
    return mode


def validate_routing(mode: str, *, source: str = "routing") -> str:
    if mode not in ROUTING_MODES:
        raise BEASError(
            f"unknown {source} {mode!r} (expected "
            f"{' or '.join(repr(m) for m in ROUTING_MODES)})"
        )
    return mode


def validate_routing_epsilon(
    value: object, *, source: str = "routing epsilon"
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BEASError(
            f"{source} must be a float, got {type(value).__name__} ({value!r})"
        )
    epsilon = float(value)
    if not 0.0 <= epsilon <= 1.0:
        raise BEASError(f"{source} must be in [0, 1], got {epsilon}")
    return epsilon


def validate_storage(mode: str, *, source: str = "storage") -> str:
    if mode not in STORAGE_MODES:
        raise BEASError(
            f"unknown {source} mode {mode!r} (expected "
            f"{' or '.join(repr(m) for m in STORAGE_MODES)})"
        )
    return mode


def validate_storage_dir(value: object, *, source: str = "storage_dir") -> str:
    if isinstance(value, os.PathLike):
        value = os.fspath(value)
    if not isinstance(value, str) or not value:
        raise BEASError(
            f"{source} must be a non-empty path string, got {value!r}"
        )
    return value


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise BEASError(f"{name} must be an integer, got {raw!r}") from None


# --------------------------------------------------------------------------- #
# environment readers (None when the variable is unset/empty)
# --------------------------------------------------------------------------- #
def env_executor() -> Optional[str]:
    raw = os.environ.get(ENV_EXECUTOR)
    if not raw:
        return None
    return validate_executor(raw, source=ENV_EXECUTOR)


def env_rows_per_batch() -> Optional[int]:
    value = _env_int(ENV_ROWS_PER_BATCH)
    if value is None:
        return None
    return validate_rows_per_batch(value, source=ENV_ROWS_PER_BATCH)


def env_parallelism() -> Optional[int]:
    value = _env_int(ENV_PARALLELISM)
    if value is None:
        return None
    return validate_parallelism(value, source=ENV_PARALLELISM)


def env_pool_start_method() -> Optional[str]:
    raw = os.environ.get(ENV_POOL_START_METHOD)
    if not raw:
        return None
    available = multiprocessing.get_all_start_methods()
    if raw not in available:
        raise BEASError(
            f"{ENV_POOL_START_METHOD} must be one of "
            f"{', '.join(available)}, got {raw!r}"
        )
    return raw


def env_result_reuse() -> Optional[str]:
    raw = os.environ.get(ENV_RESULT_REUSE)
    if not raw:
        return None
    return validate_result_reuse(raw, source=ENV_RESULT_REUSE)


def env_routing() -> Optional[str]:
    raw = os.environ.get(ENV_ROUTING)
    if not raw:
        return None
    return validate_routing(raw, source=ENV_ROUTING)


def env_routing_epsilon() -> Optional[float]:
    raw = os.environ.get(ENV_ROUTING_EPSILON)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise BEASError(
            f"{ENV_ROUTING_EPSILON} must be a float, got {raw!r}"
        ) from None
    return validate_routing_epsilon(value, source=ENV_ROUTING_EPSILON)


def env_storage() -> Optional[str]:
    raw = os.environ.get(ENV_STORAGE)
    if not raw:
        return None
    return validate_storage(raw, source=ENV_STORAGE)


def env_storage_dir() -> Optional[str]:
    raw = os.environ.get(ENV_STORAGE_DIR)
    if not raw:
        return None
    return validate_storage_dir(raw, source=ENV_STORAGE_DIR)


def env_replicas() -> Optional[int]:
    value = _env_int(ENV_REPLICAS)
    if value is None:
        return None
    return validate_replicas(value, source=ENV_REPLICAS)


def env_fleet_port_base() -> Optional[int]:
    value = _env_int(ENV_FLEET_PORT_BASE)
    if value is None:
        return None
    return validate_fleet_port_base(value, source=ENV_FLEET_PORT_BASE)


def env_fuzz_seeds(default: int = 8) -> int:
    value = _env_int(ENV_FUZZ_SEEDS)
    if value is None:
        return default
    if value < 1:
        raise BEASError(f"{ENV_FUZZ_SEEDS} must be >= 1, got {value}")
    return value


# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EnvConfig:
    """A validated snapshot of every ``BEAS_*`` environment variable.

    ``None`` fields were unset; loading raises
    :class:`~repro.errors.BEASError` when any variable is malformed, so
    one :func:`load_env_config` call at startup surfaces every
    environment problem before the first query runs.
    """

    executor: Optional[str] = None
    rows_per_batch: Optional[int] = None
    parallelism: Optional[int] = None
    pool_start_method: Optional[str] = None
    result_reuse: Optional[str] = None
    routing: Optional[str] = None
    routing_epsilon: Optional[float] = None
    storage: Optional[str] = None
    storage_dir: Optional[str] = None
    replicas: Optional[int] = None
    fleet_port_base: Optional[int] = None
    fuzz_seeds: int = 8

    def describe(self) -> str:
        pairs = [
            (ENV_EXECUTOR, self.executor),
            (ENV_ROWS_PER_BATCH, self.rows_per_batch),
            (ENV_PARALLELISM, self.parallelism),
            (ENV_POOL_START_METHOD, self.pool_start_method),
            (ENV_RESULT_REUSE, self.result_reuse),
            (ENV_ROUTING, self.routing),
            (ENV_ROUTING_EPSILON, self.routing_epsilon),
            (ENV_STORAGE, self.storage),
            (ENV_STORAGE_DIR, self.storage_dir),
            (ENV_REPLICAS, self.replicas),
            (ENV_FLEET_PORT_BASE, self.fleet_port_base),
            (ENV_FUZZ_SEEDS, self.fuzz_seeds),
        ]
        return "\n".join(
            f"{name}={'(unset)' if value is None else value}"
            for name, value in pairs
        )


def load_env_config(*, fuzz_default: int = 8) -> EnvConfig:
    """Read and validate the whole ``BEAS_*`` environment at once."""
    return EnvConfig(
        executor=env_executor(),
        rows_per_batch=env_rows_per_batch(),
        parallelism=env_parallelism(),
        pool_start_method=env_pool_start_method(),
        result_reuse=env_result_reuse(),
        routing=env_routing(),
        routing_epsilon=env_routing_epsilon(),
        storage=env_storage(),
        storage_dir=env_storage_dir(),
        replicas=env_replicas(),
        fleet_port_base=env_fleet_port_base(),
        fuzz_seeds=env_fuzz_seeds(fuzz_default),
    )
