"""Central configuration: where every setting's value comes from.

:class:`ExecutionOptions` is the one place that knows a setting's
environment variable, validator and default. One table (``_SETTINGS``)
holds the three for each field, and ``__post_init__``,
:meth:`ExecutionOptions.from_environment` and
:meth:`ExecutionOptions.defaults` all read it; every component (engine,
executor, pool) takes resolved values and reads no environment.
A malformed value raises :class:`~repro.errors.BEASError` naming its
variable when the engine or Session is built — a typo in CI or a
deployment manifest fails with a clear message, never as a downstream
execution error.

The variables, and where they sit in the option-precedence chain
(call > Query > Session > environment > defaults — see ``docs/api.md``):

==========================  ==============================================
``BEAS_EXECUTOR``           bounded execution mode: ``row`` | ``columnar``
``BEAS_PARALLELISM``        engine-pool worker processes (positive int)
``BEAS_ROUTING``            executor routing: ``static`` | ``learned``
``BEAS_STORAGE``            storage engine: ``memory`` | ``mmap``
``BEAS_STORAGE_DIR``        store directory (non-empty path; inert
                            unless the storage engine is ``mmap``)
``BEAS_FLEET_PORT_BASE``    first replica TCP port (int in [1024, 65000])
``BEAS_FUZZ_SEEDS``         seed count for the differential fuzz suites
==========================  ==============================================

``BEAS_FUZZ_SEEDS`` is the test harness's knob, read by
:func:`env_fuzz_seeds`; the others are the environment layer of
:class:`ExecutionOptions`.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Optional

from repro.errors import BEASError

ENV_EXECUTOR = "BEAS_EXECUTOR"
ENV_PARALLELISM = "BEAS_PARALLELISM"
ENV_ROUTING = "BEAS_ROUTING"
ENV_STORAGE = "BEAS_STORAGE"
ENV_STORAGE_DIR = "BEAS_STORAGE_DIR"
ENV_FLEET_PORT_BASE = "BEAS_FLEET_PORT_BASE"
ENV_FUZZ_SEEDS = "BEAS_FUZZ_SEEDS"

#: Bounded-pipeline execution modes.
EXECUTOR_MODES = ("row", "columnar")

#: Executor-routing modes: ``static`` runs every covered query on the
#: resolved ``executor``; ``learned`` routes each covered query to the
#: mode with the lowest measured mean latency for its template
#: (:mod:`repro.engine.router`).
ROUTING_MODES = ("static", "learned")

#: Storage engines: ``memory`` keeps indices process-local (the
#: historical behaviour); ``mmap`` (a historical name: nothing is
#: mapped) persists a manifest and the WAL to a disk-backed store
#: (:mod:`repro.storage.mmapstore`), from which a reopen rebuilds the
#: indices and replays the log. Caches are process-local either way.
STORAGE_MODES = ("memory", "mmap")

#: Default number of rows per processing batch in columnar mode.
DEFAULT_ROWS_PER_BATCH = 4096

#: Replica listen ports must leave the privileged range; replica ``i``
#: listens on ``fleet_port_base + i``, and the resolved options check
#: that the last one stays within :data:`PORT_SPACE_MAX`.
FLEET_PORT_MIN = 1024
FLEET_PORT_MAX = 65000
PORT_SPACE_MAX = 65535

#: Engine-level fields, fixed when a BEAS engine is built: a later layer
#: (Session over an adopted engine, Query, call) may only restate them.
ENGINE_PINNED = (
    "rows_per_batch",
    "parallelism",
    "storage",
    "storage_dir",
    "replicas",
    "fleet_port_base",
)

#: Fields that pin the execution shape: a layer setting one of them
#: without ``routing`` resolves ``routing="static"``, so an ambient
#: ``BEAS_ROUTING=learned`` cannot reroute it.
_SHAPE = ("executor", "rows_per_batch", "parallelism")


# --------------------------------------------------------------------------- #
# validators: each returns the value stored
# --------------------------------------------------------------------------- #
def _one_of(modes: tuple[str, ...], value: object, what: str) -> str:
    for mode in modes:
        if value == mode:
            return mode
    raise BEASError(
        f"unknown {what} {value!r} (expected "
        f"{' or '.join(repr(m) for m in modes)})"
    )


def validate_executor(mode: object, *, source: str = "executor") -> str:
    return _one_of(EXECUTOR_MODES, mode, f"{source} mode")


def validate_routing(mode: object, *, source: str = "routing") -> str:
    return _one_of(ROUTING_MODES, mode, source)


def validate_storage(mode: object, *, source: str = "storage") -> str:
    return _one_of(STORAGE_MODES, mode, f"{source} mode")


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


def validate_storage_dir(value: object, *, source: str = "storage_dir") -> str:
    if isinstance(value, os.PathLike):
        value = os.fspath(value)
    if not isinstance(value, str) or not value:
        raise BEASError(
            f"{source} must be a non-empty path string, got {value!r}"
        )
    return value


def _validate_budget(value: object, *, source: str = "budget") -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise BEASError(f"{source} must be an int, got {type(value).__name__}")
    if value < 0:
        raise BEASError(f"{source} must be >= 0, got {value}")
    return value


def _validate_flag(value: object, *, source: str) -> bool:
    if not isinstance(value, bool):
        raise BEASError(f"{source} must be a bool, got {value!r}")
    return value


def _parse_text(variable: str, raw: str) -> str:
    return raw


def _parse_int(variable: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise BEASError(f"{variable} must be an integer, got {raw!r}") from None


# --------------------------------------------------------------------------- #
# the settings table
# --------------------------------------------------------------------------- #
class _Setting(NamedTuple):
    #: the ``BEAS_*`` variable of the environment layer (None: no layer)
    variable: Optional[str]
    #: ``(value, *, source) -> the value stored``
    validate: Callable[..., Any]
    #: the bottom of the chain (None: unbounded / a private directory)
    default: Any
    #: the variable's text -> a value for ``validate``
    parse: Callable[[str, str], Any] = _parse_text


_SETTINGS: dict[str, _Setting] = {
    "executor": _Setting(ENV_EXECUTOR, validate_executor, "row"),
    "rows_per_batch": _Setting(
        None, validate_rows_per_batch, DEFAULT_ROWS_PER_BATCH
    ),
    "parallelism": _Setting(ENV_PARALLELISM, validate_parallelism, 1, _parse_int),
    "budget": _Setting(None, _validate_budget, None),
    "approximate_over_budget": _Setting(None, _validate_flag, False),
    "use_result_cache": _Setting(None, _validate_flag, True),
    "routing": _Setting(ENV_ROUTING, validate_routing, "static"),
    "storage": _Setting(ENV_STORAGE, validate_storage, "memory"),
    # mmap without a directory owns a temporary one
    "storage_dir": _Setting(ENV_STORAGE_DIR, validate_storage_dir, None),
    "replicas": _Setting(None, validate_replicas, 1),
    "fleet_port_base": _Setting(
        ENV_FLEET_PORT_BASE, validate_fleet_port_base, 7641, _parse_int
    ),
}


@dataclass(frozen=True)
class ExecutionOptions:
    """Every execution knob, validated at construction.

    ``None`` means "inherit from the next layer down" in the precedence
    chain (call > Query > Session > environment > defaults). The
    :data:`ENGINE_PINNED` fields are fixed when the engine is built;
    ``executor`` and the rest may change per Query or per call (answers
    are mode-independent).
    """

    executor: Optional[str] = None  # "row" | "columnar"
    rows_per_batch: Optional[int] = None
    parallelism: Optional[int] = None
    budget: Optional[int] = None  # tuple budget (None = unbounded)
    approximate_over_budget: Optional[bool] = None
    use_result_cache: Optional[bool] = None
    routing: Optional[str] = None  # "static" | "learned"
    storage: Optional[str] = None  # "memory" | "mmap"
    storage_dir: Optional[str] = None  # store directory (mmap only)
    replicas: Optional[int] = None  # serving replicas (>= 2 = fleet)
    fleet_port_base: Optional[int] = None  # first replica TCP port

    def __post_init__(self) -> None:
        for name, setting in _SETTINGS.items():
            value = getattr(self, name)
            if value is not None:
                stored = setting.validate(value, source=name)
                if stored is not value:
                    object.__setattr__(self, name, stored)

    # ------------------------------------------------------------------ #
    def over(self, base: Optional["ExecutionOptions"]) -> "ExecutionOptions":
        """This layer merged over ``base``: set fields win, ``None``
        fields inherit."""
        if base is None:
            return self
        merged = {
            field.name: (
                getattr(self, field.name)
                if getattr(self, field.name) is not None
                else getattr(base, field.name)
            )
            for field in dataclasses.fields(self)
        }
        return ExecutionOptions(**merged)

    def replace(self, **fields: Any) -> "ExecutionOptions":
        return dataclasses.replace(self, **fields)

    def _apply(self, layer: "ExecutionOptions") -> "ExecutionOptions":
        """``layer`` over these resolved options, under the pin rule: a
        layer that sets a :data:`_SHAPE` field and leaves ``routing``
        unset resolves ``routing="static"`` (set ``routing`` beside it to
        keep the router)."""
        resolved = layer.over(self)
        if (
            layer.routing is None
            and resolved.routing != "static"
            and any(getattr(layer, name) is not None for name in _SHAPE)
        ):
            resolved = resolved.replace(routing="static")
        return resolved

    def refine(
        self, *layers: Optional["ExecutionOptions"]
    ) -> "ExecutionOptions":
        """These fully resolved options with ``layers`` applied lowest
        first (Session, Query, call) — each under the pin rule, with the
        engine-pinned fields guarded against silent divergence. With no
        layer set (a plain read) they are ``self``."""
        if not any(layers):
            return self
        resolved = self
        for layer in layers:
            if layer is None:
                continue
            for name in ENGINE_PINNED:
                wanted = getattr(layer, name)
                if wanted is not None and wanted != getattr(resolved, name):
                    raise BEASError(
                        f"{name}={wanted!r} cannot be overridden: the engine "
                        f"is pinned to {name}={getattr(resolved, name)!r} "
                        "(engine-level options are fixed when the BEAS "
                        "engine is built)"
                    )
            resolved = resolved._apply(layer)
        return resolved

    @staticmethod
    def resolve(layer: "ExecutionOptions") -> "ExecutionOptions":
        """An engine's options: ``layer`` (its keywords) over the
        environment over the defaults, every field concrete.

        A ``storage_dir`` set in ``layer`` needs ``storage="mmap"``; an
        ambient ``BEAS_STORAGE_DIR`` without it is inert. The last
        replica port must fit the port space."""
        resolved = (
            ExecutionOptions.from_environment()
            .over(ExecutionOptions.defaults())
            ._apply(layer)
        )
        if resolved.storage != "mmap" and resolved.storage_dir is not None:
            if layer.storage_dir is not None:
                raise BEASError(
                    "storage_dir requires the mmap storage engine "
                    f"(storage='mmap' or {ENV_STORAGE}=mmap)"
                )
            resolved = resolved.replace(storage_dir=None)
        port_base, replicas = resolved.fleet_port_base, resolved.replicas
        if (
            port_base is not None
            and replicas is not None
            and port_base + replicas - 1 > PORT_SPACE_MAX
        ):
            raise BEASError(
                f"replicas={replicas} from fleet_port_base={port_base} would "
                f"listen up to port {port_base + replicas - 1}, past "
                f"{PORT_SPACE_MAX}"
            )
        return resolved

    @staticmethod
    def from_environment() -> "ExecutionOptions":
        """The environment layer: each field's ``BEAS_*`` variable,
        validated under the variable's name."""
        values: dict[str, Any] = {}
        for name, setting in _SETTINGS.items():
            variable = setting.variable
            if variable is None:
                continue
            raw = os.environ.get(variable)
            if raw:
                value = setting.parse(variable, raw)
                values[name] = setting.validate(value, source=variable)
        return ExecutionOptions(**values)

    @staticmethod
    def defaults() -> "ExecutionOptions":
        """The bottom of the chain: every field concrete."""
        return ExecutionOptions(
            **{name: setting.default for name, setting in _SETTINGS.items()}
        )

    def describe(self) -> str:
        pairs = ", ".join(
            f"{field.name}={getattr(self, field.name)!r}"
            for field in dataclasses.fields(self)
            if getattr(self, field.name) is not None
        )
        return f"ExecutionOptions({pairs or 'inherit all'})"


def options_layer(
    options: Optional[ExecutionOptions], fields: Mapping[str, Any]
) -> Optional[ExecutionOptions]:
    """Combine an options object and/or loose keyword fields into one
    layer (keywords win over the object's fields)."""
    if fields:
        layer = ExecutionOptions(**fields)
        return layer.over(options) if options is not None else layer
    return options


def env_fuzz_seeds(default: int = 8) -> int:
    """The differential fuzz suites' seed count (``BEAS_FUZZ_SEEDS``)."""
    raw = os.environ.get(ENV_FUZZ_SEEDS)
    if not raw:
        return default
    return _validate_positive_int(_parse_int(ENV_FUZZ_SEEDS, raw), ENV_FUZZ_SEEDS)
