"""The house checkers. Importing this package registers every rule."""

from repro.analysis.checkers import (  # noqa: F401  (registration imports)
    cache_guard,
    env_access,
    except_discipline,
    lock_discipline,
    metrics_accounting,
    null_guard,
    remote_dispatch,
    storage_codec,
    table_mutation,
)
