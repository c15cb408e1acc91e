"""A bulk build and the cycle collector.

An index over D — an access index grouping a relation by X, a table's
key index — allocates containers in proportion to |D|. CPython's cycle
collector would walk them again and again: the young generations while
the build allocates, the older ones as the new buckets are promoted, and
every later full collection, which finds nothing to free in them
(``docs/invariants.md``, "One way in, no cycles": a dropped engine is
freed by reference counting alone).

``with bulk_build:`` keeps the collector out of a build. The outermost
entry collects the two young generations, where fresh garbage lives, so
it is not frozen; notes whether the collector is enabled and pauses it.
The outermost exit, also on an exception, moves every object alive into
the permanent generation (``gc.freeze()``) and resumes the collector
only if it was running on entry. A depth count under a lock makes it
reentrant, and safe for builds that race on several threads. Frozen
objects are still freed when their reference counts drop to zero;
objects allocated after the freeze (the buckets writes add) stay
collectable.

The frozen heap is every open engine's, so it is handed back
(``gc.unfreeze()``), and whatever later turns cyclic is collected again,
only when the last open engine closes: ``bulk_build.hold(engine)``
counts an engine open until the release it returns is called
(``BEAS.close()``; a second call does nothing) or the engine is freed
unclosed (a ``weakref.finalize``, which refers to the engine weakly).
Closing one engine beside a long-lived one thus leaves the long-lived
one's indices out of every later full collection.

The entry does not run a full collection: after the last ``close()``
the oldest generation holds every object of the process again, so each
engine opened after another closed would walk the whole heap (the test
suite, which opens thousands, took 3.6x as long). Cyclic garbage that
already reached the oldest generation is frozen with the rest, until
the last open engine closes.
"""

from __future__ import annotations

import gc
import threading
import weakref


class _BulkBuild:
    """The reentrant pause-then-freeze around a bulk build (module doc)."""

    def __init__(self) -> None:
        # reentrant: a finalizer the entry's collection runs may build
        self._lock = threading.RLock()
        self._depth = 0
        self._collecting = False
        self._holders = 0  # the engines open

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                gc.collect(1)
                self._collecting = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth:
                gc.freeze()
                if self._collecting:
                    gc.enable()

    def hold(self, owner: object) -> weakref.finalize:
        """Count ``owner`` open; calling the release returned, or freeing
        ``owner``, counts it closed, once (module doc)."""
        with self._lock:
            self._holders += 1
        return weakref.finalize(owner, self._release)

    def _release(self) -> None:
        with self._lock:
            self._holders -= 1
            if not self._holders:
                gc.unfreeze()


#: the collector is the process's, so its pause is one depth count shared
#: by every bulk build in the process
bulk_build = _BulkBuild()
