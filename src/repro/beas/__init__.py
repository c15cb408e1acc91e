"""BEAS system facade (S9): the end-to-end prototype of the paper.

The blessed public surface is the unified lifecycle in
:mod:`repro.beas.session` (``Session`` / ``Query`` / ``Decision`` /
``Result``); :class:`~repro.beas.system.BEAS` is the engine core
underneath (check / plan / evaluate / maintain).
"""

from repro.beas.result import ExecutionMode
from repro.beas.session import Decision, ExecutionOptions, Query, Result, Session
from repro.beas.system import BEAS

__all__ = [
    "BEAS",
    "Decision",
    "ExecutionMode",
    "ExecutionOptions",
    "Query",
    "Result",
    "Session",
]
