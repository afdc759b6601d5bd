"""One wall-clock shim for every observability timing site.

The phase profiler and the scheduler's ``dyn_handle_seconds`` timer read
the wall clock through :func:`perf_ns`, so tests can freeze or script it
deterministically:

>>> from repro.obs import clock
>>> manual = clock.ManualClock()
>>> clock.set_clock(manual)
>>> clock.perf_ns()
0
>>> manual.advance(2_500)
>>> clock.perf_ns()
2500
>>> clock.reset_clock()

The shim is wall-clock only — *simulation* time stays the engine's
``now`` and is never routed through here.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["perf_ns", "monotonic_s", "set_clock", "reset_clock", "ManualClock"]

_DEFAULT: Callable[[], int] = time.perf_counter_ns

#: the active clock; module-global so the hot-path read is one dict lookup
_clock: Callable[[], int] = _DEFAULT


def perf_ns() -> int:
    """Current wall time in nanoseconds (monotonic; freezable in tests)."""
    return _clock()


def monotonic_s() -> float:
    """Current wall time in seconds, derived from the same clock.

    Derived rather than a second independent source so that freezing the
    clock freezes *all* wall-time observers at once.
    """
    return _clock() / 1e9


def set_clock(fn: Callable[[], int]) -> None:
    """Replace the wall clock (tests only).  ``fn`` returns nanoseconds."""
    global _clock
    if not callable(fn):
        raise TypeError(f"clock must be callable: {fn!r}")
    _clock = fn


def reset_clock() -> None:
    """Restore the real ``time.perf_counter_ns`` clock."""
    global _clock
    _clock = _DEFAULT


class ManualClock:
    """A hand-cranked clock for deterministic timing tests.

    Calling it returns the current reading; :meth:`advance` moves it
    forward.  Install with :func:`set_clock`, remove with
    :func:`reset_clock` (use a try/finally or fixture — the shim is
    process-global).
    """

    __slots__ = ("now_ns",)

    def __init__(self, start_ns: int = 0) -> None:
        self.now_ns = int(start_ns)

    def __call__(self) -> int:
        return self.now_ns

    def advance(self, ns: int) -> None:
        """Move the clock forward by ``ns`` nanoseconds."""
        if ns < 0:
            raise ValueError(f"clock cannot run backwards: {ns}")
        self.now_ns += int(ns)

    def __repr__(self) -> str:
        return f"<ManualClock {self.now_ns}ns>"
