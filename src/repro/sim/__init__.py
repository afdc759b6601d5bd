"""Deterministic discrete-event simulation kernel.

The batch system (server, scheduler, application models) runs on top of
this engine.  Everything is single-threaded and deterministic: events firing
at the same timestamp are ordered by an explicit priority and then by
insertion order, so a given workload + configuration always produces the same
trace.
"""

from repro.sim.engine import Engine, EventHandle
from repro.sim.events import EventKind, TraceEvent, TraceLog

__all__ = ["Engine", "EventHandle", "EventKind", "TraceEvent", "TraceLog"]
