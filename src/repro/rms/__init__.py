"""Torque-like resource management layer.

Mirrors the paper's extended Torque (Section III-B): a ``pbs_server``
(:class:`~repro.rms.server.Server`) and the extended TM task interface
exposing ``tm_dynget`` / ``tm_dynfree`` to applications
(:mod:`repro.rms.tm`).  The node daemons keep no state of their own: each
job's mother superior, the lowest node it started on, is recorded on its
:class:`~repro.rms.tm.TMContext`, and which cores it holds is its
:class:`~repro.cluster.allocation.Allocation`.
"""

from repro.rms.server import Server
from repro.rms.tm import TMContext

__all__ = ["Server", "TMContext"]
