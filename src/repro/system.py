"""The complete dynamic batch system, wired together.

:class:`BatchSystem` is the public facade most users want: it builds the
engine, cluster, server and scheduler, lets you submit jobs (immediately or
at future times), runs the simulation and hands back
:class:`~repro.metrics.collector.WorkloadMetrics`.

It *is* a :class:`repro.service.core.PolicyCore` — the wired stack the
scheduler service (:mod:`repro.service`) drives incrementally — plus the
three calls that drive it to completion; one constructor for both paths is
why a workload pushed through the service reproduces the direct run bit
for bit.

Example
-------
>>> from repro import BatchSystem, MauiConfig
>>> from repro.rms.client import qsub
>>> system = BatchSystem(num_nodes=4, cores_per_node=8)
>>> job = qsub(system.server, cores=8, walltime=600, user="alice")
>>> system.run()
>>> job.state.value
'completed'
"""

from __future__ import annotations

import logging

from repro.jobs.job import Job
from repro.rms.server import Application
from repro.service.core import PolicyCore

__all__ = ["BatchSystem"]

log = logging.getLogger("repro.system")


class BatchSystem(PolicyCore):
    """Engine + cluster + server + scheduler in one object, with a driver."""

    def submit(self, job: Job, app: Application | None = None) -> Job:
        """Submit a job right now."""
        return self.server.submit(job, app)

    def submit_at(self, time: float, job: Job, app: Application | None = None) -> None:
        """Schedule a future submission of a job built now."""
        self.engine.at(time, self.server.submit, job, app)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run the simulation to completion (or ``until``)."""
        self.begin_cycle()
        processed = self.engine.run(until=until, max_events=max_events)
        self.end_cycle()
        log.info(
            "run finished: t=%.1f, %d events processed, %d trace events recorded",
            self.engine.now,
            processed,
            self.trace.total_recorded,
        )
        return processed
