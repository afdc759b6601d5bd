"""SLURM-style dynamic expansion: dependent helper jobs + allocation merge.

SLURM (paper Section V) supports expansion by letting a running job submit a
new job with a dependency marker and merging the allocations once the helper
starts.  Consequences the paper points out, both reproduced here:

* the dynamic request is prioritised by the *static* fairshare machinery —
  it waits in the ordinary queue instead of being weighed by dynamic
  fairness policies, so the expansion may arrive long after the trigger
  (or never, if the parent finishes first);
* releases must return whole helper-job allocations (our native
  ``tm_dynfree`` can return any subset).

:class:`SlurmEvolvingApp` is an :class:`~repro.apps.synthetic.EvolvingWorkApp`
that obtains resources by helper-job submission.  The helper carries the
parent's remaining walltime and merges via
:meth:`repro.rms.server.Server.merge_allocations` the moment it starts.
"""

from __future__ import annotations

import dataclasses

from repro.apps.synthetic import EvolvingWorkApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job, JobState
from repro.maui.config import MauiConfig
from repro.metrics.collector import WorkloadMetrics
from repro.rms.tm import TMContext
from repro.system import BatchSystem
from repro.workloads.esp import (
    ESP_EXTRA_CORES,
    ESP_REQUEST_FRACTION,
    ESPJobType,
    _esp_schedule,
    esp_job_spec,
)
from repro.workloads.spec import JobSpec, Workload

__all__ = ["SlurmEvolvingApp", "make_slurm_esp_workload", "run_slurm_esp"]


class _ExpansionStub:
    """The dependent helper job's payload: merge into the parent on start."""

    def __init__(self, owner: "SlurmEvolvingApp") -> None:
        self.owner = owner

    def launch(self, ctx: TMContext) -> None:
        self.owner._on_stub_started(ctx)


class SlurmEvolvingApp(EvolvingWorkApp):
    """Evolving workload that expands the SLURM way.

    The linear work model of :class:`EvolvingWorkApp`, with two overrides:
    at the trigger fraction it submits a helper job (same user, sized like
    the expansion, walltime = parent's remaining walltime) instead of
    calling ``tm_dynget``, and on completion it cancels a helper still
    queued.
    """

    def __init__(
        self, system: BatchSystem, static_runtime: float, extra_cores: int = ESP_EXTRA_CORES
    ) -> None:
        super().__init__(static_runtime)
        self.system = system
        self.extra_cores = extra_cores
        self.stub: Job | None = None

    def launch(self, ctx: TMContext) -> None:
        self.stub = None
        super().launch(ctx)
        ctx.after(self._time_to_fraction(ESP_REQUEST_FRACTION), self._submit_stub)

    def _complete(self) -> None:
        # the helper is pointless once the parent is done: cancel it
        if self.stub is not None and self.stub.state is JobState.QUEUED:
            self.system.server.cancel_queued(self.stub, reason="parent finished")
        super()._complete()

    def _submit_stub(self) -> None:
        assert self._ctx is not None
        parent = self._ctx.job
        if not parent.is_active:
            return
        self._advance()
        remaining_walltime = max(1.0, parent.walltime_end - self._ctx.now)
        self.stub = Job(
            request=ResourceRequest(cores=self.extra_cores),
            walltime=remaining_walltime,
            user=parent.user,
            group=parent.group,
            # SLURM's expand idiom: "submitting a new job with a dependency
            # indicator and then merging the allocations" (paper Section V)
            depends_on=parent.job_id,
            dependency_type="after",
            metadata={"expansion_for": parent.job_id},
        )
        self.system.server.submit(self.stub, _ExpansionStub(self))

    def _on_stub_started(self, stub_ctx: TMContext) -> None:
        assert self._ctx is not None
        parent = self._ctx.job
        if not parent.is_active:  # parent gone between start and merge
            stub_ctx.finish()
            return
        self._advance()
        self.system.server.merge_allocations(stub_ctx.job, parent)
        self._sync_speed()
        self._reschedule_completion()


def make_slurm_esp_workload(
    system: BatchSystem, *, seed: int = 2014, walltime_factor: float = 1.0
) -> Workload:
    """Dynamic ESP where F-J expand via SLURM-style helper jobs."""

    def regular(jtype: ESPJobType, submit_time: float, cores: int) -> JobSpec:
        runtime = jtype.static_execution_time
        spec = esp_job_spec(
            submit_time, cores, runtime, walltime_factor, jtype.user,
            esp_type=jtype.letter,
        )
        if not jtype.is_evolving:
            return spec
        return dataclasses.replace(
            spec, evolving=True, app_factory=lambda: SlurmEvolvingApp(system, runtime)
        )

    return _esp_schedule(
        "slurm-esp", regular, system.cluster.total_cores, seed=seed,
        walltime_factor=walltime_factor,
    )


def run_slurm_esp(
    *, num_nodes: int = 15, cores_per_node: int = 8, seed: int = 2014
) -> WorkloadMetrics:
    """Simulate the SLURM-style baseline on the paper's machine."""
    system = BatchSystem(
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
        config=MauiConfig(reservation_depth=5, reservation_delay_depth=5),
    )
    make_slurm_esp_workload(system, seed=seed).submit_to(system)
    system.run(max_events=5_000_000)
    # expansion helpers are an implementation artefact of this idiom, not
    # workload jobs: exclude them so throughput/waits compare like for like
    from repro.metrics.collector import JobRecord

    records = [
        JobRecord.from_job(j)
        for j in system.server.jobs.values()
        if "expansion_for" not in j.metadata
    ]
    return WorkloadMetrics(records, system.cluster.total_cores, system.trace)
