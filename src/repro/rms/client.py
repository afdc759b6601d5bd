"""Torque-style client commands (``qsub``/``qstat``-alikes) for examples.

These helpers wrap the :class:`~repro.rms.server.Server` API in the shapes
users know from the command line, which keeps the example scripts close to a
real batch-system session.
"""

from __future__ import annotations

from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import EvolutionProfile
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.rms.server import Application, Server
from repro.units import parse_duration

__all__ = ["qsub", "qalter", "qstat", "qstat_table"]


def qsub(
    server: Server,
    *,
    walltime: str | float,
    cores: int = 0,
    nodes: int = 0,
    ppn: int = 0,
    user: str = "user",
    group: str = "group",
    evolving: bool = False,
    evolution: EvolutionProfile | None = None,
    min_cores: int = 0,
    depends_on: str | None = None,
    dependency_type: str = "afterok",
    app: Application | None = None,
    top_priority: bool = False,
    **metadata,
) -> Job:
    """Submit a job, mirroring ``qsub -l nodes=N:ppn=P,walltime=HH:MM:SS``.

    ``min_cores`` marks the job moldable (``-l procs=N`` with a floor);
    ``depends_on``/``dependency_type`` mirror ``-W depend=afterok:<id>``.
    """
    request = (
        ResourceRequest(nodes=nodes, ppn=ppn) if nodes else ResourceRequest(cores=cores)
    )
    if evolving or evolution is not None:
        flexibility = JobFlexibility.EVOLVING
    elif min_cores:
        flexibility = JobFlexibility.MOLDABLE
    else:
        flexibility = JobFlexibility.RIGID
    job = Job(
        request=request,
        walltime=parse_duration(walltime),
        user=user,
        group=group,
        flexibility=flexibility,
        evolution=evolution,
        min_cores=min_cores,
        depends_on=depends_on,
        dependency_type=dependency_type,
        top_priority=top_priority,
        metadata=dict(metadata),
    )
    return server.submit(job, app)


def qalter(
    server: Server,
    job: Job,
    *,
    walltime: str | float | None = None,
    cores: int | None = None,
) -> Job:
    """Alter a queued job (``qalter``): new walltime and/or core request.

    Only queued jobs can be altered — Torque refuses to change running jobs'
    resource lists, and so do we.
    """
    server._move(job, "alter")
    if walltime is not None:
        new_walltime = parse_duration(walltime)
        if new_walltime <= 0:
            raise ValueError("walltime must be positive")
        job.walltime = new_walltime
    if cores is not None:
        if job.request.is_shaped:
            raise ValueError("cannot qalter a nodes=N:ppn=P request to plain cores")
        job.request = ResourceRequest(cores=cores)
    # a changed requirement can make the job schedulable right now, and
    # invalidates every plan made from the old one
    server.alter_epoch += 1
    server._notify()
    return job


_STATE_LETTER = {
    JobState.QUEUED: "Q",
    JobState.RUNNING: "R",
    JobState.DYNQUEUED: "D",
    JobState.COMPLETED: "C",
    JobState.ABORTED: "A",
}


def qstat(server: Server) -> list[dict]:
    """Current job status as a list of records (``qstat``-like)."""
    rows = []
    for job in server.jobs.values():
        rows.append(
            {
                "job_id": job.job_id,
                "user": job.user,
                "state": _STATE_LETTER[job.state],
                "request": str(job.request),
                "cores_held": (
                    job.allocation.total_cores
                    if job.allocation is not None and job.is_active
                    else 0
                ),
                "walltime": job.walltime,
            }
        )
    return rows


def qstat_table(server: Server) -> str:
    """Human-readable ``qstat`` output for example scripts."""
    rows = qstat(server)
    header = f"{'Job ID':<12} {'User':<8} {'S':<2} {'Request':<16} {'Held':>5} {'Walltime':>9}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['job_id']:<12} {r['user']:<8} {r['state']:<2} "
            f"{r['request']:<16} {r['cores_held']:>5} {r['walltime']:>9.0f}"
        )
    return "\n".join(lines)
