"""Workload specifications: declarative job lists bound to a system at run time."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import EvolutionProfile
from repro.jobs.job import Job, JobFlexibility, reserve_job_seqs
from repro.rms.server import Application

if TYPE_CHECKING:  # import-time cycle: system -> service -> backend -> spec
    from repro.sim.engine import Engine
    from repro.system import BatchSystem

__all__ = ["JobSpec", "Workload"]


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One job to be submitted at a fixed time.

    ``app_factory`` builds a fresh application instance per submission so a
    spec can be reused across runs without shared mutable state.
    """

    submit_time: float
    request: ResourceRequest
    walltime: float
    user: str
    group: str = "users"
    #: fairness principal for share accounting; None keeps the Job default
    #: ("default"), which makes the fairness observatory fall back to user
    account: str | None = None
    esp_type: str | None = None
    evolution: EvolutionProfile | None = None
    #: mark the job evolving even without an EvolutionProfile (used by apps
    #: that grow through channels other than tm_dynget, e.g. the SLURM-style
    #: helper-job baseline)
    evolving: bool = False
    top_priority: bool = False
    app_factory: Callable[[], Application] | None = None

    @property
    def is_evolving(self) -> bool:
        """The job is built EVOLVING: it has a profile or the flag."""
        return self.evolution is not None or self.evolving

    def build_job(self, seq: int | None = None) -> Job:
        """A fresh job for this spec; ``seq`` fixes its :attr:`Job.seq` (and
        so its id), None takes the next free one."""
        flexibility = (
            JobFlexibility.EVOLVING if self.is_evolving else JobFlexibility.RIGID
        )
        metadata = {}
        if self.esp_type is not None:
            metadata["esp_type"] = self.esp_type
        return Job(
            request=self.request,
            walltime=self.walltime,
            user=self.user,
            group=self.group,
            account=self.account if self.account is not None else "default",
            flexibility=flexibility,
            evolution=self.evolution,
            top_priority=self.top_priority,
            metadata=metadata,
            seq=reserve_job_seqs(1) if seq is None else seq,
        )


@dataclass
class Workload:
    """An ordered collection of job specs."""

    specs: list[JobSpec] = field(default_factory=list)
    name: str = "workload"

    def __post_init__(self) -> None:
        self.specs = sorted(self.specs, key=lambda s: s.submit_time)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.specs)

    @property
    def total_jobs(self) -> int:
        return len(self.specs)

    @property
    def evolving_jobs(self) -> int:
        return sum(1 for s in self.specs if s.is_evolving)

    def submit_to(self, system: BatchSystem) -> None:
        """Submit the specs that are due now and schedule the rest.

        Future specs arrive one at a time: a single arrival event is
        pending, and arrival *k* builds job *k*, schedules arrival *k+1*
        and submits job *k*.  Each arrival fires under the engine sequence
        number, and builds its job with the :attr:`Job.seq`, that it would
        have taken had every job been built and scheduled here in spec
        order: both blocks are reserved up front.  So the dispatch order
        and the job ids are those of scheduling every submission at once,
        ties at equal time included, while no job exists before it
        arrives.  Read the jobs from ``system.server.jobs``.
        """
        engine = system.engine
        specs = self.specs
        due = 0
        # sorted by submit time, so the due specs are a prefix
        while due < len(specs) and specs[due].submit_time <= engine.now:
            spec = specs[due]
            job = spec.build_job()
            app = spec.app_factory() if spec.app_factory is not None else None
            system.submit(job, app)
            due += 1
        if due < len(specs):
            _Arrivals(specs, due, engine, system.server.submit).schedule(due)

    def __repr__(self) -> str:
        return (
            f"<Workload {self.name!r}: {self.total_jobs} jobs, "
            f"{self.evolving_jobs} evolving>"
        )


class _Arrivals:
    """The future specs of one :meth:`Workload.submit_to` call, arriving one
    by one on reserved engine and job sequence numbers."""

    __slots__ = ("specs", "stop", "engine", "submit", "event_seq", "job_seq")

    def __init__(
        self,
        specs: list[JobSpec],
        first: int,
        engine: Engine,
        submit: Callable[[Job, Application | None], Job],
    ) -> None:
        self.specs = specs
        self.stop = len(specs)
        n = self.stop - first
        self.engine = engine
        self.submit = submit
        #: spec index k arrives on event seq ``event_seq + k`` and builds
        #: job seq ``job_seq + k``
        self.event_seq = engine.reserve(n) - first
        self.job_seq = reserve_job_seqs(n) - first

    def schedule(self, k: int) -> None:
        self.engine.at_reserved(
            self.specs[k].submit_time, self.event_seq + k, self.arrive, k
        )

    def arrive(self, k: int) -> None:
        spec = self.specs[k]
        job = spec.build_job(self.job_seq + k)
        app = spec.app_factory() if spec.app_factory is not None else None
        if k + 1 < self.stop:
            self.schedule(k + 1)
        self.submit(job, app)
